"""L-polynomials of genus 1 curves y^2 = g(x) over F_p and F_{p^2}.

The field alone picks the counting method (lpoly1): exhaustive character
sums through the kernels module for F_p with p < FP_EXHAUSTIVE_BELOW and for
F_{p^2} with q < FP2_EXHAUSTIVE_BELOW, baby-step/giant-step order-finding on
the curve and its quadratic twist everywhere else.  BSGS runs on a cubic model;
quartics reach one by reversal (when g(0) = 0) or through the classical
quartic invariants.  The number of F_q-roots of the cubic fixes #E mod 2,
and in most cases mod 4, so BSGS searches only that residue class of the
Hasse interval wherever the interval is wide enough for that to pay.
"""

import math
import random
from dataclasses import dataclass

from . import kernels
from .errors import (
    AmbiguousOrder,
    DegreeError,
    FieldTooLarge,
    HasseViolation,
    NotSquarefree,
    Unsupported,
)
from .modarith import Fp2
from .polyring import field_disc, fp2_trim, fp_trim

DEFAULT_NAIVE_LIMIT = 1 << 16
# Over F_p one numpy pass over [0, p) beats BSGS up to about p = 2^13
# (0.30 ms against 0.32 ms at p = 8191, 0.78 ms against 0.34 ms at 16381).
FP_EXHAUSTIVE_BELOW = 1 << 13
# Over F_{p^2} an exhaustive count costs p^2 evaluations: it beats BSGS
# clearly up to p = 31 (0.24 ms against 0.60 ms), is within noise of it at
# p = 61 and 67, and loses from about p = 79 on, so the band ends at p = 61.
FP2_EXHAUSTIVE_BELOW = 1 << 12
# Above q = 229, E or its quadratic twist has a point whose order has only
# one multiple in the Hasse interval (Mestre for prime q; Cremona and
# Sutherland, "On a theorem of Mestre and Schoof", JTNB 2010, for every q),
# so group_order_bsgs can pin the order there.  Both exhaustive bands exceed
# the bound, so BSGS stays exact, and characteristic 3, which BSGS cannot
# take, is always counted exhaustively.
MESTRE_BOUND = 229
# Baby and giant steps advance in up to LANES independent lanes.  A round of
# lane additions is one F.chord_round on raw ints with one inversion (over
# F_{p^2}, of the F_p norms); more lanes spread it thinner.  A power of two,
# because the lanes are built by doubling (_Curve.progression); shorter walks
# take fewer (_width), and a walk's last round stops at its last point.
LANES = 32
# Random points group_order_bsgs tries, alternating curve and twist, before
# it gives up with AmbiguousOrder.
MAX_POINTS = 48
# Reading #E mod 2 or 4 (_order_class) costs about log2(p) products mod the
# cubic: 0.08 ms over F_p and 0.13 ms over F_{p^2} at q = 2^20.  Against
# the walk over the whole Hasse interval (median per call, 60 random cubics
# per log2 q), it costs 18-23% where that walk has one baby round
# (q < 2^18); at two rounds (2^18 <= q < 2^22) it is within 5% either way
# over F_p and 4-17% ahead over F_{p^2}; from three rounds on it gains.
CLASS_FROM_ROUNDS = 2


@dataclass(frozen=True)
class Genus1Model:
    """A squarefree cubic or quartic y^2 = g(x) over F_p or F_{p^2}."""

    field: object  # Fp or Fp2
    g: tuple

    def __post_init__(self):
        F = self.field
        g = fp2_trim(self.g, F) if isinstance(F, Fp2) else fp_trim(self.g, F.p)
        d = len(g) - 1
        if d not in (3, 4):
            raise DegreeError(f"genus 1 model needs degree 3 or 4, got {d}")
        if F.is_zero(field_disc(g, F)):
            raise NotSquarefree("singular genus 1 model")
        object.__setattr__(self, "g", g)

    @property
    def degree(self):
        return len(self.g) - 1


@dataclass(frozen=True)
class LPoly1:
    """1 - a*T + q*T^2 for a genus 1 curve over a field of size q."""

    a: int
    q: int

    def __post_init__(self):
        if self.a * self.a > 4 * self.q:
            raise HasseViolation(f"|{self.a}| > 2*sqrt({self.q})")


def count_points_naive(model: Genus1Model, limit: int = DEFAULT_NAIVE_LIMIT) -> int:
    """Points on the smooth projective model, by exhaustive character sums.

    Counts sum_x (1 + chi(g(x))) plus the points at infinity: one for a
    cubic; for a quartic, two if lc(g) is a square and none otherwise.
    """
    F = model.field
    if F.q > limit:
        raise FieldTooLarge(f"field size {F.q} exceeds the naive limit {limit}")
    if isinstance(F, Fp2):
        affine = kernels.count_affine_fp2(model.g, F.u0, F.u1, F.p)
    else:
        affine = kernels.count_affine_fp(model.g, F.p)
    if model.degree == 3:
        return affine + 1
    return affine + (2 if F.is_square(model.g[-1]) else 0)


def quartic_to_cubic(model: Genus1Model) -> Genus1Model:
    """Reverse a quartic with a root at 0 into a cubic with the same count.

    (x, y) -> (1/x, y/x^2) identifies the two smooth models away from the
    swapped places, and the swapped places pair up exactly, so the
    L-polynomials agree.
    """
    F = model.field
    if model.degree != 4:
        raise DegreeError("reversal expects a quartic")
    if not F.is_zero(model.g[0]):
        raise DegreeError("reversal expects g(0) = 0")
    # x^4 g(1/x): the vanishing constant term makes this a cubic
    return Genus1Model(F, tuple(reversed(model.g[1:])))


def quartic_jacobian(model: Genus1Model) -> Genus1Model:
    """Cubic model Y^2 = X^3 - 27I X - 27J from the classical quartic
    invariants I, J; the trace is preserved.

    Unsupported in characteristic 3, where the -27 coefficients collapse.
    """
    F = model.field
    if model.degree != 4:
        raise DegreeError("quartic invariants expect a quartic")
    if F.p == 3:
        raise Unsupported("quartic invariants degenerate in characteristic 3")
    e, d, c, b, a = model.g
    mul = F.mul
    i_inv = F.add(
        F.sub(F.smul(12, mul(a, e)), F.smul(3, mul(b, d))), mul(c, c)
    )
    j_inv = F.add(
        F.add(F.smul(72, mul(mul(a, c), e)), F.smul(9, mul(mul(b, c), d))),
        F.add(
            F.add(F.smul(-27, mul(a, mul(d, d))), F.smul(-27, mul(mul(b, b), e))),
            F.smul(-2, mul(c, mul(c, c))),
        ),
    )
    cubic = (F.smul(-27, j_inv), F.smul(-27, i_inv), F.zero, F.one)
    return Genus1Model(F, cubic)


# ---------------------------------------------------------------------------
# elliptic curve group arithmetic for BSGS (short Weierstrass, char > 3)
# ---------------------------------------------------------------------------


class _Curve:
    """y^2 = x^3 + Ax + B with affine points; None is the identity."""

    __slots__ = ("F", "A", "B")

    def __init__(self, F, A, B):
        self.F = F
        self.A = A
        self.B = B

    def add(self, P, Q):
        F = self.F
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if F.is_zero(F.add(y1, y2)):
                return None
            num = F.add(F.smul(3, F.mul(x1, x1)), self.A)
            lam = F.mul(num, F.inv(F.smul(2, y1)))
        else:
            lam = F.mul(F.sub(y2, y1), F.inv(F.sub(x2, x1)))
        x3 = F.sub(F.sub(F.mul(lam, lam), x1), x2)
        y3 = F.sub(F.mul(lam, F.sub(x1, x3)), y1)
        return (x3, y3)

    def mul(self, k, P):
        R = None
        while k:
            if k & 1:
                R = self.add(R, P)
            P = self.add(P, P)
            k >>= 1
        return R

    def advance(self, lanes, step):
        """[Q + step for Q in lanes] for one field inversion: the chord lanes
        go through one F.chord_round.  Lanes with no chord (Q = +-step, or Q
        the identity) go through add instead."""
        if step is None:
            return list(lanes)
        xs, ys = step
        plain = [Q is not None and Q[0] != xs for Q in lanes]
        if all(plain):
            return self.F.chord_round(lanes, xs, ys)
        chords = iter(self.F.chord_round([Q for Q, ok in zip(lanes, plain) if ok], xs, ys))
        return [next(chords) if ok else self.add(Q, step) for Q, ok in zip(lanes, plain)]

    def progression(self, start, step, width):
        """[start + k*step for k < width] and width*step for a power of two
        width, by doubling the lanes: one batched round per doubling."""
        lanes = [start]
        while len(lanes) < width:
            lanes += self.advance(lanes, step)
            step = self.add(step, step)
        return lanes, step

    def random_point(self, rng):
        F = self.F
        while True:
            x = F.random(rng)
            rhs = F.add(F.mul(x, F.add(F.mul(x, x), self.A)), self.B)
            if F.is_zero(rhs):
                return (x, F.zero)
            if F.is_square(rhs):
                return (x, F.sqrt(rhs, rng))


def _to_short_weierstrass(model: Genus1Model):
    """Point-count-preserving change of a cubic model to y^2 = x^3 + Ax + B."""
    F = model.field
    if F.p == 3:
        raise Unsupported("short Weierstrass form needs characteristic > 3")
    c0, c1, c2, c3 = model.g
    # scale to a monic cubic: X = c3 x, Y = c3 y
    b2 = c2
    b1 = F.mul(c1, c3)
    b0 = F.mul(c0, F.mul(c3, c3))
    # depress: X -> X - b2/3
    inv3 = F.inv(F.from_int(3))
    t = F.mul(b2, inv3)
    A = F.sub(b1, F.mul(b2, t))
    B = F.add(F.sub(b0, F.mul(b1, t)), F.smul(2, F.mul(t, F.mul(t, t))))
    return A, B


def _cubic_mulmod(F, a, b, A, B):
    """a*b mod x^3 + Ax + B for coefficient triples a, b (degree <= 2)."""
    mul, add, sub = F.mul, F.add, F.sub
    a0, a1, a2 = a
    b0, b1, b2 = b
    c3 = add(mul(a1, b2), mul(a2, b1))
    c4 = mul(a2, b2)
    # x^3 = -Ax - B and x^4 = -Ax^2 - Bx
    return (
        sub(mul(a0, b0), mul(B, c3)),
        sub(add(mul(a0, b1), mul(a1, b0)), add(mul(A, c3), mul(B, c4))),
        sub(add(add(mul(a0, b2), mul(a1, b1)), mul(a2, b0)), mul(A, c4)),
    )


def _x_power_mod_cubic(F, A, B, e):
    """x^e mod x^3 + Ax + B as a coefficient triple, for e >= 1: square,
    then multiply by x, once per bit of e below the leading one."""
    h = (F.zero, F.one, F.zero)
    mul, sub = F.mul, F.sub
    for bit in bin(e)[3:]:
        h = _cubic_mulmod(F, h, h, A, B)
        if bit == "1":
            h0, h1, h2 = h
            h = (F.neg(mul(B, h2)), sub(h0, mul(A, h2)), h1)
    return h


def _order_class(F, A, B):
    """(res, mod) with #E(F_q) = res (mod mod) for E: y^2 = x^3 + Ax + B.

    The F_q-roots of g = x^3 + Ax + B are the x-coordinates of the points of
    order 2 (Sutherland, "Order computations in generic groups", MIT thesis
    2007, ch. 4).  No root: #E is odd.  Three roots: E[2] is rational, so
    4 | #E.  One root e: the 2-part of E(F_q) is cyclic, and 4 | #E exactly
    when (e, 0) is halvable, that is when g'(e) is a square.  The roots are
    those of gcd(x^q - x, g); over F_{p^2}, x^q = sum frob(h_i) h^i mod g
    with h = x^p mod g.
    """
    h = _x_power_mod_cubic(F, A, B, F.p)
    if F.q != F.p:
        f0, f1, f2 = map(F.frobenius, h)
        hh = _cubic_mulmod(F, h, h, A, B)
        h = [F.add(F.mul(f1, u), F.mul(f2, v)) for u, v in zip(h, hh)]
        h[0] = F.add(h[0], f0)
    # r = x^q - x mod g: zero when g splits, else gcd(g, r) has degree <= 1
    r0, r1, r2 = h[0], F.sub(h[1], F.one), h[2]
    if F.is_zero(r0) and F.is_zero(r1) and F.is_zero(r2):
        return 0, 4
    if not F.is_zero(r2):
        # gcd(g, r) = gcd(r, g mod r), and g mod r is linear
        inv = F.inv(r2)
        u0, u1 = F.mul(r0, inv), F.mul(r1, inv)
        r0 = F.add(F.mul(u1, u0), B)
        r1 = F.add(F.sub(F.mul(u1, u1), u0), A)
    if not F.is_zero(r1):
        # the one candidate root; every root of g in F_q is a root of r
        e = F.neg(F.mul(r0, F.inv(r1)))
        if F.is_zero(F.add(F.mul(e, F.add(F.mul(e, e), A)), B)):
            slope = F.add(F.smul(3, F.mul(e, e)), A)
            return (0 if F.is_square(slope) else 2), 4
    return 1, 2


def _crt(a, b):
    """The pair (r, m) with x = r (mod m) exactly when x = a[0] (mod a[1])
    and x = b[0] (mod b[1]); None when the two classes are disjoint."""
    (r1, m1), (r2, m2) = a, b
    g = math.gcd(m1, m2)
    if (r2 - r1) % g:
        return None
    m = m1 // g * m2
    k = (r2 - r1) // g * pow(m1 // g, -1, m2 // g) % (m2 // g)
    return (r1 + m1 * k) % m, m


def _width(terms):
    """Lanes for a walk of terms points: the least power of two >= terms, capped at LANES."""
    return min(LANES, 1 << (terms - 1).bit_length())


def _baby_rounds(n):
    """Rounds of LANES baby steps that a walk over n consecutive multiples
    needs to reach isqrt(n/2), and so at most about sqrt(n/2) giant windows."""
    return math.isqrt(n // 2) // LANES + 1


def _baby_steps(curve: _Curve, Q, s: int, width: int):
    """(n, baby, baby_y, sQ) from the walk jQ, j = 0..s, in rounds of width.

    Lane k of the round from j0 holds (j0 + k)*Q, so the first round starts
    at the identity, and the last one stops at s.  Scanning j upwards, the
    first j with y(jQ) = 0 or with x(jQ) already in the table is j = ceil(n/2)
    for n = ord(Q), and it reveals n: 2jQ = O, or jQ = -iQ with i + j = n.
    No event up to s means n > 2s, and then n is 0, baby maps x(jQ) to j,
    baby_y[j] is y(jQ) and sQ = s*Q.
    """
    F = curve.F
    lanes, step = curve.progression(None, Q, width)
    baby, baby_y = {}, [None]
    for j0 in range(0, s + 1, width):
        if j0:
            lanes = curve.advance(lanes[:s + 1 - j0], step)
        for j, R in enumerate(lanes, j0):
            if j == 0:
                continue
            x, y = R
            if F.is_zero(y):
                return 2 * j, None, None, None
            if x in baby:
                return baby[x] + j, None, None, None
            baby[x] = j
            baby_y.append(y)
    return 0, baby, baby_y, lanes[-1]


def _two_smallest(cls, lo: int, hi: int):
    """The two smallest members of the class cls = (r, m) in [lo, hi], None
    in place of missing ones (both None when cls is None)."""
    if cls is None:
        return None, None
    r, m = cls
    first = lo + (r - lo) % m
    if first > hi:
        return None, None
    return first, first + m if first + m <= hi else None


def _multiples_in_interval(curve: _Curve, P, lo: int, hi: int, res: int = 0, mod: int = 1):
    """The two smallest m in [lo, hi] with m = res (mod mod) and m*P = identity
    (the second may be None), by baby-step/giant-step over that class.

    Those m form one class modulo lcm(ord(P), mod), so the smallest two are
    that far apart.  With m0 the least class member >= lo, the walk solves
    (m0 + mod*k)*P = O for k in [0, K], stepping Q = mod*P.  The baby table
    maps x(jQ) to j for j = 1..s; since x(jQ) = x(-jQ), one lookup tests
    both c - j and c + j for a giant centre c, and a y comparison picks the
    one that solves.  Baby and giant steps each run in _width lanes, one
    batched inversion per round (_Curve.advance), the last round cut short.
    """
    m0 = _two_smallest((res, mod), lo, hi)[0]
    if m0 is None:
        return None, None
    K = (hi - m0) // mod
    Q = curve.mul(mod, P) if mod > 1 else P
    # s >= isqrt((K + 1)/2), and every point of a first round is a baby step
    terms = math.isqrt((K + 1) // 2) + 1
    width = _width(terms)
    s = max(terms, width) - 1
    if Q is None:
        order = 1
    else:
        order, baby, baby_y, sQ = _baby_steps(curve, Q, s, width)
    if order:
        # ord(P) = ord(Q) * gcd(ord(P), mod): the least d | mod that kills P
        d = next(d for d in range(1, mod + 1) if mod % d == 0
                 and (d == mod or curve.mul(order * d, P) is None))
        return _two_smallest(_crt((0, order * d), (res, mod)), lo, hi)
    # giant centres c = s + i*(2s + 1): each window [c - s, c + s] holds at
    # most one solution k (they are ord(Q) > 2s apart), and the windows run
    # upwards from k = 0
    stride = 2 * s + 1
    windows = K // stride + 1
    G = curve.add(curve.add(sQ, sQ), Q)
    width = _width(windows)
    lanes, step = curve.progression(curve.mul(m0 + mod * s, P), G, width)
    found = []
    for i0 in range(0, windows, width):
        if i0:
            lanes = curve.advance(lanes[:windows - i0], step)
        # lanes of a first round wider than the walk only find k > K
        for i, R in enumerate(lanes, i0):
            c = s + i * stride
            if R is None:
                k = c
            else:
                j = baby.get(R[0])
                k = None if j is None else c - j if R[1] == baby_y[j] else c + j
            if k is not None and k <= K:
                found.append(m0 + mod * k)
                if len(found) == 2:
                    return found[0], found[1]
    return (*found, None, None)[:2]


def group_order_bsgs(model: Genus1Model, rng=None) -> int:
    """#E(F_q) by interleaved order-finding on the curve and its twist.

    N = #E(F_q) mod 2, and in most cases mod 4, is read off the roots of the
    cubic (_order_class); the twist's count 2q + 2 - N lies in the same
    class.  Random points on each side are then searched over that class
    only: the class members in the Hasse interval that kill the point form
    one residue class, which is merged into what is known of N by the CRT.
    The order is pinned once a single candidate N in the interval remains.
    Uniqueness is guaranteed for q > MESTRE_BOUND, the only fields lpoly1
    sends here.  Where the walk over the whole interval has fewer than
    CLASS_FROM_ROUNDS baby rounds, it searches that whole interval instead.
    """
    if rng is None:
        rng = random.Random()
    F = model.field
    q = F.q
    if model.degree != 3:
        raise DegreeError("group order search expects a cubic model")
    A, B = _to_short_weierstrass(model)
    d = F.nonsquare(rng)
    d2 = F.mul(d, d)
    curves = (
        _Curve(F, A, B),
        _Curve(F, F.mul(A, d2), F.mul(B, F.mul(d2, d))),
    )
    t0 = math.isqrt(4 * q)
    lo, hi = q + 1 - t0, q + 1 + t0
    target = 2 * q + 2
    # q is odd, so 4 | 2q + 2 and the twist's count shares N's class
    wide = _baby_rounds(hi - lo + 1) >= CLASS_FROM_ROUNDS
    known = cls = _order_class(F, A, B) if wide else (0, 1)
    for trial in range(MAX_POINTS):
        side = trial % 2
        curve = curves[side]
        P = curve.random_point(rng)
        first, second = _multiples_in_interval(curve, P, lo, hi, *cls)
        if first is None:
            raise AmbiguousOrder("point order has no multiple in the interval")
        if second is None:
            return target - first if side else first
        known = _crt(known, (target - first if side else first, second - first))
        first, second = _two_smallest(known, lo, hi)
        if first is None:
            raise AmbiguousOrder("inconsistent order residues")
        if second is None:
            return first
    raise AmbiguousOrder(f"order not pinned after {MAX_POINTS} points")


def lpoly1(model: Genus1Model, rng=None) -> LPoly1:
    """Trace of Frobenius for the model, counting by the method its field
    calls for.

    Exhaustive counting for F_p with p < FP_EXHAUSTIVE_BELOW and for
    F_{p^2} with q < FP2_EXHAUSTIVE_BELOW; otherwise BSGS on a cubic model,
    which quartics reach by reversal when g(0) = 0 and through the quartic
    invariants otherwise.
    """
    F = model.field
    q = F.q
    if q < (FP2_EXHAUSTIVE_BELOW if isinstance(F, Fp2) else FP_EXHAUSTIVE_BELOW):
        return LPoly1(q + 1 - count_points_naive(model), q)
    cubic = model
    if model.degree == 4:
        if F.is_zero(model.g[0]):
            cubic = quartic_to_cubic(model)
        else:
            cubic = quartic_jacobian(model)
    return LPoly1(q + 1 - group_order_bsgs(cubic, rng), q)
