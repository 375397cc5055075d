"""L-polynomials of genus 1 curves y^2 = g(x) over F_p and F_{p^2}.

The field size alone picks the counting method (lpoly1): exhaustive
character sums through the kernels module for q < EXHAUSTIVE_BELOW, over
F_p and F_{p^2} alike, baby-step/giant-step order-finding on the curve and
its quadratic twist everywhere else.  lpoly1 takes cubic models only;
quartic_to_cubic and quartic_jacobian turn a quartic into one.
The F_q-roots of the cubic fix #E mod 2, and in most cases mod 4; those of
the 3-division polynomial fix #E mod 3 in most cases, each read off x^q
modulo that polynomial and one field_gcd.  BSGS searches only that class of
the Hasse interval, mod up to 12, wherever the interval is wide enough for
reading it to pay; in narrower ones a nonsquare discriminant still makes #E
even.  Its random points take no square root: each lies on the twist of E
by a random w, which is E or its quadratic twist as w is a square or not.
Multiples of a point share its doubling chain, so the giant walk steps by
the doublings that its start a*G made.  Genus1Model and LPoly1 are
immutable named tuples whose constructors check the model and the Hasse
bound; Genus1Model's is the one separability check of a genus 1 curve,
which eulercore relies on for every curve its descents find.
"""

import math
import random
from collections import namedtuple

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
from .polyring import field_disc, field_gcd, fp2_trim, reduce_mod

DEFAULT_NAIVE_LIMIT = 1 << 16
# Counting is exhaustive below q = EXHAUSTIVE_BELOW, over F_p and F_{p^2}
# alike.  Median ms per count, 20 random cubics and 20 quartics per prime
# (README, "Point counting"): over F_p the kernel costs 0.05-0.09 against
# BSGS 0.08-0.12 at p = 8191, and 0.19-0.22 against 0.09-0.11 at 16381;
# over F_{p^2}, with p^2 evaluations, 0.05-0.06 against 0.09-0.11 at p = 31,
# and the two break even near p = 67-73, BSGS leading from 79 up to the
# bound's last prime, 89.  The bound sits at the F_p crossover, 2^13.
EXHAUSTIVE_BELOW = 1 << 13
# Above q = 229, E or its quadratic twist has a point whose order has only
# one multiple in the Hasse interval (Mestre for prime q; Cremona and
# Sutherland, "On a theorem of Mestre and Schoof", JTNB 2010, for every q),
# so group_order_bsgs can pin the order there.  The exhaustive band exceeds
# the bound, so BSGS stays exact, and characteristic 3, which BSGS cannot
# take, is always counted exhaustively.
MESTRE_BOUND = 229
# Baby and giant steps advance in up to LANES independent lanes.  A round of
# lane additions is one F.chord_round on raw ints with one inversion (over
# F_{p^2}, of the F_p norms); more lanes spread it thinner.  A power of two,
# because _Curve.walk builds its first round by doubling and then steps by
# the doubled last step; a walk of fewer points takes one lane per point,
# and a walk's last round stops at its last point.
LANES = 32
# Random points group_order_bsgs tries, each on the curve or its twist as
# chance falls (_twist_point), before it gives up with AmbiguousOrder.
MAX_POINTS = 48
# Reading #E mod 2 or 4 (_order_class) costs a power x^q mod the cubic,
# about log2(p) squarings, and a gcd; mod 3 (_three_class), the same mod a
# quartic.  Per-call medians of group_order_bsgs with each read on against
# off, 16 random cubics per log2 q (2^20 to 2^25 for mod 4, 2^26 to 2^32
# for mod 3), F_p and F_{p^2} alike, grouped by the baby rounds of the walk over the whole interval:
# the class mod 4, against the parity that the discriminant gives, lost
# 2-4% at two rounds and paid 2-4% at three and 6% at four.  The class mod
# 3 lost 3-4% over F_p and 8-13% over F_{p^2} at four and five rounds,
# broke even at six over F_p and at seven and eight over F_{p^2}, and paid
# 5-8% from seven rounds over F_p and 2-13% from nine over F_{p^2}.
CLASS_FROM_ROUNDS = 3
THREE_FROM_ROUNDS = 8


class Genus1Model(namedtuple("Genus1Model", "field g")):
    """A squarefree cubic or quartic y^2 = g(x) over F_p or F_{p^2} (field
    an Fp or Fp2); g is kept reduced and trimmed.  A cubic is tested by its
    closed-form discriminant, a quartic by gcd(g, g'), exact at odd p."""

    __slots__ = ()

    def __new__(cls, field, g):
        if isinstance(field, Fp2):
            g = fp2_trim([(c0 % field.p, c1 % field.p) for c0, c1 in g], field)
        else:
            g = reduce_mod(g, field.p)
        d = len(g) - 1
        if d not in (3, 4):
            raise DegreeError(f"genus 1 model needs degree 3 or 4, got {d}")
        if d == 3:
            singular = field.is_zero(field_disc(g, field))
        else:  # g' keeps degree 3, as 4 lc != 0 at odd p
            dg = [field.smul(i, c) for i, c in enumerate(g)][1:]
            singular = len(field_gcd(g, dg, field)) > 1
        if singular:
            raise NotSquarefree("singular genus 1 model")
        return super().__new__(cls, field, g)

    @property
    def degree(self):
        return len(self.g) - 1


class LPoly1(namedtuple("LPoly1", "a q")):
    """1 - a*T + q*T^2 for a genus 1 curve over a field of size q."""

    __slots__ = ()

    def __new__(cls, a, q):
        if a * a > 4 * q:
            raise HasseViolation(f"|{a}| > 2*sqrt({q})")
        return super().__new__(cls, a, q)


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
        if P is None or Q is None:
            return Q if P is None else P
        return self.F.ec_add(P, Q, self.A)

    def doubled(self, chain, i):
        """2^i*P for chain = [P, 2P, 4P, ...], grown by doubling to index i:
        a caller that keeps chain pays for each doubling once."""
        while len(chain) <= i:
            chain.append(self.add(chain[-1], chain[-1]))
        return chain[i]

    def mul(self, k, chain):
        """k*P for chain = [P, 2P, ...] by double-and-add."""
        R = None
        for i in range(k.bit_length()):
            if k >> i & 1:
                R = self.add(R, self.doubled(chain, i))
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
        chords = iter(self.F.chord_round([Q for Q, ok in zip(lanes, plain) if ok], xs, ys)
                      if any(plain) else ())
        return [next(chords) if ok else self.add(Q, step) for Q, ok in zip(lanes, plain)]

    def walk(self, start, chain, n):
        """The rounds (k0, lanes), lanes[k] = start + (k0 + k)*step for k0 + k
        < n, chain = [step, 2step, ...], each computed when it is asked for.
        The first, of min(n, LANES) lanes, takes one batched round per
        doubling, the one from 2^i lanes stepping by doubled(chain, i); each
        later round steps every lane by LANES*step, the last one cut short."""
        width = min(n, LANES)
        lanes = [start]
        while len(lanes) < width:
            step = self.doubled(chain, len(lanes).bit_length() - 1)
            lanes += self.advance(lanes[:width - len(lanes)], step)
        yield 0, lanes
        for k0 in range(LANES, n, LANES):
            lanes = self.advance(lanes[:n - k0], self.doubled(chain, LANES.bit_length() - 1))
            yield k0, lanes


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


def _frobenius_roots(F, m, h):
    """gcd(m, x^q - x) for a monic m given by its lower coefficients and
    h = x^q mod m: the product of x - r over the F_q-roots r of m."""
    return field_gcd([*m, F.one], [h[0], F.sub(h[1], F.one), *h[2:]], F)


def _order_class(F, A, B):
    """(res, mod) with #E(F_q) = res (mod mod) for E: y^2 = x^3 + Ax + B.

    The F_q-roots of g = x^3 + Ax + B are the x-coordinates of the points of
    order 2 (Sutherland, "Order computations in generic groups", MIT thesis
    2007, ch. 4).  No root: #E is odd.  Three roots: E[2] is rational, so
    4 | #E.  One root e: the 2-part of E(F_q) is cyclic, and 4 | #E exactly
    when (e, 0) is halvable, that is when g'(e) is a square.  x^q is read
    mod g itself, F.xq_mod's cubic shape.
    """
    G = _frobenius_roots(F, (B, A, F.zero), F.xq_mod((B, A)))
    if len(G) == 4:
        return 0, 4
    if len(G) == 2:
        e = F.neg(G[0])
        return (0 if F.is_square(F.add(F.smul(3, F.mul(e, e)), A)) else 2), 4
    return 1, 2


def _three_class(F, A, B):
    """(res, 3) with #E(F_q) = res (mod 3) for E: y^2 = x^3 + Ax + B, or
    None where the 3-division polynomial leaves it open.

    The roots of psi_3 = 3x^4 + 6Ax^2 + 12Bx - A^2 are the x-coordinates of
    the points of order 3 (Schoof, Math. Comp. 44, 1985): of E where g(x0)
    is a square, else of the twist, with N' = 2q + 2 - N points.  Frobenius
    fixes none or two of the four lines of E[3] for q = 2 (mod 3), where
    N = -N' (mod 3), and none, one or four for q = 1 (mod 3), where no root
    leaves N = 2, one gives N = 0 or N' = 0, and four leave N open.
    """
    m = (F.neg(F.mul(F.mul(A, A), F.inv(F.from_int(3)))), F.smul(4, B), F.smul(2, A))
    G = _frobenius_roots(F, (*m, F.zero), F.xq_mod(m))
    if F.q % 3 == 2:
        return (0, 3) if len(G) > 1 else None
    if len(G) == 1:
        return 2, 3
    if len(G) == 2:
        x0 = F.neg(G[0])
        on_e = F.is_square(F.add(F.mul(x0, F.add(F.mul(x0, x0), A)), B))
        return (0 if on_e else (2 * F.q + 2) % 3), 3
    return None


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


def _baby_rounds(n):
    """Rounds of LANES baby steps that a walk over n consecutive multiples
    needs to reach isqrt(n/2), and so at most about sqrt(n/2) giant windows."""
    return math.isqrt(n // 2) // LANES + 1


def _baby_steps(curve: _Curve, Q, s: int):
    """(n, baby, pts) from the walk jQ, j = 0..s (_Curve.walk from the
    identity), with n = 1 for Q the identity.

    Scanning j upwards, the first j with y(jQ) = 0 or with x(jQ) already in
    the table is j = ceil(n/2) for n = ord(Q), and it reveals n: 2jQ = O, or
    jQ = -iQ with i + j = n.  No event up to s means n > 2s, and then n is 0,
    baby maps x(jQ) to j and pts[j] is jQ (pts[0] the identity None).
    """
    if Q is None:
        return 1, None, None
    zero = curve.F.zero
    baby, pts = {}, [None]
    for j0, lanes in curve.walk(None, [Q], s + 1):
        for j, R in enumerate(lanes, j0):
            if j == 0:
                continue
            x, y = R
            if y == zero:
                return 2 * j, None, None
            if x in baby:
                return baby[x] + j, None, None
            baby[x] = j
            pts.append(R)
    return 0, baby, pts


def _giant_start(curve: _Curve, chain_p, m0: int, mod: int, pts, chain_g):
    """(m0 + mod*s)*P for pts[j] = jQ, j = 0..s, Q = mod*P, G = (2s + 1)*Q and
    the doubling chains chain_p = [P, 2P, ...] and chain_g = [G, 2G, ...].

    It is (m0 % mod)*P + a*G + b*Q with (a, b) = divmod(m0 // mod + s, 2s + 1),
    b folded into [-s, s] so that b*Q is +-pts[|b|]: the one long scalar
    multiplication, a*G, is log2(mod*(2s + 1)) bits shorter, and it leaves
    chain_g grown to a's top bit, where the giant walk reads its steps.
    """
    s = len(pts) - 1
    a, b = divmod(m0 // mod + s, 2 * s + 1)
    if b > s:
        a, b = a + 1, b - 2 * s - 1
    R = pts[abs(b)]
    if b < 0:
        R = (R[0], curve.F.neg(R[1]))
    return curve.add(curve.add(curve.mul(m0 % mod, chain_p), curve.mul(a, chain_g)), R)


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
    one that solves.  Baby and giant steps each run through _Curve.walk, one
    batched inversion per round of up to LANES points.  The giant walk starts
    from _giant_start, off the baby table, and steps by its chain.
    """
    m0 = _two_smallest((res, mod), lo, hi)[0]
    if m0 is None:
        return None, None
    K = (hi - m0) // mod
    chain_p = [P]  # one doubling chain for every multiple of P below
    Q = curve.mul(mod, chain_p) if mod > 1 else P
    s = math.isqrt((K + 1) // 2)
    order, baby, pts = _baby_steps(curve, Q, s)
    if order:
        # ord(P) = ord(Q) * gcd(ord(P), mod): the least d | mod that kills P
        d = next(d for d in range(1, mod + 1) if mod % d == 0
                 and (d == mod or curve.mul(order * d, chain_p) is None))
        return _two_smallest(_crt((0, order * d), (res, mod)), lo, hi)
    # giant centres c = s + i*(2s + 1): each window [c - s, c + s] holds at
    # most one solution k (they are ord(Q) > 2s apart), and the windows run
    # upwards from k = 0
    stride = 2 * s + 1
    windows = K // stride + 1
    chain_g = [curve.add(curve.add(pts[s], pts[s]), Q)]
    start = _giant_start(curve, chain_p, m0, mod, pts, chain_g)
    found = []
    for i0, lanes in curve.walk(start, chain_g, windows):
        # the last window may reach past K
        for i, R in enumerate(lanes, i0):
            c = s + i * stride
            if R is None:
                k = c
            else:
                j = baby.get(R[0])
                k = None if j is None else c - j if R[1] == pts[j][1] else c + j
            if k is not None and k <= K:
                found.append(m0 + mod * k)
                if len(found) == 2:
                    return found[0], found[1]
    return (*found, None, None)[:2]


def _twist_point(F, A, B, rng):
    """(side, curve, P): a random point P, taken without a square root, on
    curve: y^2 = x^3 + Aw^2 x + Bw^3, the twist of E: y^2 = x^3 + Ax + B by w.

    For a random x with w = x^3 + Ax + B != 0, P = (xw, w^2), since
    (xw)^3 + Aw^2 xw + Bw^3 = w^4.  The twist by w is E itself (side 0) when
    w is a square, and E's quadratic twist (side 1), with 2q + 2 - #E
    points, when it is not.
    """
    while True:
        x = F.random(rng)
        w = F.add(F.mul(x, F.add(F.mul(x, x), A)), B)
        if not F.is_zero(w):
            break
    w2 = F.mul(w, w)
    curve = _Curve(F, F.mul(A, w2), F.mul(B, F.mul(w2, w)))
    return (0 if F.is_square(w) else 1), curve, (F.mul(x, w), w2)


def group_order_bsgs(model: Genus1Model, rng=random) -> int:
    """#E(F_q) by interleaved order-finding on the curve and its twist.

    N = #E(F_q) mod 2, and in most cases mod 4, is read off the roots of the
    cubic (_order_class) from CLASS_FROM_ROUNDS baby rounds of the walk over
    the whole Hasse interval, and N mod 3, in most cases, off those of psi_3
    (_three_class) from THREE_FROM_ROUNDS, over F_p and F_{p^2} alike.
    Below CLASS_FROM_ROUNDS a nonsquare discriminant -4A^3 - 27B^2 still
    makes N even: the cubic then has exactly one root in F_q (Stickelberger).
    The twist's count 2q + 2 - N has the class 2q + 2 - res: N's class mod
    4, but not mod 3.  Each random point (_twist_point) lies on E or on its
    twist, as the character of its w says, and is searched over that side's
    class: the members in the interval that kill the point form one residue
    class, merged into what is known of N by the CRT, until one candidate N
    remains.  It is unique for q > MESTRE_BOUND, the fields lpoly1 sends here.
    """
    F = model.field
    q = F.q
    if model.degree != 3:
        raise DegreeError("group order search expects a cubic model")
    A, B = _to_short_weierstrass(model)
    t0 = math.isqrt(4 * q)
    lo, hi = q + 1 - t0, q + 1 + t0
    target = 2 * q + 2
    rounds = _baby_rounds(hi - lo + 1)
    if rounds >= CLASS_FROM_ROUNDS:
        known = _order_class(F, A, B)
    else:
        disc = F.neg(F.add(F.smul(4, F.mul(A, F.mul(A, A))), F.smul(27, F.mul(B, B))))
        known = (0, 1) if F.is_square(disc) else (0, 2)
    if rounds >= THREE_FROM_ROUNDS:
        known = _crt(known, _three_class(F, A, B) or (0, 1))
    classes = (known, ((target - known[0]) % known[1], known[1]))
    for _ in range(MAX_POINTS):
        side, curve, P = _twist_point(F, A, B, rng)
        first, second = _multiples_in_interval(curve, P, lo, hi, *classes[side])
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


def lpoly1(model: Genus1Model, rng=random) -> LPoly1:
    """Trace of Frobenius for a cubic model, counting by the method its
    field size calls for.

    Exhaustive counting for q < EXHAUSTIVE_BELOW, BSGS above.  A quartic
    raises DegreeError at every field size.
    """
    if model.degree != 3:
        raise DegreeError("lpoly1 expects a cubic model")
    q = model.field.q
    if q < EXHAUSTIVE_BELOW:
        return LPoly1(q + 1 - count_points_naive(model), q)
    return LPoly1(q + 1 - group_order_bsgs(model, rng), q)
