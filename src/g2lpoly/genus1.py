"""L-polynomials of genus 1 curves y^2 = g(x) over F_p and F_{p^2}.

The field alone picks the counting method (lpoly1): exhaustive character
sums through the kernels module for F_p with p < FP_EXHAUSTIVE_BELOW and for
F_{p^2} with q < FP2_EXHAUSTIVE_BELOW, baby-step/giant-step order-finding on
the curve and its quadratic twist everywhere else.  BSGS runs on a cubic model;
quartics reach one by reversal (when g(0) = 0) or through the classical
quartic invariants.
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
from .modarith import Fp2, batch_inverse
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
# Baby and giant steps advance in LANES independent lanes, and each round of
# lane additions shares one field inversion.  More lanes spread it thinner
# but overshoot the interval by up to a round.  A power of two, because the
# lanes are built by doubling (_Curve.progression).
LANES = 32


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
        """[Q + step for Q in lanes] for one F.inv: the chord slopes share a
        batch inversion.  Lanes whose chord is undefined (Q = +-step, or Q the
        identity) go through add instead."""
        if step is None:
            return list(lanes)
        F = self.F
        sub, mul = F.sub, F.mul
        xs, ys = step
        plain = [Q is not None and Q[0] != xs for Q in lanes]
        dens = [sub(Q[0], xs) for Q, ok in zip(lanes, plain) if ok]
        invs = iter(batch_inverse(F, dens) if dens else ())
        out = []
        for Q, ok in zip(lanes, plain):
            if not ok:
                out.append(self.add(Q, step))
                continue
            x1, y1 = Q
            lam = mul(sub(y1, ys), next(invs))
            x3 = sub(sub(mul(lam, lam), x1), xs)
            out.append((x3, sub(mul(lam, sub(x1, x3)), y1)))
        return out

    def progression(self, start, step):
        """[start + k*step for k < LANES] and LANES*step, growing the lanes
        by doubling so that each doubling costs one batched round."""
        lanes = [start]
        while len(lanes) < LANES:
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


def _multiples_in_interval(curve: _Curve, P, lo: int, hi: int):
    """The two smallest m in [lo, hi] with m*P = identity (the second may be
    None), by baby-step/giant-step over the interval.

    All such m are the multiples of n = ord(P) in the interval, so the
    smallest two are n apart.  The baby table maps x(jP) to j for
    j = 1..s; since x(jP) = x(-jP), one lookup tests both c - j and c + j
    for a giant centre c, and a y comparison picks the one with m*P = O.
    Baby and giant steps each run in LANES lanes, one batched inversion
    per round (_Curve.advance).
    """
    F = curve.F
    rounds = math.isqrt((hi - lo + 1) // 2) // LANES + 1
    s = rounds * LANES - 1
    # baby steps: lane k of round r holds (r*LANES + k)*P, so round 0 starts
    # at the identity.  Scanning j upwards, the first j with y(jP) = 0 or
    # with x(jP) already in the table is j = ceil(n/2), and it reveals n:
    # 2jP = O, or jP = -iP with i + j = n.  No event up to s means n > 2s.
    lanes, step = curve.progression(None, P)
    baby, baby_y = {}, [None]
    order = 0
    for r in range(rounds):
        if r:
            lanes = curve.advance(lanes, step)
        for j, Q in enumerate(lanes, r * LANES):
            if j == 0:
                continue
            x, y = Q
            if F.is_zero(y):
                order = 2 * j
            elif x in baby:
                order = baby[x] + j
            if order:
                first = lo + (-lo) % order
                if first > hi:
                    return None, None
                return first, first + order if first + order <= hi else None
            baby[x] = j
            baby_y.append(y)
    # giant centres c = lo + s + i*(2s + 1): each window [c - s, c + s] holds
    # at most one multiple of n > 2s, and the windows run upwards from lo
    stride = 2 * s + 1
    G = curve.add(curve.add(lanes[-1], lanes[-1]), P)
    c = lo + s
    lanes, step = curve.progression(curve.mul(c, P), G)
    found = []
    while True:
        for Q in lanes:
            if c - s > hi:
                return (*found, None, None)[:2]
            if Q is None:
                m = c
            else:
                j = baby.get(Q[0])
                m = None if j is None else c - j if Q[1] == baby_y[j] else c + j
            if m is not None and m <= hi:
                found.append(m)
                if len(found) == 2:
                    return found[0], found[1]
            c += stride
        lanes = curve.advance(lanes, step)


def _crt_candidates(de, dt, target, lo, hi):
    """(count, smallest) for x in [lo, hi] with x = 0 (mod de) and
    x = target (mod dt); count never enumerates the solutions."""
    g = math.gcd(de, dt)
    if target % g:
        return 0, None
    l = de // g * dt
    # x = de * k with de*k = target mod dt
    dt_g = dt // g
    k0 = (target // g) * pow(de // g, -1, dt_g) % dt_g
    x0 = de * k0
    first = x0 + ((lo - x0 + l - 1) // l) * l
    if first > hi:
        return 0, None
    return (hi - first) // l + 1, first


def group_order_bsgs(model: Genus1Model, rng=None, max_points: int = 48) -> int:
    """#E(F_q) by interleaved order-finding on the curve and its twist.

    Random points on each side contribute their order (recovered from the
    multiples of the point killed inside the Hasse interval) to a pair of
    moduli; the order is pinned once a unique candidate N in the interval
    satisfies N = 0 mod d_E and 2q + 2 - N = 0 mod d_twist.  Uniqueness is
    guaranteed for q > MESTRE_BOUND, the only fields lpoly1 sends here.
    """
    if rng is None:
        rng = random.Random()
    F = model.field
    q = F.q
    if model.degree != 3:
        raise DegreeError("group order search expects a cubic model")
    A, B = _to_short_weierstrass(model)
    d = F.random_nonsquare(rng)
    d2 = F.mul(d, d)
    curves = (
        _Curve(F, A, B),
        _Curve(F, F.mul(A, d2), F.mul(B, F.mul(d2, d))),
    )
    t0 = math.isqrt(4 * q)
    lo, hi = q + 1 - t0, q + 1 + t0
    target = 2 * q + 2
    mods = [1, 1]
    for trial in range(max_points):
        side = trial % 2
        curve = curves[side]
        P = curve.random_point(rng)
        first, second = _multiples_in_interval(curve, P, lo, hi)
        if first is None:
            raise AmbiguousOrder("point order has no multiple in the interval")
        if second is None:
            return first if side == 0 else target - first
        order = second - first
        mods[side] = mods[side] * order // math.gcd(mods[side], order)
        count, smallest = _crt_candidates(mods[0], mods[1], target, lo, hi)
        if count == 1:
            return smallest
        if count == 0:
            raise AmbiguousOrder("inconsistent order residues")
    raise AmbiguousOrder(f"order not pinned after {max_points} points")


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
