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
Walks read x only, two points per shared denominator around a centre, and
multiples of a point share its doubling chain.  Genus1Model and LPoly1 are
immutable named tuples whose constructors check the model and the Hasse
bound; Genus1Model's is the one separability check of a genus 1 curve,
which eulercore relies on for every curve its descents find.
"""

import math
import random
from collections import namedtuple
from functools import partial

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
# The table of a walk block (_Curve.walk): x(C +- i*step) for i = 1..LANES
# share one inversion (over F_{p^2}, of the F_p norms), and the first
# LANES + 1 points, built by doubling, are the table itself.
LANES = 32
# Random points group_order_bsgs tries, each on the curve or its twist as
# chance falls (_twist_point), before it gives up with AmbiguousOrder.
MAX_POINTS = 48
# Reading #E mod 2 or 4 (_order_class) costs a power x^q mod the cubic,
# about log2(p) squarings, and a gcd; mod 3 (_three_class), the same mod a
# quartic.  Per-call medians of group_order_bsgs, each read on against off,
# 32 random cubics per size, by the blocks of a baby walk (_Curve.walk) over
# the whole interval: the class mod 4, against the discriminant's parity,
# lost 1-8% over F_{p^2} at two blocks (F_p: -5% to +6%), broke even over
# F_{p^2} at three (F_p paid 2-3%) and paid 2-4% from four.  The class mod
# 3 lost up to 6% over F_p and 14% over F_{p^2} at four to six blocks,
# broke even at six and seven over F_p and at seven and eight over
# F_{p^2}, and paid 5-8% over F_p from eight and 4-7% over F_{p^2} from nine.
CLASS_FROM_BLOCKS = 3
THREE_FROM_BLOCKS = 8


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

    def neg(self, P):
        return P and (P[0], self.F.neg(P[1]))

    def at(self, C, table, c, k):
        """C + (k - c)*step for table = [step, 2step, ...], |k - c| <= len(table)."""
        T = table[abs(k - c) - 1] if k != c else None
        return self.add(C, T if k >= c else self.neg(T))

    def lanes(self, start, chain, n):
        """[start + k*step for k < n], chain = [step, 2step, ...]: 2^i*step
        plus the points before it, one F.pm_round per doubling; add takes a
        lone point, and sums with no chord (the identity, or P = +-2^i*step)."""
        pts = [start]
        while len(pts) < n:
            S = self.doubled(chain, len(pts).bit_length() - 1)
            new = [S] if start is None else []
            head = pts[len(new):n - len(pts)]
            got = S and len(head) > 1 and None not in head and self.F.pm_round(None, (), head, S)
            pts += new + (got[2] if got else [self.add(P, S) for P in head])
        return pts

    def walk(self, start, chain, n):
        """start + k*step for k < n, chain = [step, 2step, ...], in blocks
        made as they are asked for: yields (k0, xs, point), xs the x of the
        points from k0 on (None for the identity), point(k) the point at k.
        The first block is lanes: all of a walk of up to 2*LANES + 1, or
        else LANES + 1 from the identity.  The others are x(C +- T)
        around centres C for the table T = step..LANES*step (the lanes from
        the identity; from a point, the first C is start + LANES*step), one
        F.pm_round that also steps to the next centre; the last is centred
        on what is left.  A block with no chord for a pair or for the step
        (the identity, or C = +-T) goes through add."""
        if start is None or n <= 2 * LANES + 1:
            pts = self.lanes(start, chain, n if n <= 2 * LANES + 1 else LANES + 1)
            yield 0, [R and R[0] for R in pts], pts.__getitem__
            if len(pts) == n:
                return
            table, C, c = pts[1:], None, 0
        else:
            table = self.lanes(None, chain, LANES + 1)[1:]
            C, c = self.add(start, table[-1]), LANES
        h, x, D, moved = len(table), lambda R: R and R[0], None, []
        seen, w = set(map(x, table)), h
        while True:
            k1, S = min(n, c + w + 1), None
            if k1 < n:  # the next block's half width u, and the step to its centre
                u = min(h, (n - k1) // 2)
                D = D or u == h and self.add(table[-1], self.add(table[-1], table[0]))
                S = D if u == h else self.add(table[-1], table[u])
            if c:  # from the identity, block 0 is the lanes
                if not w or C is None or None in seen or C[0] in seen:
                    plus = [x(self.add(C, T)) for T in table[:w]]
                    minus, moved = [x(self.add(C, self.neg(T))) for T in table[:w]], []
                else:
                    plus, minus, moved = self.F.pm_round(
                        C, table[:w], [C] if S and C[0] != S[0] else [], S)
                xs = minus[::-1] + [x(C)] + plus
                yield c - w, xs[:k1 - c + w], partial(self.at, C, table, c)
            if k1 == n:
                return
            C = moved[0] if moved else self.add(C, S)
            c, w = c + w + 1 + u, u


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


def _baby_steps(curve: _Curve, Q, s: int):
    """(n, baby, point) from the walk jQ, j = 0..s + 1, n = 1 for Q = O.

    Scanning j upwards, the first j with x(jQ) already in the table (the
    identity's None at j = 0 included) meets jQ = -iQ and reveals ord(Q) =
    i + j: at j = (n + 1)/2 for odd n, n/2 + 1 for even n, one past the
    2-torsion point.  No event means n > 2s + 1, and then n is 0, baby maps
    x(jQ) to j for j <= s, and point(j) = jQ for |j| <= s + 1.
    """
    if Q is None:
        return 1, None, None
    baby, blocks = {}, []
    for k0, xs, at in curve.walk(None, [Q], s + 2):
        blocks.append(at)
        if baby.keys().isdisjoint(xs) and len(set(xs)) == len(xs):
            baby.update(zip(xs, range(k0, k0 + len(xs))))
            continue
        for j, x in enumerate(xs, k0):
            if x in baby:
                return baby[x] + j, None, None
            baby[x] = j
    del baby[xs[-1]]  # j = s + 1

    def point(j):
        R = blocks[min((abs(j) + LANES) // (2 * LANES + 1), len(blocks) - 1)](abs(j))
        return R if j >= 0 else curve.neg(R)

    return 0, baby, point


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
    maps x(jQ) to j for j = 0..s, the identity's None to 0; since x(jQ) =
    x(-jQ), one lookup tests both c - j and c + j for a giant centre c, and
    the y of the giant point and of jQ, each from its walk block, picks
    the one that solves.  Baby and giant steps run through _Curve.walk.
    """
    m0 = _two_smallest((res, mod), lo, hi)[0]
    if m0 is None:
        return None, None
    K = (hi - m0) // mod
    chain_p = [P]  # one doubling chain for every multiple of P below
    Q = curve.mul(mod, chain_p) if mod > 1 else P
    s = math.isqrt((K + 1) // 2)
    order, baby, point = _baby_steps(curve, Q, s)
    if order:
        # ord(P) = ord(Q) * gcd(ord(P), mod): the least d | mod that kills P
        d = next(d for d in range(1, mod + 1) if mod % d == 0
                 and (d == mod or curve.mul(order * d, chain_p) is None))
        return _two_smallest(_crt((0, order * d), (res, mod)), lo, hi)
    # giant points (m0 + mod*c)*P centre windows [c - s, c + s], c = s +
    # i*(2s + 1), of one solution k at most (they are ord(Q) > 2s + 1 apart),
    # from k = 0 up.  The first is (m0 % mod)*P + a*G + b*Q, G = (2s + 1)*Q and
    # |b| <= s: a is log2(mod*(2s + 1)) bits shorter than m0, and a*G leaves
    # G's doubling chain grown, where the walk reads its steps
    stride = 2 * s + 1
    a, b = divmod(m0 // mod + s, stride)
    if b > s:
        a, b = a + 1, b - stride
    chain_g = [curve.add(point(s), point(s + 1))]
    start = curve.add(curve.add(curve.mul(m0 % mod, chain_p), curve.mul(a, chain_g)), point(b))
    found = []
    for i0, xs, at in curve.walk(start, chain_g, K // stride + 1):
        if baby.keys().isdisjoint(xs):
            continue
        for i, x in enumerate(xs, i0):
            j = baby.get(x)
            if j is None:
                continue
            k = s + i * stride
            if j:  # the identity (j = 0) is k itself
                k += -j if at(i)[1] == point(j)[1] else j
            # the last window may reach past K
            if k <= K:
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
    cubic (_order_class) from CLASS_FROM_BLOCKS baby blocks of the walk over
    the whole Hasse interval, and N mod 3, in most cases, off those of psi_3
    (_three_class) from THREE_FROM_BLOCKS, over F_p and F_{p^2} alike.
    Below CLASS_FROM_BLOCKS a nonsquare discriminant -4A^3 - 27B^2 still
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
    blocks = (math.isqrt((hi - lo + 1) // 2) + LANES) // (2 * LANES + 1) + 1
    if blocks >= CLASS_FROM_BLOCKS:
        known = _order_class(F, A, B)
    else:
        disc = F.neg(F.add(F.smul(4, F.mul(A, F.mul(A, A))), F.smul(27, F.mul(B, B))))
        known = (0, 1) if F.is_square(disc) else (0, 2)
    if blocks >= THREE_FROM_BLOCKS:
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
