"""Model normalization at p and classification into the four reduction types.

A sextic f is p-normalized when v_p(f6) = min_i v_p(f_i) <= 1 and the six
roots do not all collide modulo p (outer depth zero).  Every squarefree
quintic or sextic over Z is brought to this shape by a Q-isomorphism that
preserves the curve, after which the repeated-factor pattern of f mod p
decides which of the four types applies.
"""

import enum
from dataclasses import dataclass

from .errors import (
    DegreeError,
    GoodReduction,
    InexactDivision,
    NotAlmostGood,
    NotSquarefree,
)
from .modarith import Fp, check_odd_prime_modulus, legendre
from .polyring import (
    deg,
    disc,
    fp_derivative,
    fp_disc,
    fp_eval,
    fp_divmod,
    fp_gcd,
    fp_gcd_k,
    fp_mul,
    fp_scale,
    min_vp,
    poly_divide_exact_pk,
    poly_eval,
    power_root,
    reduce_mod,
    reverse6,
    shift_scale,
    taylor_shift,
    trim,
    vp,
)


class ClusterType(enum.Enum):
    T1 = "1"
    T2A = "2a"
    T2B = "2b"
    T4 = "4"


@dataclass(frozen=True)
class PNormalized:
    """A p-normalized sextic model, with v = v_p of its leading coefficient
    and vdisc = v_p(disc) of the unit-leading part ftilde(); vdisc + 1 is
    the default iteration cap of the cluster descents."""

    f: tuple
    p: int
    v: int
    vdisc: int

    def ftilde(self):
        """The unit-leading part p^(-v) f."""
        return poly_divide_exact_pk(self.f, self.p, self.v)


def p_normalize(f, p: int) -> PNormalized:
    """Replace y^2 = f(x) by a Q-isomorphic p-normalized model.

    Quintics are first shifted off a root of f and reversed into sextics.
    Valuation rebalancing then forces v_p(f6) = min_i v_p(f_i) <= 1, and a
    recentering loop divides out the common p-adic root approximation until
    the outer depth reaches zero.
    """
    f = trim(f)
    if deg(f) not in (5, 6):
        raise DegreeError(f"need a quintic or sextic, got degree {deg(f)}")
    check_odd_prime_modulus(p)
    if deg(f) == 5:
        for a in range(7):
            if poly_eval(f, a) != 0:
                break
        else:
            raise NotSquarefree("quintic vanishes at seven points")
        if a:
            f = taylor_shift(f, a)
        f = reverse6(f)
    d_f = disc(f)
    if d_f == 0:
        raise NotSquarefree("discriminant vanishes")
    vdisc = vp(d_f, p)

    v = vp(f[6], p)
    e = 0
    w = 0
    if v > 1 or v != min_vp(f, p):
        e = max(
            -((vp(f[i], p) - v) // (6 - i)) for i in range(6) if f[i] != 0
        )  # ceil((v - v_p(f_i)) / (6 - i))
        w = 2 * (v // 2)
        scaled = []
        for i, c in enumerate(f):
            k = 6 * e - w - i * e
            if c == 0:
                scaled.append(0)
            elif k >= 0:
                scaled.append(c * p**k)
            else:
                q, r = divmod(c, p ** (-k))
                if r:
                    raise InexactDivision("rebalancing produced a non-integer")
                scaled.append(q)
        f = trim(scaled)
        v = vp(f[6], p)

    h = poly_divide_exact_pk(f, p, v)
    # v_p(disc) tracks the rescalings exactly: disc(p^a f(x/p^e)) = p^(10a+30e) disc(f)
    vdisc_h = vdisc + 30 * e - 10 * w - 10 * v
    F = Fp(p)
    iters = 0
    while (a := power_root(reduce_mod(h, p), 6, F)) is not None:
        iters += 1
        try:
            h = shift_scale(h, 1, a, 6, p)
        except InexactDivision as exc:
            raise NotAlmostGood(
                "outer recentering is inexact; the splitting field ramifies"
            ) from exc
    g = tuple(c * p**v for c in h)
    # each recentering step divides the nonzero discriminant by p^30, so the
    # loop ends after at most vdisc_h // 30 steps
    return PNormalized(g, p, v, vdisc_h - 30 * iters)


def which_type(nf: PNormalized) -> ClusterType:
    """Classify a p-normalized model by the repeated factors of f~ mod p.

    gcd_3 of degree 1 is type 1, degree 3 is type 4; degree 2 splits into 2a
    or 2b according to whether its discriminant is a square.  Patterns that
    match none of these reject the input: a squarefree reduction means good
    reduction (route to ordinary point counting), anything else means the
    almost-good hypothesis fails.
    """
    p = nf.p
    fbar = reduce_mod(nf.ftilde(), p)
    if deg(fbar) != 6:
        raise NotAlmostGood("normalized model lost degree mod p")
    g = fp_gcd_k(fbar, 3, p)
    d = deg(g)
    if d == 0:
        if deg(fp_gcd(fbar, fp_derivative(fbar, p), p)) == 0:
            raise GoodReduction(f"f is squarefree mod {p}")
        raise NotAlmostGood("repeated factors of multiplicity 2 only")
    if d == 1:
        r = (p - g[0]) % p
        cube = fp_mul(fp_mul(g, g, p), g, p)
        u, rem = fp_divmod(fbar, cube, p)
        if rem:
            raise NotAlmostGood("triple factor does not divide cleanly")
        if deg(u) != 3 or deg(fp_gcd(u, fp_derivative(u, p), p)) != 0:
            raise NotAlmostGood("cofactor of the triple root is not squarefree")
        if fp_eval(u, r, p) == 0:
            raise NotAlmostGood("triple root collides with the cofactor")
        return ClusterType.T1
    if d == 2:
        delta = fp_disc(g, p)
        ls = legendre(delta, p)
        if ls == 0:
            raise NotAlmostGood("degenerate quadratic factor")
        cube = fp_mul(fp_mul(g, g, p), g, p)
        if fp_scale(cube, fbar[-1], p) != fbar:
            raise NotAlmostGood("reduction is not the cube of its gcd_3")
        return ClusterType.T2A if ls == 1 else ClusterType.T2B
    if d == 3:
        # on a sextic, deg gcd_3 = 3 forces the pattern (x - r)^5 (x - s)
        return ClusterType.T4
    raise NotAlmostGood(f"gcd_3 has impossible degree {d}")
