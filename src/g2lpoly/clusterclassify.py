"""Model normalization at p and classification into the four reduction types.

A sextic f is p-normalized when v_p(f6) = min_i v_p(f_i) <= 1 and the six
roots do not all collide modulo p (outer depth zero).  Every squarefree
quintic or sextic over Z is brought to this shape by a Q-isomorphism that
preserves the curve, after which the repeated-factor pattern of f mod p,
read off one fp_gcd_k call as the kernel gcd_3 and deg gcd(f, f'), decides
which of the four types applies.
"""

import enum
from collections import namedtuple

from .errors import (
    DegreeError,
    GoodReduction,
    InexactDivision,
    NotAlmostGood,
    NotSquarefree,
)
from .modarith import Integers, check_odd_prime_modulus, legendre
from .polyring import (
    deg,
    disc,
    fp_gcd_k,
    min_vp,
    poly_eval,
    power_root,
    reduce_mod,
    reduce_poly,
    reverse6,
    shift_scale,
    taylor_shift,
    trim,
    vp,
)

ELL = 2**31 - 1  # a word prime: disc(f) mod ELL shows f squarefree without the exact disc
# p divides disc(f) at almost good reduction, so at p = ELL the check runs mod this prime
ELL_AT_ELL = 2**61 - 1


class ClusterType(enum.Enum):
    T1 = "1"
    T2A = "2a"
    T2B = "2b"
    T4 = "4"


class PNormalized(namedtuple("PNormalized", "ftilde p v vdisc_bound")):
    """A p-normalized sextic model f = p^v ftilde, kept as its unit-leading
    part ftilde, and vdisc_bound >= v_p(disc(ftilde)), from Hadamard's
    inequality; vdisc_bound + 1 is the default cap of the cluster descents."""

    __slots__ = ()

    @property
    def f(self):
        """The model p^v ftilde."""
        return tuple(c * self.p**self.v for c in self.ftilde)


def p_normalize(f, p: int) -> PNormalized:
    """Replace y^2 = f(x) by a Q-isomorphic p-normalized model.

    Quintics are first shifted off a root of f and reversed into sextics.
    Valuation rebalancing then forces v_p(f6) = min_i v_p(f_i) <= 1, and
    recentre with k = 6 divides out the common p-adic root approximation
    until the outer depth reaches zero; six roots that meet mod p but lie in
    a ramified extension fail there on an inexact division.
    """
    f = trim(f)
    if deg(f) not in (5, 6):
        raise DegreeError(f"need a quintic or sextic, got degree {deg(f)}")
    check_odd_prime_modulus(p)
    if deg(f) == 5:
        # a nonzero quintic has at most five roots
        a = next(a for a in range(6) if poly_eval(f, a))
        if a:
            f = taylor_shift(f, a)
        f = reverse6(f)
    # disc(g) mod ell, g the symmetric residues of f, shows f squarefree when
    # nonzero; the exact disc(f) decides the rest, and is disc(g) when g is f
    ell = ELL_AT_ELL if p == ELL else ELL
    b = max(map(abs, f)).bit_length()
    g = f if b < ell.bit_length() else tuple((c + ell // 2) % ell - ell // 2 for c in f)
    d = g[6] and disc(g)
    if d % ell == 0 and g is not f:
        d = disc(f)
    if d == 0:
        raise NotSquarefree("discriminant vanishes")

    Z = Integers(p)
    v = vp(f[6], p)
    if v > 1 or v and v != min_vp(f, p):  # min_vp <= v, so v = 0 is balanced
        e = max(
            -((vp(f[i], p) - v) // (6 - i)) for i in range(6) if f[i] != 0
        )  # ceil((v - v_p(f_i)) / (6 - i))
        w = 2 * (v // 2)
        scaled = []
        for i, c in enumerate(f):
            k = 6 * e - w - i * e
            scaled.append(c * p**k if k >= 0 else Z.exact_div_pk(c, -k))
        f = trim(scaled)
        v = vp(f[6], p)
        b = max(map(abs, f)).bit_length()

    h = tuple(Z.exact_div_pk(c, v) for c in f)
    # Hadamard: |disc h| <= |Res(h, h')| <= |h|^5 |h'|^6 < 2^(11b + 27) when
    # |h_i| < 2^b, and p >= 2^(bit length - 1) turns that into a bound on v_p
    vdisc = (11 * b + 27) // (p.bit_length() - 1)
    iters = 0
    if (a := power_root(reduce_mod(h, p), 6, Z.kappa)) is not None:
        # each exact step divides the nonzero discriminant by p^30, so an
        # exact recentring ends within vdisc // 30 steps, and the step after
        # those raises the inexact division that names a ramified cluster
        h, _, iters = recentre(h, a, 6, Z, vdisc // 30 + 1)
    return PNormalized(h, p, v, vdisc - 30 * iters)


def recentre(f, r, k: int, R, max_iters: int):
    """The recentring loop into a cluster of k roots, over the residue ring R
    (Integers(p) or a QuadOrder) with residue field R.kappa.

    Each step is f -> f(p*x + r) / p^k, whose reduction to kappa[x] must
    keep the degree k of the cluster.  While the reduction is lc (x - r')^k
    the loop goes on from the centre r'.  Returns (f, reduction, steps) at
    the first reduction of another shape.
    """
    for steps in range(1, max_iters + 1):
        try:
            f = shift_scale(f, r, k, R)
        except InexactDivision as exc:
            raise NotAlmostGood("recentring hit an inexact division") from exc
        fbar = reduce_poly(f, R)
        if deg(fbar) != k:
            raise NotAlmostGood(f"recentring lost the degree {k} of its cluster")
        r = power_root(fbar, k, R.kappa)
        if r is None:
            return f, fbar, steps
    raise NotAlmostGood(f"descent exceeded {max_iters} iterations")


class Classification(namedtuple("Classification", "nf type fbar kernel")):
    """One reading of a p-normalized model mod p: its type, the reduction
    fbar of nf.ftilde, and kernel = gcd_3(fbar), monic.  The handlers start
    their descents from these."""

    __slots__ = ()


def classify(nf: PNormalized) -> Classification:
    """Classify a p-normalized model by the repeated factors of f~ mod p.

    gcd_3 of degree 1 is type 1, degree 3 is type 4; degree 2 splits into 2a
    or 2b according to whether its discriminant is a square.  Patterns that
    match none of these reject the input: a squarefree reduction means good
    reduction (route to ordinary point counting), anything else means the
    almost-good hypothesis fails.  fbar is a sextic, since p_normalize leaves
    a unit leading coefficient, and it has no sextuple root, so the kernel
    has degree at most 3.  The same fp_gcd_k call gives deg gcd(fbar,
    fbar'): 0 for good reduction, and exactly 2 for type 1, whose fbar is
    (x - r)^3 u with u prime to x - r.
    """
    p = nf.p
    fbar = reduce_mod(nf.ftilde, p)
    rep, g = fp_gcd_k(fbar, 3, p)
    d = deg(g)
    if d == 0:
        if rep == 0:
            raise GoodReduction(f"f is squarefree mod {p}")
        raise NotAlmostGood("repeated factors of multiplicity 2 only")
    if d == 1:
        # a repeated factor of the cofactor u makes type 1's loose curve
        # singular, tested here so that which_type rejects it too
        if rep != 2:
            raise NotAlmostGood("type 1 curve 1 is singular: the cofactor of the triple root")
        typ = ClusterType.T1
    elif d == 2:
        # a squarefree quadratic kernel is the cube root of fbar / lc; g is monic
        ls = legendre(g[1] * g[1] - 4 * g[0], p)
        if ls == 0:
            raise NotAlmostGood("degenerate quadratic factor")
        typ = ClusterType.T2A if ls == 1 else ClusterType.T2B
    else:
        # on a sextic, deg gcd_3 = 3 forces the pattern (x - r)^5 (x - s)
        typ = ClusterType.T4
    return Classification(nf, typ, fbar, g)


def which_type(nf: PNormalized) -> ClusterType:
    """The reduction type alone."""
    return classify(nf).type
