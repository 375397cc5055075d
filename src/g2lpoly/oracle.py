"""Construction-based test vectors: sextics assembled from chosen genus 1
data with prescribed cluster depths, together with the L-polynomial the
construction predicts.

Each generator works in reverse: pick the residual curves first, then plant
their roots at the right p-adic distances, each cluster by one taylor_shift
over Z or the quadratic order.  Expected values come from exhaustive point
counts only, never from the descent code under test.
"""

from collections import namedtuple

from .clusterclassify import ClusterType
from .errors import G2Error
from .eulercore import LPoly2
from .genus1 import Genus1Model, count_points_naive
from .modarith import Fp, QuadOrder, legendre
from .polyring import (
    disc,
    field_disc,
    fp_eval,
    fp_mul,
    fp_scale,
    fp2_scale,
    order_poly_conj,
    order_poly_mul,
    poly_mul,
    poly_scale,
    reduce_mod,
    taylor_shift,
    trim,
)

MAX_ORACLE_PRIME = 1 << 13  # keeps p^2 exhaustively countable for type 2b
_ORACLE_COUNT_LIMIT = 1 << 26
_MAX_RETRIES = 64


class OracleInstance(namedtuple("OracleInstance", "f p expected type depths")):
    """A planted sextic f at p, its type and cluster depths, and the LPoly2
    the construction predicts (None when not computed)."""

    __slots__ = ()


class OracleError(G2Error):
    """A generator exhausted its retry budget (a bug, not a user error)."""


def _check_prime(p):
    if p > MAX_ORACLE_PRIME:
        raise OracleError(f"oracle refuses p > {MAX_ORACLE_PRIME}")


def _trace(gbar, field) -> int:
    """q + 1 - #points, counted exhaustively."""
    n = count_points_naive(Genus1Model(field, gbar), _ORACLE_COUNT_LIMIT)
    return field.q + 1 - n


def _random_sqfree_cubic(p, rng):
    """Monic integer cubic with squarefree reduction mod p."""
    for _ in range(_MAX_RETRIES):
        h = (rng.randrange(p), rng.randrange(p), rng.randrange(p), 1)
        if field_disc(h, Fp(p)):
            return h
    raise OracleError("no squarefree cubic found")


def _planted_cubic(h, s: int, depth: int, p: int):
    """p^(3n) * h((x - s)/p^n) for monic integer cubic h: a cubic cluster of
    depth n centered at s, the shift by -s of h with x^i scaled by p^(n(3-i))."""
    return taylor_shift([c * p ** (depth * (3 - i)) for i, c in enumerate(h)], -s)


def gen_type1(p, n, rng, compute_expected=True) -> OracleInstance:
    """Type 1 instance: loose cubic h0 plus a depth-n cluster of h1 at s1."""
    _check_prime(p)
    if n % 2 or n < 2:
        raise ValueError("type 1 depth must be even and >= 2")
    for _ in range(_MAX_RETRIES):
        h0 = _random_sqfree_cubic(p, rng)
        h1 = _random_sqfree_cubic(p, rng)
        s1 = rng.randrange(p)
        h0bar = reduce_mod(h0, p)
        if fp_eval(h0bar, s1, p) == 0:
            continue
        f = poly_mul(h0, _planted_cubic(h1, s1, n, p))
        if disc(f) == 0:
            continue
        expected = None
        if compute_expected:
            field = Fp(p)
            quartic = fp_mul(h0bar, ((p - s1) % p, 1), p)  # squarefree part of f mod p
            t1 = _trace(quartic, field)
            c = fp_eval(h0bar, s1, p)
            t2 = _trace(fp_scale(reduce_mod(h1, p), c, p), field)
            expected = LPoly2.from_traces(t1, t2, p)
        return OracleInstance(f, p, expected, ClusterType.T1, (n,))
    raise OracleError("type 1 generation failed")


def build_type2a(p, n, m, s1, s2, h1, h2, v=0, compute_expected=True):
    """Deterministic type 2a assembly from explicit components."""
    f = poly_mul(_planted_cubic(h1, s1, n, p), _planted_cubic(h2, s2, m, p))
    if v:
        f = poly_scale(f, p)
    expected = None
    if compute_expected:
        field = Fp(p)
        d12 = pow((s1 - s2) % p, 3, p)
        d21 = pow((s2 - s1) % p, 3, p)
        t1 = _trace(fp_scale(reduce_mod(h1, p), d12, p), field)
        t2 = _trace(fp_scale(reduce_mod(h2, p), d21, p), field)
        expected = LPoly2.from_traces(t1, t2, p)
    return OracleInstance(f, p, expected, ClusterType.T2A, (n, m))


def gen_type2a(p, n, m, rng, compute_expected=True):
    """Type 2a instance: rational clusters of depths n, m at distinct centers."""
    _check_prime(p)
    if n % 2 != m % 2 or n < 1 or m < 1:
        raise ValueError("type 2a depths must match in parity and be >= 1")
    for _ in range(_MAX_RETRIES):
        s1 = rng.randrange(p)
        s2 = rng.randrange(p)
        if s1 == s2:
            continue
        h1 = _random_sqfree_cubic(p, rng)
        h2 = _random_sqfree_cubic(p, rng)
        inst = build_type2a(p, n, m, s1, s2, h1, h2, n % 2, compute_expected)
        if disc(inst.f) != 0:
            return inst
    raise OracleError("type 2a generation failed")


def _planted_conjugate_pair(hh, n: int, order: QuadOrder):
    """g * conj(g) in Z[x] for g(x) = p^(3n) hh((x - z)/p^n), hh a monic cubic
    over the order: conjugate cubic clusters of depth n at z and conj(z)."""
    g = taylor_shift([order.smul(order.p ** (n * (3 - i)), c) for i, c in enumerate(hh)],
                     order.neg(order.gen), order)
    fo = order_poly_mul(g, order_poly_conj(g, order), order)
    if any(c[1] for c in fo):
        raise OracleError("conjugation-stable product left the rationals")
    return trim(tuple(c[0] for c in fo))


def gen_type2b(p, n, rng, compute_expected=True):
    """Type 2b instance: conjugate clusters of depth n centered at the two
    roots of a lifted irreducible quadratic; f = g * conj(g) lands in Z[x]."""
    _check_prime(p)
    if n < 1:
        raise ValueError("depth must be >= 1")
    for _ in range(_MAX_RETRIES):
        u0, u1 = rng.randrange(p), rng.randrange(p)
        if legendre(u1 * u1 - 4 * u0, p) != -1:
            continue
        order = QuadOrder(u0, u1, p)
        kappa = order.kappa
        hh = tuple((rng.randrange(p), rng.randrange(p)) for _ in range(3)) + ((1, 0),)
        if kappa.is_zero(field_disc(hh, kappa)):  # hh not squarefree
            continue
        f = _planted_conjugate_pair(hh, n, order)
        if n % 2:
            f = poly_scale(f, p)
        if disc(f) == 0:
            continue
        expected = None
        if compute_expected:
            zbar = kappa.gen
            dz = kappa.sub(zbar, kappa.frobenius(zbar))
            c = kappa.mul(dz, kappa.mul(dz, dz))
            t = _trace(fp2_scale(trim(hh, kappa.zero), c, kappa), kappa)
            expected = LPoly2(0, -t, p)
        return OracleInstance(f, p, expected, ClusterType.T2B, (n,))
    raise OracleError("type 2b generation failed")


def gen_type4(p, n, m, rng, compute_expected=True):
    """Type 4 instance: a loose root, two roots at depth n from s1, and a
    cubic cluster at depth m > n inside the same disc."""
    _check_prime(p)
    if m <= n or n < 1 or (m - n) % 2:
        raise ValueError("type 4 needs m > n with m = n mod 2")
    for _ in range(_MAX_RETRIES):
        s0 = rng.randrange(p)
        s1 = rng.randrange(p)
        if s0 == s1:
            continue
        a1 = rng.randrange(1, p)
        a2 = rng.randrange(1, p)
        if a1 == a2:
            continue
        h2 = _random_sqfree_cubic(p, rng)
        f = poly_mul(
            poly_mul((-s0, 1), (-(s1 + p**n * a1), 1)),
            poly_mul((-(s1 + p**n * a2), 1), _planted_cubic(h2, s1, m, p)),
        )
        if n % 2:
            f = poly_scale(f, p)
        if disc(f) == 0:
            continue
        expected = None
        if compute_expected:
            field = Fp(p)
            d = (s1 - s0) % p
            g1 = fp_scale(
                fp_mul(fp_mul((0, 1), ((p - a1) % p, 1), p), ((p - a2) % p, 1), p),
                d,
                p,
            )
            t1 = _trace(g1, field)
            c = d * a1 % p * a2 % p
            t2 = _trace(fp_scale(reduce_mod(h2, p), c, p), field)
            expected = LPoly2.from_traces(t1, t2, p)
        return OracleInstance(f, p, expected, ClusterType.T4, (n, m))
    raise OracleError("type 4 generation failed")


def _division_exponent(inst: OracleInstance) -> int:
    """Total power of p the descent divides out of f~ for this instance."""
    v = 1 if inst.f[-1] % inst.p == 0 else 0
    if inst.type is ClusterType.T4:
        n, m = inst.depths
        total = 3 * m + 2 * n
    else:
        total = 3 * max(inst.depths)
    return v + total


def perturb(inst: OracleInstance, rng, bits: int = 256) -> OracleInstance:
    """Add p^K * (random junk) to f, with K past every division the descent
    performs, so type and L-polynomial are untouched while the coefficient
    height grows to roughly the requested bit count."""
    p = inst.p
    pk = p ** (_division_exponent(inst) + 1)
    base = inst.f + (0,) * (7 - len(inst.f))
    for _ in range(_MAX_RETRIES):
        noise = tuple(rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(7))
        f = trim(tuple(c + pk * noise[i] for i, c in enumerate(base)))
        if len(f) == 7 and disc(f) != 0:
            return inst._replace(f=f)
    raise OracleError("perturbation kept hitting singular models")


def random_instance(p, typ: ClusterType, rng, max_depth=8, compute_expected=True):
    """An instance of the given type with random valid depths <= max_depth."""
    if typ is ClusterType.T1:
        n = rng.choice(range(2, max(max_depth, 2) + 1, 2))
        return gen_type1(p, n, rng, compute_expected)
    if typ is ClusterType.T2A:
        n = rng.randrange(1, max_depth + 1)
        m = rng.choice(range(2 - n % 2, max_depth + 1, 2))
        return gen_type2a(p, n, m, rng, compute_expected)
    if typ is ClusterType.T2B:
        return gen_type2b(p, rng.randrange(1, max_depth + 1), rng, compute_expected)
    n = rng.randrange(1, max(max_depth - 1, 2))
    m = rng.choice(range(n + 2, max(max_depth, n + 2) + 1, 2))
    return gen_type4(p, n, m, rng, compute_expected)


def job_line(inst: OracleInstance) -> str:
    """Serialize to the batch CLI input grammar."""
    return f"{inst.p}:[{','.join(str(c) for c in inst.f)}]"
