"""Seeded input pools for the four benchmark workloads, each input with the
output the program must produce.

Every pool is stratified: each (type, prime) stratum appears the same number
of times, with the same depths, for every seed; only the curves, the large_p
primes and the order vary with the seed.  That keeps the cost of a pass, and
therefore the end-to-end figures, comparable between seeds.

Expected values are never taken from the code under test, with one
documented exception (``Case.check == "recount"``): generic large-prime
plants, whose answer is the program's own output under a second random seed,
checked again by the Weil bounds.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

from g2lpoly import oracle
from g2lpoly.clusterclassify import ClusterType
from g2lpoly.eulercore import EulerInput, LPoly2, euler_factor, validate_lpoly2
from g2lpoly.genus1 import Genus1Model, count_points_naive
from g2lpoly.modarith import Fp, QuadOrder, legendre, sqrt_mod_p
from g2lpoly.polyring import (
    disc,
    fp2_scale,
    fp_disc,
    fp_eval,
    fp_mul,
    fp_scale,
    order_poly_conj,
    order_poly_mul,
    poly_add,
    poly_mul,
    poly_scale,
    reduce_mod,
    trim,
)

TYPES = (ClusterType.T1, ClusterType.T2A, ClusterType.T2B, ClusterType.T4)
BENCH_PRIMES = (3, 5, 7, 13, 31, 61, 127, 251, 509, 1021, 2039, 4093, 8191)
HEIGHT_PRIMES = (3, 5, 7, 13, 31, 61, 97)
# Above this the oracle's exhaustive F_{p^2} count costs more than 50 ms per
# type 2b instance (2 s at 4093, 7 s at 8191), so larger 2b strata plant a
# cubic defined over F_p and use the base-change rule instead.
ORACLE_2B_MAX_P = 251
LARGE_P_LOG2 = (20, 40)  # types 1, 2a, 4
LARGE_P_2B_LOG2 = (12, 16)  # type 2b: q = p^2 from 2^24 to 2^32
LARGE_P_GRID = 5  # log2 p grid points per type


@dataclass
class Case:
    """One input of a workload and the output it must produce."""

    line: str  # batch-CLI job line
    typ: str  # "1", "2a", "2b", "4", or "reject"
    expected: str  # expected process_line output: "p:[...]" or "ERR:<token>"
    inp: EulerInput | None  # None for lines that only exist at the CLI level
    rng_seed: int  # seed of the per-call Random, so repeats do identical work
    check: str  # how `expected` was obtained: oracle, planted, cm, recount, token


@dataclass
class Pool:
    name: str
    cases: list
    setup_case: Case  # the cheap first stratum, run by each set-up child
    via_cli: bool  # closed loop through cli.process_line instead of euler_factor


def format_lp(lp: LPoly2) -> str:
    c = lp.coefficients()
    return f"{lp.p}:[{c[0]},{c[1]},{c[2]},{c[3]},{c[4]}]"


def _case(f, p, typ, expected, check, rng):
    return Case(
        f"{p}:[{','.join(str(c) for c in f)}]",
        typ,
        format_lp(expected),
        EulerInput(tuple(f), p),
        rng.getrandbits(48),
        check,
    )


# ---------------------------------------------------------------------------
# exact traces that need no exhaustive count at large p
# ---------------------------------------------------------------------------


def chi(a, p):
    return legendre(a % p, p)


def count_trace_fp(g, p):
    """Trace of y^2 = g(x) (g a squarefree cubic mod p) by a numpy character
    sum; independent of the package kernels, fine up to p ~ 2^20."""
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(g):
        acc = (acc * xs + c % p) % p
    table = np.full(p, -1, dtype=np.int64)
    table[(xs * xs) % p] = 1
    table[0] = 0
    return -int(table[acc].sum())


def _two_squares(p):
    """(a, b) with a^2 + b^2 = p for a prime p = 1 mod 4 (Hermite-Serret)."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    a, b = p, pow(c, (p - 1) // 4, p)  # b is a square root of -1
    while b * b > p:
        a, b = b, a % b
    a2 = p - b * b
    r = math.isqrt(a2)
    if r * r != a2:
        raise ArithmeticError(f"two-squares decomposition failed at {p}")
    return b, r


def _ec_mul(k, P, A, p):
    """k*P on y^2 = x^3 + A x + B over F_p, affine, None is the identity."""

    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        if P[0] == Q[0]:
            if (P[1] + Q[1]) % p == 0:
                return None
            lam = (3 * P[0] * P[0] + A) * pow(2 * P[1], -1, p) % p
        else:
            lam = (Q[1] - P[1]) * pow(Q[0] - P[0], -1, p) % p
        x3 = (lam * lam - P[0] - Q[0]) % p
        return x3, (lam * (P[0] - x3) - P[1]) % p

    R = None
    while k:
        if k & 1:
            R = add(R, P)
        P = add(P, P)
        k >>= 1
    return R


class AmbiguousTrace(ArithmeticError):
    """Random points did not single out one CM candidate (small or
    far-from-cyclic groups); the caller plants another curve."""


def retry_ambiguous(build, tries=32):
    for _ in range(tries - 1):
        try:
            return build()
        except AmbiguousTrace:
            pass
    return build()


def trace_1728(A, p, rng):
    """Trace of Frobenius of y^2 = x^3 + A x over F_p (A != 0 mod p).

    Supersingular (trace 0) when p = 3 mod 4.  For p = 1 mod 4 the curve has
    CM by Z[i], so the trace is one of +-2a, +-2b with p = a^2 + b^2; the one
    whose group order kills random points is kept.
    """
    A %= p
    if p % 4 == 3:
        return 0
    a, b = _two_squares(p)
    alive = {2 * a, -2 * a, 2 * b, -2 * b}
    nonsq = 2
    while chi(nonsq, p) != -1:
        nonsq += 1
    for _ in range(64):
        x = rng.randrange(p)
        rhs = (x * x * x + A * x) % p
        if chi(rhs, p) != 1:
            continue
        y = sqrt_mod_p(rhs, p, nonsq)
        if y * y % p != rhs:
            raise ArithmeticError("square root check failed")
        alive = {t for t in alive if _ec_mul(p + 1 - t, (x, y), A, p) is None}
        if len(alive) == 1:
            return alive.pop()
    raise AmbiguousTrace(f"CM trace not pinned at p={p}")


def _expand_shift(coeffs, s):
    """sum_i coeffs[i] * (x - s)^i as an integer polynomial."""
    out = ()
    xs = (1,)
    for c in coeffs:
        out = poly_add(out, poly_scale(xs, c))
        xs = poly_mul(xs, (-s, 1))
    return trim(out)


def _planted(h, s, depth, p):
    """p^(3n) h((x - s)/p^n) for monic cubic h: a depth-n cluster at s."""
    return _expand_shift(tuple(c * p ** (depth * (3 - i)) for i, c in enumerate(h)), s)


def _cm_cubic(p, rng):
    """Monic cubic (x - r)^3 + A (x - r) mod p with its exact trace."""
    A = rng.randrange(1, p)
    r = rng.randrange(p)
    h = tuple(c % p for c in _expand_shift((0, A, 0, 1), r))
    return h, trace_1728(A, p, rng)


def _generic_cubic(p, rng):
    while True:
        h = (rng.randrange(p), rng.randrange(p), rng.randrange(p), 1)
        if fp_disc(h, p):
            return h


# ---------------------------------------------------------------------------
# large-prime builders: exact by CM plants, or by recount
# ---------------------------------------------------------------------------


def build_type1(p, rng, cm):
    """Type 1 at depth 2.  With cm, the loose quartic is the reversal of a
    scaled CM cubic k*E(u) around s1, so both traces are exact."""
    s1 = rng.randrange(p)
    if cm:
        while True:
            A, r, k = rng.randrange(1, p), rng.randrange(1, p), rng.randrange(1, p)
            if (r * r + A) % p:
                break
        cubic = tuple(k * c % p for c in _expand_shift((0, A, 0, 1), r))  # C(u)
        # h0(x) = (x - s1)^3 C(1/(x - s1)), so y^2 = (x - s1) h0(x) ~ y^2 = C(u)
        h0 = tuple(c % p for c in _expand_shift(tuple(reversed(cubic)), s1))
        h1, t_h1 = _cm_cubic(p, rng)
        t_e = trace_1728(A, p, rng)
        t1 = chi(k, p) * t_e
        t2 = chi(fp_eval(h0, s1, p), p) * t_h1
    else:
        while True:
            h0 = _generic_cubic(p, rng)
            if fp_eval(h0, s1, p):
                break
        h1 = _generic_cubic(p, rng)
        t1 = t2 = None
    f = poly_mul(h0, _planted(h1, s1, 2, p))
    return f, t1, t2, (h0, h1, s1)


def build_type2a(p, rng, cm, depth):
    while True:
        s1, s2 = rng.randrange(p), rng.randrange(p)
        if s1 != s2:
            break
    if cm:
        (h1, t1), (h2, t2) = _cm_cubic(p, rng), _cm_cubic(p, rng)
        t1 *= chi(s1 - s2, p)  # chi((s1 - s2)^3) = chi(s1 - s2)
        t2 *= chi(s2 - s1, p)
    else:
        h1, h2 = _generic_cubic(p, rng), _generic_cubic(p, rng)
        t1 = t2 = None
    inst = oracle.build_type2a(p, depth, depth, s1, s2, h1, h2, depth % 2, False)
    return inst.f, t1, t2, (h1, h2, s1, s2)


def build_type4(p, rng, cm, n):
    """Type 4 with depths (n, n + 2).  With cm, the outer roots sit at
    s1 + p^n (+-k), so the first curve is d (x^3 - k^2 x), of j-invariant 1728."""
    while True:
        s0, s1 = rng.randrange(p), rng.randrange(p)
        if s0 != s1:
            break
    d = (s1 - s0) % p
    h2, t_h2 = _cm_cubic(p, rng) if cm else (_generic_cubic(p, rng), None)
    if cm:
        k = rng.randrange(1, p)
        a1, a2 = k, p - k
    else:
        while True:
            a1, a2 = rng.randrange(1, p), rng.randrange(1, p)
            if a1 != a2:
                break
    m = n + 2
    f = poly_mul(
        poly_mul((-s0, 1), (-(s1 + p**n * a1), 1)),
        poly_mul((-(s1 + p**n * a2), 1), _planted(h2, s1, m, p)),
    )
    if n % 2:
        f = poly_scale(f, p)
    t1 = t2 = None
    if cm:
        t1 = chi(d, p) * trace_1728(-k * k, p, rng)
        t2 = chi(d * a1 * a2, p) * t_h2
    return f, t1, t2, (s0, s1, a1, a2, h2)


def build_type2b(p, depth, rng):
    """Type 2b whose residual cubic H is defined over F_p.

    Over F_{p^2} the base change has trace t_p^2 - 2p, and the planting
    constant c scales it by the quadratic character of c in F_{p^2}.
    Returns (f, expected LPoly2, (H, c, kappa))."""
    while True:
        u0, u1 = rng.randrange(p), rng.randrange(p)
        if legendre(u1 * u1 - 4 * u0, p) == -1:
            break
    order = QuadOrder(u0, u1, p)
    kappa = order.kappa
    H = _generic_cubic(p, rng)
    g = [(0, 0)] * 4
    xs = [(1, 0)]
    minus_z = order.neg(order.gen)
    for i, c in enumerate(H):
        coeff = order.from_int(c * p ** (depth * (3 - i)))
        for j, a in enumerate(xs):
            g[j] = order.add(g[j], order.mul(coeff, a))
        nxt = [(0, 0)] * (len(xs) + 1)
        for j, a in enumerate(xs):
            nxt[j] = order.add(nxt[j], order.mul(a, minus_z))
            nxt[j + 1] = order.add(nxt[j + 1], a)
        xs = nxt
    fo = order_poly_mul(tuple(g), order_poly_conj(tuple(g), order), order)
    f = trim(tuple(c[0] for c in fo))
    if depth % 2:
        f = poly_scale(f, p)
    dz = kappa.sub(kappa.gen, kappa.frobenius(kappa.gen))
    c = kappa.mul(dz, kappa.mul(dz, dz))
    t_p = count_trace_fp(H, p)
    t = legendre(kappa.norm(c), p) * (t_p * t_p - 2 * p)
    return f, LPoly2(0, -t, p), (H, c, kappa)


def _lp2(t1, t2, p):
    return LPoly2(-(t1 + t2), t1 * t2 + 2 * p, p)


def _random_prime_near(log2, rng):
    """A random prime in [2^log2, 2^(log2 + 0.05)), by Miller-Rabin."""
    lo = int(2**log2)
    hi = int(2 ** (log2 + 0.05))
    while True:
        n = rng.randrange(lo, hi) | 1
        if _is_prime(n):
            return n


def _is_prime(n):
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for sp in small:
        if n % sp == 0:
            return n == sp
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# self-test of the large-prime rules against exhaustive counts
# ---------------------------------------------------------------------------


def _count_trace(g, field):
    return field.q + 1 - count_points_naive(Genus1Model(field, g), 1 << 26)


def self_test(seed=0):
    """Check every large-prime rule against the oracle's exhaustive counts
    at small primes of both residues mod 4.  Returns the number of checks."""
    rng = random.Random(seed)
    checks = 0
    for p in (101, 103, 1009, 1019, 8161, 8171):
        F = Fp(p)
        for _ in range(3):
            f, t1, t2, (h0, h1, s1) = retry_ambiguous(lambda: build_type1(p, rng, True))
            quartic = fp_mul(reduce_mod(h0, p), ((p - s1) % p, 1), p)
            e1 = _count_trace(quartic, F)
            e2 = _count_trace(fp_scale(h1, fp_eval(h0, s1, p), p), F)
            if (t1, t2) != (e1, e2):
                raise AssertionError(f"type 1 CM rule failed at p={p}")
            f, t1, t2, (h1, h2, s1, s2) = retry_ambiguous(lambda: build_type2a(p, rng, True, 1))
            inst = oracle.build_type2a(p, 1, 1, s1, s2, h1, h2, 1, True)
            if _lp2(t1, t2, p) != inst.expected:
                raise AssertionError(f"type 2a CM rule failed at p={p}")
            f, t1, t2, (s0, s1, a1, a2, h2) = retry_ambiguous(lambda: build_type4(p, rng, True, 1))
            d = (s1 - s0) % p
            g1 = fp_scale(fp_mul(fp_mul((0, 1), (p - a1, 1), p), (p - a2, 1), p), d, p)
            e1 = _count_trace(g1, F)
            e2 = _count_trace(fp_scale(h2, d * a1 * a2, p), F)
            if (t1, t2) != (e1, e2):
                raise AssertionError(f"type 4 CM rule failed at p={p}")
            checks += 3
    for p in (131, 139, 257, 263):
        for depth in (1, 2):
            f, lp, (H, c, kappa) = build_type2b(p, depth, rng)
            t = _count_trace(fp2_scale(tuple((h, 0) for h in H), c, kappa), kappa)
            if lp != LPoly2(0, -t, p):
                raise AssertionError(f"type 2b base-change rule failed at p={p}")
            checks += 1
    return checks


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _depths(typ, rep):
    """The depth ranges of oracle.random_instance (depths <= 8), walked in
    order by rep instead of drawn, so every stratum gets the same depths
    for every seed."""
    if typ is ClusterType.T1:
        return (2 + 2 * (rep % 4),)
    if typ is ClusterType.T4:
        n = 1 + rep % 6
        ms = range(n + 2, 9, 2)
        return n, ms[rep // 6 % len(ms)]
    n = 1 + rep % 8
    if typ is ClusterType.T2B:
        return (n,)
    ms = range(2 - n % 2, 9, 2)
    return n, ms[rep // 8 % len(ms)]


_ORACLE_GEN = {
    ClusterType.T1: oracle.gen_type1,
    ClusterType.T2A: oracle.gen_type2a,
    ClusterType.T2B: oracle.gen_type2b,
    ClusterType.T4: oracle.gen_type4,
}


def _oracle_case(p, typ, rep, rng, bits=None):
    depths = _depths(typ, rep)
    if typ is ClusterType.T2B and p > ORACLE_2B_MAX_P:
        f, lp, _ = build_type2b(p, depths[0], rng)
        return _case(f, p, typ.value, lp, "planted", rng)
    inst = _ORACLE_GEN[typ](p, *depths, rng)
    if bits:
        inst = oracle.perturb(inst, rng, bits)
    return _case(inst.f, p, typ.value, inst.expected, "oracle", rng)


def _finish(name, cases, rng, via_cli=False):
    setup = cases[0]
    rng.shuffle(cases)
    return Pool(name, cases, setup, via_cli)


def oracle_mixed(seed, reps=16):
    """Four types in equal shares over the 13 --bench primes, depths <= 8."""
    rng = random.Random(f"oracle_mixed|{seed}")
    cases = [
        _oracle_case(p, typ, rep, rng)
        for rep in range(reps)
        for typ in TYPES
        for p in BENCH_PRIMES
    ]
    return _finish("oracle_mixed", cases, rng)


def height_256(seed, reps=8):
    """Four types at p <= 97 with coefficients grown to ~256 bits."""
    rng = random.Random(f"height_256|{seed}")
    cases = [
        _oracle_case(p, typ, rep, rng, bits=256)
        for rep in range(reps)
        for typ in TYPES
        for p in HEIGHT_PRIMES
    ]
    return _finish("height_256", cases, rng)


def _large_case(typ, log2, rep, rng):
    """Even reps plant CM curves, whose traces are exact; odd reps plant
    generic curves, checked by a recount under a second seed.  Depths
    alternate between 1 and 2 every two reps."""
    p = _random_prime_near(log2, rng)
    depth = 1 + rep // 2 % 2
    if typ is ClusterType.T2B:
        f, lp, _ = build_type2b(p, depth, rng)
        return _case(f, p, typ.value, lp, "planted", rng)
    cm = rep % 2 == 0
    build = {ClusterType.T1: lambda: build_type1(p, rng, cm),
             ClusterType.T2A: lambda: build_type2a(p, rng, cm, depth),
             ClusterType.T4: lambda: build_type4(p, rng, cm, depth)}[typ]
    f, t1, t2, _ = retry_ambiguous(build)
    if cm:
        return _case(f, p, typ.value, _lp2(t1, t2, p), "cm", rng)
    lp = euler_factor(EulerInput(f, p), random.Random(rng.getrandbits(48)))
    if not validate_lpoly2(lp):
        raise AssertionError(f"recount at p={p} fails the Weil bounds")
    return _case(f, p, typ.value, lp, "recount", rng)


def large_p(seed, reps=4, grid=LARGE_P_GRID):
    """Types 1, 2a, 4 at primes near 2^20, 2^25, ..., 2^40; 2b near 2^12 ...
    2^16, so q = p^2 runs from 2^24 to 2^32.  Every genus 1 count goes
    through BSGS.  An odd number of grid points puts each per-type median
    inside one stratum instead of between two."""
    rng = random.Random(f"large_p|{seed}")
    cases = []
    for rep in range(reps):
        for typ in TYPES:
            lo, hi = LARGE_P_2B_LOG2 if typ is ClusterType.T2B else LARGE_P_LOG2
            for i in range(grid):
                log2 = lo + (hi - lo) * i / (grid - 1)
                # 2b factors cost a tenth of the others: twice as many of
                # them steady their median at little cost
                for _ in range(2 if typ is ClusterType.T2B else 1):
                    cases.append(_large_case(typ, log2, rep, rng))
    return _finish("large_p", cases, rng)


def _reject_cases(p, rng):
    """One line per reject path, each with its documented token."""

    def tok(f, token):
        return Case(f"{p}:[{','.join(str(c) for c in f)}]", "reject",
                    f"ERR:{token}", EulerInput(tuple(f), p), rng.getrandbits(48), "token")

    while True:  # squarefree mod p: good reduction
        f = tuple(rng.randrange(p) for _ in range(6)) + (1,)
        if disc(reduce_mod(f, p)) % p:
            break
    good = tok(f, "good-reduction")
    a = rng.randrange(-50, 50)
    sq = poly_mul(poly_mul((-a, 1), (-a, 1)), (rng.randrange(1, 50), 0, 0, 0, 1))
    not_sqfree = tok(sq, "not-squarefree")
    while True:  # only double roots mod p, squarefree over Z
        r = [rng.randrange(p) for _ in range(3)]
        base = poly_mul(poly_mul((-r[0], 1), (-r[1], 1)), (-r[2], 1))
        f = poly_add(poly_mul(base, base), tuple(p * rng.randrange(1, p) for _ in range(6)))
        if len(set(r)) == 3 and disc(f):
            break
    not_almost_good = tok(f, "not-almost-good")
    bad = rng.choice(["abc", f"{p}:[1,2", f"{p}:[]", f"{p}:[1,2,3,4,5,6,7,8]", ":"])
    parse = Case(bad, "reject", "ERR:parse", None, 0, "token")
    return [good, not_sqfree, not_almost_good, parse]


# ROADMAP item 1: a composite modulus sends fp_divmod into an endless loop.
COMPOSITE_P_LINE = "25:[-6875,-468750,11875,-8750,-225,234375,500]"
COMPOSITE_P_TOKEN = "ERR:not-prime"


def cli_batch(seed, reps=16):
    """oracle_mixed-style lines with about one reject in six, driven through
    the batch CLI's line function and run_batch."""
    rng = random.Random(f"cli_batch|{seed}")
    cases = []
    for rep in range(reps):
        for typ in TYPES:
            for p in BENCH_PRIMES:
                cases.append(_oracle_case(p, typ, rep, rng))
        for p in (31, 1021, 8191):
            cases.extend(_reject_cases(p, rng))
    return _finish("cli_batch", cases, rng, via_cli=True)


WORKLOADS = {
    "oracle_mixed": oracle_mixed,
    "height_256": height_256,
    "large_p": large_p,
    "cli_batch": cli_batch,
}
