import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import g2lpoly
from g2lpoly import genus1, kernels
from g2lpoly.errors import (
    DegreeError,
    FieldTooLarge,
    NotSquarefree,
    Unsupported,
)
from g2lpoly.genus1 import (
    LANES,
    Genus1Model,
    LPoly1,
    _Curve,
    _multiples_in_interval,
    _order_class,
    _three_class,
    count_points_naive,
    group_order_bsgs,
    lpoly1,
    quartic_jacobian,
    quartic_to_cubic,
)
from g2lpoly.modarith import Fp, Fp2, find_nonsquare, is_prime

import _util
from _util import brute_count_fp, brute_count_fp2, fp2_with_u1, random_point

F5 = Fp(5)
F9 = Fp2(3, 1, 0)


def _fp2_poly(ints):
    return tuple((c % 3, 0) for c in ints)


# -------------------------------------------------------------- naive counts


def test_count_x3_minus_x_over_f5():
    g = (0, -1, 0, 1)
    assert brute_count_fp(g, 5) == 8
    assert count_points_naive(Genus1Model(F5, g)) == 8


def test_count_quartic_over_f5():
    g = (1, 0, 0, 0, 1)
    assert brute_count_fp(g, 5) == 4  # lc = 1 is a square: 2 points at infinity
    assert count_points_naive(Genus1Model(F5, g)) == 4


def test_model_reduces_fp2_coefficients():
    # over F_9 a quartic whose top pair is (3, 0) is the cubic below it, and
    # over F_49 unreduced pairs give the model of their reduction
    m = Genus1Model(F9, ((1, 0), (1, 0), (0, 0), (1, 0), (3, 0)))
    assert m.g == ((1, 0), (1, 0), (0, 0), (1, 0))
    assert count_points_naive(m) == brute_count_fp2(m.g, 3, 1, 0) == 16
    assert lpoly1(m) == LPoly1(9 + 1 - 16, 9)
    F49 = Fp2(7, 1, 0)
    m = Genus1Model(F49, ((8, 7), (2, -7), (0, 14), (1, 0)))
    assert m == Genus1Model(F49, ((1, 0), (2, 0), (0, 0), (1, 0)))
    assert count_points_naive(m) == 55


def test_count_x3_minus_x_over_f9():
    g = _fp2_poly((0, -1, 0, 1))
    assert brute_count_fp2(g, 3, 1, 0) == 16
    assert count_points_naive(Genus1Model(F9, g)) == 16
    # cross-check through the subfield curve: a_9 = a_3^2 - 2*3 with a_3 = 0
    assert 9 + 1 - 16 == 0 * 0 - 2 * 3


def test_count_random_against_bruteforce():
    rng = random.Random(30)
    for _ in range(40):
        p = rng.choice((3, 5, 7, 11, 13, 31))
        d = rng.choice((3, 4))
        while True:
            g = tuple(rng.randrange(p) for _ in range(d)) + (rng.randrange(1, p),)
            try:
                m = Genus1Model(Fp(p), g)
                break
            except NotSquarefree:
                continue
        assert count_points_naive(m) == brute_count_fp(g, p)


def test_count_random_fp2_against_bruteforce():
    rng = random.Random(31)
    for p, u0, u1 in ((3, 1, 0), (5, 2, 0), (7, 1, 0)):
        F = Fp2(p, u0, u1)
        for _ in range(8):
            while True:
                g = tuple(
                    (rng.randrange(p), rng.randrange(p)) for _ in range(3)
                ) + ((1, 0),)
                try:
                    m = Genus1Model(F, g)
                    break
                except NotSquarefree:
                    continue
            assert count_points_naive(m) == brute_count_fp2(g, p, u0, u1)


def test_count_field_too_large():
    with pytest.raises(FieldTooLarge):
        count_points_naive(Genus1Model(Fp(65537 * 2 - 1), (0, -1, 0, 1)), limit=1 << 16)


def test_count_affine_fp2_partial_block():
    # 2^14 // 257 = 63 values of b per block: the fifth block holds five
    rng = random.Random(32)
    p = 257
    u0 = -find_nonsquare(p, rng) % p
    g = tuple((rng.randrange(p), rng.randrange(p)) for _ in range(4))
    assert kernels.count_affine_fp2(g, u0, 0, p) == brute_count_fp2(g, p, u0, 0) - 1


def test_chi_table_is_cached_read_only():
    # counts at one p share its table, so the table is built once and
    # shared: no caller may write to it
    chi = kernels._chi_table(1021)
    assert kernels._chi_table(1021) is chi
    assert not chi.flags.writeable
    with pytest.raises(ValueError):
        chi[1] = 0
    rng = random.Random(33)
    for p in (67, 1021):
        g = tuple(rng.randrange(p) for _ in range(4))
        want = brute_count_fp(g, p) - 1
        assert kernels.count_affine_fp(g, p) == want
        assert kernels.count_affine_fp(g, p) == want


def test_chi_table_cache_holds_a_batch_of_primes():
    # a second pass over 13 primes counted by numpy builds no table
    primes = (67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127)
    rng = random.Random(35)
    cases = [(tuple(rng.randrange(p) for _ in range(4)), p) for p in primes]
    first = [kernels.count_affine_fp(g, p) for g, p in cases]
    misses = kernels._chi_table.cache_info().misses
    assert [kernels.count_affine_fp(g, p) for g, p in cases] == first
    assert kernels._chi_table.cache_info().misses == misses


def _affine_brute_fp(g, p):
    """brute_count_fp less its points at infinity."""
    if len(g) - 1 == 3:
        return brute_count_fp(g, p) - 1
    return brute_count_fp(g, p) - (2 if _util.chi_p(g[-1], p) == 1 else 0)


def test_count_loop_against_bruteforce_below_the_bound():
    # every odd prime below 2^6, at the plain loop's cubic and numpy's
    # quartics and sextics, with unreduced and negative coefficients
    rng = random.Random(36)
    primes = [p for p in range(3, kernels._LOOP_BELOW, 2) if is_prime(p)]
    assert len(primes) == 17
    for p in primes:
        for d in (3, 4, 6):
            for lo, hi in ((0, p), (-5 * p, 5 * p), (-(1 << 70), 1 << 70)):
                g = tuple(rng.randrange(lo, hi) for _ in range(d + 1))
                assert kernels.count_affine_fp(g, p) == _affine_brute_fp(g, p)


def test_count_loop_stops_below_67():
    # a cubic at p = 61 is counted by the plain loop, which never reaches
    # numpy's character table; a quartic there, and a cubic at p = 67, are
    # counted by numpy
    def lookups():
        info = kernels._chi_table.cache_info()
        return info.hits + info.misses

    g, quartic = (1, 2, 0, 1), (1, 2, 0, 0, 3)
    before = lookups()
    kernels.count_affine_fp(g, 61)
    assert lookups() == before
    assert kernels.count_affine_fp(quartic, 61) == _affine_brute_fp(quartic, 61)
    assert lookups() == before + 1
    kernels.count_affine_fp(g, 67)
    assert lookups() == before + 2


@pytest.mark.parametrize("p", (8191, 65521))
def test_count_fp_at_the_kernel_reduction_edges(p):
    # below 2^13 a cubic is reduced once, at the end, and a quartic also
    # before its last Horner step; near 2^16 both are reduced before the
    # third step and at the end.  A zero coefficient is added like any other
    rng = random.Random(p)
    F = Fp(p)
    for coeffs in ((None, None, None, None), (None, None, None, None, None),
                   (None, 0, None, 1), (0, None, None, 0, None)):
        m = _random_nonsingular(rng, F, coeffs)
        assert count_points_naive(m, limit=1 << 16) == brute_count_fp(m.g, p)


@pytest.mark.parametrize("p", (43, 257))
def test_count_fp2_against_bruteforce_on_both_grids(p):
    # p = 43 is one block; at 257 the fifth block is partial.  u1 != 0 takes
    # the z-coefficient of z^2 through every step and the norm
    rng = random.Random(p)
    while True:
        try:
            F = Fp2(p, rng.randrange(1, p), rng.randrange(1, p))
            break
        except ValueError:  # z^2 + u1 z + u0 reducible mod p
            continue
    for coeffs in ((None, None, None, 1), (None, None, None, None, None)):
        m = _random_nonsingular(rng, F, coeffs)
        assert count_points_naive(m, limit=1 << 17) == brute_count_fp2(m.g, p, F.u0, F.u1)


def test_kernels_with_a_lowered_bound(monkeypatch):
    # At 2^14 the bound makes every step at p = 43 (F_{p^2}) and 67 (F_p,
    # the least prime numpy counts) reduce first, and the norm reduce its
    # inputs.  The counts must not change.
    rng = random.Random(34)
    p = 43
    cases = []
    for u1 in (0, 5):
        u0 = next(u for u in range(1, p) if pow((u1 * u1 - 4 * u) % p, (p - 1) // 2, p) == p - 1)
        for d in (3, 4):
            g = tuple((rng.randrange(p), rng.randrange(p)) for _ in range(d + 1))
            cases.append((kernels.count_affine_fp2, (g, u0, u1, p)))
    p = 67
    for d in (3, 4, 6):
        cases.append((kernels.count_affine_fp, (tuple(rng.randrange(p) for _ in range(d + 1)), p)))
    want = [kernel(*args) for kernel, args in cases]
    monkeypatch.setattr(kernels, "_BOUND", 1 << 14)
    assert [kernel(*args) for kernel, args in cases] == want


def test_fp2_kernel_refuses_p_from_2_20():
    # below the limit a step from reduced accumulators, m^3 + 2 m^2 + m, and
    # the norm of reduced values, m^2 (2 m + 1), stay below the bound
    m = kernels._FP2_P_LIMIT - 2
    assert m**3 + 2 * m**2 + m < kernels._BOUND
    assert m * m * (2 * m + 1) < kernels._BOUND
    with pytest.raises(ValueError):
        kernels.count_affine_fp2(((0, 0), (1, 0), (0, 0), (1, 0)), 1, 0, 1048583)


_COLD_IMPORT = """
import random, sys
import g2lpoly
from g2lpoly.oracle import gen_type1
from g2lpoly.polyring import poly_mul
assert "numpy" not in sys.modules, "import g2lpoly loaded numpy"
p = 1048583  # type 1: both genus 1 counts over F_p go through BSGS
f = poly_mul((1, 1, 0, 1), (3 * p**6, 2 * p**4, p**2, 1))
g2lpoly.euler_factor(g2lpoly.EulerInput(f, p), random.Random(1))
assert "numpy" not in sys.modules, "a BSGS-only factor loaded numpy"
inst = gen_type1(3, 4, random.Random(5), compute_expected=False)
lp = g2lpoly.euler_factor(g2lpoly.EulerInput(inst.f, 3), random.Random(1))
assert "numpy" not in sys.modules, "a type 1 factor at p = 3 loaded numpy"
g2lpoly.count_points_naive(g2lpoly.Genus1Model(g2lpoly.Fp(67), (1, 1, 0, 1)))
assert "numpy" in sys.modules, "an exhaustive count at p = 67 ran without numpy"
# both cubics over F_3 took the plain loop; the oracle counts a quartic by numpy
assert lp == gen_type1(3, 4, random.Random(5)).expected
"""


def test_numpy_loads_on_the_first_exhaustive_count():
    env = dict(os.environ, PYTHONPATH=str(Path(g2lpoly.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _COLD_IMPORT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------- quartic handling


def test_quartic_reversal_example():
    m = Genus1Model(F5, (0, 1, 0, 0, 1))  # x^4 + x
    assert quartic_to_cubic(m).g == (1, 0, 0, 1)  # x^3 + 1
    m2 = Genus1Model(F5, (0, 1, 0, 0, 2))  # 2x^4 + x
    assert quartic_to_cubic(m2).g == (2, 0, 0, 1)


def test_quartic_reversal_preserves_count():
    # c*x(x-1)(x-2)(x-3) over F_7 for every unit c
    from g2lpoly.polyring import fp_mul

    p = 7
    for c in range(1, 7):
        g = (c,)
        for r in (0, 1, 2, 3):
            g = fp_mul(g, ((p - r) % p, 1), p)
        m = Genus1Model(Fp(p), g)
        assert count_points_naive(m) == count_points_naive(quartic_to_cubic(m))


def test_quartic_reversal_rejects_nonzero_constant():
    with pytest.raises(DegreeError):
        quartic_to_cubic(Genus1Model(F5, (1, 0, 0, 0, 1)))


def test_quartic_jacobian_example():
    m = Genus1Model(F5, (1, 0, 0, 0, 1))  # x^4 + 1: I = 12, J = 0
    cub = quartic_jacobian(m)
    assert cub.g == ((-27 * 0) % 5, (-27 * 12) % 5, 0, 1)
    assert cub.g == (0, 1, 0, 1)  # X^3 + X mod 5
    t_quartic = 5 + 1 - count_points_naive(m)
    t_cubic = 5 + 1 - count_points_naive(cub)
    assert t_quartic == t_cubic == 2


def test_quartic_jacobian_matches_counts():
    rng = random.Random(34)
    for _ in range(30):
        p = rng.choice((5, 7, 11, 13))
        while True:
            g = tuple(rng.randrange(p) for _ in range(4)) + (rng.randrange(1, p),)
            try:
                m = Genus1Model(Fp(p), g)
                break
            except NotSquarefree:
                continue
        assert count_points_naive(m) == count_points_naive(quartic_jacobian(m))


def test_quartic_jacobian_scaling_invariance():
    # substituting x -> lam*x scales I, J by lam^4, lam^6: same trace
    rng = random.Random(35)
    p = 7
    from g2lpoly.polyring import fp_scale

    for _ in range(20):
        while True:
            g = tuple(rng.randrange(p) for _ in range(4)) + (rng.randrange(1, p),)
            try:
                m = Genus1Model(Fp(p), g)
                break
            except NotSquarefree:
                continue
        lam = rng.randrange(1, p)
        scaled = tuple(c * pow(lam, i, p) % p for i, c in enumerate(g))
        m2 = Genus1Model(Fp(p), scaled)
        # x -> lam x is a bijection of the affine line: same affine count
        assert count_points_naive(quartic_jacobian(m)) == count_points_naive(
            quartic_jacobian(m2)
        ) or count_points_naive(m) == count_points_naive(m2)


def test_quartic_jacobian_nonsingular_output():
    rng = random.Random(36)
    p = 11
    for _ in range(50):
        g = tuple(rng.randrange(p) for _ in range(4)) + (rng.randrange(1, p),)
        try:
            m = Genus1Model(Fp(p), g)
        except NotSquarefree:
            continue
        quartic_jacobian(m)  # Genus1Model construction asserts disc != 0


def test_quartic_jacobian_rejects_char3():
    m = Genus1Model(Fp2(3, 1, 0), _fp2_poly((1, 1, 0, 0, 1)))
    with pytest.raises(Unsupported):
        quartic_jacobian(m)


# ----------------------------------------------------------------------- bsgs


def test_bsgs_matches_naive_f101():
    rng = random.Random(37)
    m = Genus1Model(Fp(101), (1, 1, 0, 1))
    assert group_order_bsgs(m, rng) == count_points_naive(m)


def test_bsgs_supersingular():
    rng = random.Random(38)
    for p in (10007, 40063):
        assert p % 4 == 3
        m = Genus1Model(Fp(p), (0, 1, 0, 1))  # y^2 = x^3 + x: trace 0
        n = group_order_bsgs(m, rng)
        assert n == p + 1
        assert n == brute_count_fp((0, 1, 0, 1), p)


def test_bsgs_twist_consistency():
    rng = random.Random(39)
    for _ in range(10):
        p = rng.choice((1031, 2053, 4099))
        while True:
            g = tuple(rng.randrange(p) for _ in range(3)) + (1,)
            try:
                m = Genus1Model(Fp(p), g)
                break
            except NotSquarefree:
                continue
        n = group_order_bsgs(m, rng)
        d = find_nonsquare(p, rng)
        twisted = tuple(c * pow(d, 3 - i, p) % p for i, c in enumerate(g))
        # y^2 = d^3 g(x/d) is the quadratic twist
        mt = Genus1Model(Fp(p), twisted)
        nt = group_order_bsgs(mt, rng)
        assert n + nt == 2 * p + 2


def test_bsgs_fp2_matches_naive():
    rng = random.Random(40)
    F = Fp2(19, 1, 0)  # q = 361
    for _ in range(5):
        while True:
            g = tuple((rng.randrange(19), rng.randrange(19)) for _ in range(3)) + (
                (1, 0),
            )
            try:
                m = Genus1Model(F, g)
                break
            except NotSquarefree:
                continue
        assert group_order_bsgs(m, rng) == count_points_naive(m)


# --------------------------------------------------------------------- lpoly1


def test_lpoly1_examples():
    rng = random.Random(41)
    assert lpoly1(Genus1Model(F5, (0, -1, 0, 1)), rng).a == -2
    assert lpoly1(Genus1Model(F5, (0, 2, 4, 4)), rng).a == 2  # 4x^3+4x^2+2x
    assert lpoly1(Genus1Model(F9, _fp2_poly((0, -1, 0, 1))), rng).a == -6


def _counting_route(monkeypatch):
    calls = []
    for name, route in (("count_points_naive", "exhaustive"), ("group_order_bsgs", "bsgs")):
        real = getattr(genus1, name)

        def wrapped(*args, real=real, route=route):
            calls.append(route)
            return real(*args)

        monkeypatch.setattr(genus1, name, wrapped)
    return calls


@pytest.mark.parametrize(
    "p, over_fp2, route",
    [(8191, False, "exhaustive"), (8209, False, "bsgs"),
     (89, True, "exhaustive"), (97, True, "bsgs")],
)
def test_lpoly1_route_boundaries(monkeypatch, p, over_fp2, route):
    # F_p counts exhaustively below 2^13, F_{p^2} below q = 2^13
    rng = random.Random(p)
    F = Fp2(p, -find_nonsquare(p, rng) % p, 0) if over_fp2 else Fp(p)
    m = Genus1Model(F, tuple(F.from_int(c) for c in (1, 1, 0, 1)))
    calls = _counting_route(monkeypatch)
    lpoly1(m, rng)
    assert calls == [route]


def test_exhaustive_bands_cover_every_field_bsgs_cannot_pin():
    # BSGS is exact only above MESTRE_BOUND, so the band must reach past it
    assert genus1.EXHAUSTIVE_BELOW > genus1.MESTRE_BOUND


def _random_nonsingular(rng, F, coeffs):
    """A nonsingular model with the given coefficients, None drawn at random."""
    while True:
        g = tuple(F.random(rng) if c is None else F.from_int(c) for c in coeffs)
        try:
            return Genus1Model(F, g)
        except NotSquarefree:
            continue


def test_lpoly1_bsgs_equals_naive():
    rng = random.Random(42)
    for p in (8209, 65521):
        F = Fp(p)
        # a cubic, a quartic through reversal, a quartic through invariants;
        # the naive count is the quartic's own
        for coeffs, to_cubic in (((None, None, None, 1), None),
                                 ((0, None, None, None, 1), quartic_to_cubic),
                                 ((None, None, None, None, 1), quartic_jacobian)):
            for _ in range(3):
                m = _random_nonsingular(rng, F, coeffs)
                cubic = to_cubic(m) if to_cubic else m
                assert lpoly1(cubic, rng) == LPoly1(p + 1 - count_points_naive(m, 1 << 26), p)
    for p in (97, 101, 251):
        F = Fp2(p, -find_nonsquare(p, rng) % p, 0)
        for _ in range(3):
            m = _random_nonsingular(rng, F, (None, None, None, 1))
            assert lpoly1(m, rng) == LPoly1(F.q + 1 - count_points_naive(m, 1 << 26), F.q)


def test_lpoly1_quadratic_twist_negates_trace():
    rng = random.Random(43)
    for _ in range(20):
        p = rng.choice((7, 11, 13, 31))
        d = find_nonsquare(p, rng)
        while True:
            g = tuple(rng.randrange(p) for _ in range(3)) + (rng.randrange(1, p),)
            try:
                m = Genus1Model(Fp(p), g)
                break
            except NotSquarefree:
                continue
        md = Genus1Model(Fp(p), tuple(c * d % p for c in g))
        assert lpoly1(md, rng).a == -lpoly1(m, rng).a


def test_lpoly1_hasse_bound():
    rng = random.Random(44)
    for _ in range(40):
        p = rng.choice((3, 5, 7, 11, 13, 61))
        while True:
            g = tuple(rng.randrange(p) for _ in range(3)) + (rng.randrange(1, p),)
            try:
                m = Genus1Model(Fp(p), g)
                break
            except NotSquarefree:
                continue
        lp = lpoly1(m, rng)
        assert lp.a * lp.a <= 4 * p


@pytest.mark.parametrize("F", [Fp(13), Fp(8209), F9, Fp2(97, 5, 0)])
def test_lpoly1_rejects_quartics(F):
    # cubics only, in the exhaustive bands and in the BSGS range alike
    m = Genus1Model(F, tuple(F.from_int(c) for c in (1, 0, 0, 0, 1)))
    with pytest.raises(DegreeError):
        lpoly1(m, random.Random(0))


def test_interval_multiples_contract():
    # the search must return the two smallest interval multiples of ord(P),
    # even for points of very small order
    from g2lpoly.genus1 import _to_short_weierstrass

    rng = random.Random(45)
    p = 1009
    m = Genus1Model(Fp(p), (1, 1, 0, 1))
    A, B = _to_short_weierstrass(m)
    curve = _Curve(Fp(p), A, B)
    n = count_points_naive(m)
    lo, hi = p + 1 - 2 * 31, p + 1 + 2 * 31
    for _ in range(25):
        P = random_point(curve, rng)
        # brute-force the true order of P
        Q, order = P, 1
        while Q is not None:
            Q = curve.add(Q, P)
            order += 1
        want = [x for x in range(lo, hi + 1) if x % order == 0]
        first, second = _multiples_in_interval(curve, P, lo, hi)
        assert first == want[0]
        assert second == (want[1] if len(want) > 1 else None)
        assert n % order == 0


def test_bsgs_small_order_points_handled():
    # points of order <= sqrt(interval width) degenerate the giant-step walk;
    # the order must then come from the first return to the identity
    rng = random.Random(46)
    m = Genus1Model(Fp(11), (7, 7, 0, 8))  # group of order 6, has 2-torsion
    for _ in range(10):
        assert group_order_bsgs(m, rng) == count_points_naive(m) == 6
    m2 = Genus1Model(Fp(19), (4, 4, 2, 6))
    for _ in range(10):
        assert group_order_bsgs(m2, rng) == count_points_naive(m2) == 26


def _order(curve, P):
    Q, n = P, 1
    while Q is not None:
        Q = curve.add(Q, P)
        n += 1
    return n


def _random_curve(F, rng):
    while True:
        A, B = F.random(rng), F.random(rng)
        disc = F.add(F.smul(4, F.mul(A, F.mul(A, A))), F.smul(27, F.mul(B, B)))
        if not F.is_zero(disc):
            return _Curve(F, A, B)


def test_interval_multiples_match_brute_force_orders():
    # At q = 23 and 25 every order is at most 2s = 62, so the baby table
    # decides alone: by a point with y = 0 (even order) or an x-collision
    # (odd order).  Near q = 2000 most orders exceed 2s and the giant
    # windows decide.  Hasse intervals and arbitrary ones, F_p and F_{p^2}.
    rng = random.Random(48)
    fields = (Fp(23), Fp(47), Fp(1009), Fp(1999), Fp2(5, 2, 0), Fp2(7, 1, 0), Fp2(43, 1, 0))
    seen = set()
    for F in fields:
        t0 = math.isqrt(4 * F.q)
        for _ in range(6):
            curve = _random_curve(F, rng)
            for _ in range(4):
                P = random_point(curve, rng)
                n = _order(curve, P)
                seen.add("giant" if n > 62 else "even" if n % 2 == 0 else "odd")
                lo = rng.randrange(1, 2 * F.q)
                for a, b in ((F.q + 1 - t0, F.q + 1 + t0), (lo, lo + rng.randrange(4 * F.q))):
                    want = [m for m in range(a, b + 1) if m % n == 0][:2]
                    want += [None] * (2 - len(want))
                    assert _multiples_in_interval(curve, P, a, b) == tuple(want)
    assert seen == {"giant", "even", "odd"}


def test_interval_multiples_two_torsion():
    # P = (x0, 0) has order 2: the first baby step already has y = 0
    rng = random.Random(49)
    for F in (Fp(1009), Fp2(43, 1, 0)):
        for _ in range(5):
            x0, A = F.random(rng), F.random(rng)
            B = F.neg(F.add(F.mul(x0, F.mul(x0, x0)), F.mul(A, x0)))
            curve = _Curve(F, A, B)
            P = (x0, F.zero)
            assert curve.add(P, P) is None
            t0 = math.isqrt(4 * F.q)
            lo = F.q + 1 - t0
            first = lo + lo % 2
            assert _multiples_in_interval(curve, P, lo, F.q + 1 + t0) == (first, first + 2)


def _spy_rounds(monkeypatch):
    """(len(table), len(pts)) of every F.pm_round call, each checked to have
    a chord for every pair: no centre shares its x with a table entry."""
    rounds = []
    for cls in (Fp, Fp2):
        def spy(self, C, table, pts, S, real=cls.pm_round):
            assert not table or C[0] not in {T[0] for T in table}
            rounds.append((len(table), len(pts)))
            return real(self, C, table, pts, S)

        monkeypatch.setattr(cls, "pm_round", spy)
    return rounds


def _walk_blocks(curve, start, step, n):
    """The blocks of curve.walk, checked against adding step point by point:
    every x in order, blocks that meet end to end, and point(k) the point
    at k.  The block lengths."""
    want = [start]
    while len(want) < n:
        want.append(curve.add(want[-1], step))
    blocks = list(curve.walk(start, [step], n))
    assert [k0 for k0, _, _ in blocks] == [sum(len(xs) for _, xs, _ in blocks[:i])
                                           for i in range(len(blocks))]
    assert [x for _, xs, _ in blocks for x in xs] == [R and R[0] for R in want]
    for k0, xs, point in blocks:
        assert [point(k) for k in range(k0, k0 + len(xs))] == want[k0:k0 + len(xs)]
    return [len(xs) for _, xs, _ in blocks]


def test_walk_gives_every_x_in_order(monkeypatch):
    # A walk of up to 2*LANES + 1 points is one block of lanes.  A longer
    # one from the identity has LANES + 1 lanes and then blocks of
    # 2*LANES + 1, the last centred on what is left; from a point, it has
    # blocks from the centre start + LANES*step, the last one cut short
    rounds = _spy_rounds(monkeypatch)
    rng = random.Random(50)
    L = LANES
    lengths = {None: {L: [L], L + 1: [L + 1], 2 * L + 1: [2 * L + 1], 2 * L + 2: [L + 1, L + 1],
                      3 * L + 3: [L + 1, 2 * L + 1, 1]},
               "point": {L: [L], L + 1: [L + 1], 2 * L + 1: [2 * L + 1],
                         2 * L + 2: [2 * L + 1, 1], 3 * L + 3: [2 * L + 1, L + 2]}}
    for F in (Fp(2**61 - 1), Fp2(1009, 11, 1)):
        curve = _random_curve(F, rng)
        step = random_point(curve, rng)
        for n in lengths[None]:
            for start in (None, random_point(curve, rng)):
                rounds.clear()
                got = _walk_blocks(curve, start, step, n)
                assert got == lengths[start and "point"][n], (F, start, n)
                # past the lanes, x(C +- T) for the table's entries
                assert any(t for t, _ in rounds) == (len(got) > 1)


def test_walk_meets_the_identity(monkeypatch):
    # start = -k*step puts the identity at k: on a centre (the identity is
    # the centre), beside one (C = +-T), in the lanes and in the last block;
    # such a block goes through add, the others through the round
    rounds = _spy_rounds(monkeypatch)
    rng = random.Random(65)
    L = LANES
    for F in (Fp(2**61 - 1), Fp2(1009, 11, 1)):
        curve = _random_curve(F, rng)
        step = random_point(curve, rng)
        for n, k in ((2 * L, 7), (3 * L + 3, L), (3 * L + 3, L + 9), (3 * L + 3, 3 * L + 2),
                     (5 * L + 5, 3 * L + 3), (5 * L + 5, 3 * L + 1)):
            rounds.clear()
            start = curve.neg(curve.mul(k, [step]))
            blocks = list(curve.walk(start, [step], n))
            xs = [x for _, b, _ in blocks for x in b]
            assert xs.index(None) == k and xs.count(None) == 1, (F, n, k)
            _walk_blocks(curve, start, step, n)
            assert len(rounds) >= 1


def _point_of_order(n, fields, rng):
    """(curve, Q) with Q of order n, on a random curve over one of fields."""
    while True:
        F = rng.choice(fields)
        curve = _random_curve(F, rng)
        N = brute_count_fp((curve.B, curve.A, 0, 1), F.p)
        if N % n:
            continue
        for _ in range(8):
            P = random_point(curve, rng)
            m = _order(curve, P)
            if m % n == 0:
                return curve, curve.mul(m // n, [P])


def test_baby_steps_read_two_torsion_at_block_edges():
    # ord(Q) = 2h: hQ has y = 0, and the event is the x collision one step
    # past it, (h + 1)Q = -(h - 1)Q.  h = LANES is the lanes' last point and
    # h = 3*LANES + 1 the last of the first block past them, so the event
    # falls in the next block; h = s is read only because the walk reads
    # s + 1.  Odd orders meet at (n + 1)/2, and 2s + 1 at s + 1
    rng = random.Random(66)
    L = LANES
    for h in (L, L + 1, 3 * L + 1):
        curve, Q = _point_of_order(2 * h, [Fp(p) for p in _fp_primes(2 * h - 40, 2 * h + 40)],
                                   rng)
        for s in (h, h + 1, 2 * h):
            assert genus1._baby_steps(curve, Q, s)[0] == 2 * h, (h, s)
        assert genus1._baby_steps(curve, Q, h - 1)[0] == 0
    curve, Q = _point_of_order(2 * L + 1, [Fp(p) for p in _fp_primes(40, 100)], rng)
    assert genus1._baby_steps(curve, Q, L)[0] == 2 * L + 1
    assert genus1._baby_steps(curve, Q, L - 1)[0] == 0


def test_baby_steps_recover_their_points():
    # no event up to s + 1: baby maps x(jQ) to j for j = 0..s (the identity's
    # None to 0), and point(j) = jQ for |j| <= s + 1, off its block
    rng = random.Random(67)
    for F in (Fp(2**61 - 1), Fp2(1009, 11, 1)):
        curve = _random_curve(F, rng)
        Q = random_point(curve, rng)
        want = [None]
        while len(want) < 4 * LANES:
            want.append(curve.add(want[-1], Q))
        for s in (1, 5, LANES - 1, LANES, LANES + 1, 2 * LANES, 3 * LANES + 2):
            order, baby, point = genus1._baby_steps(curve, Q, s)
            assert order == 0
            assert baby == {R and R[0]: j for j, R in enumerate(want[:s + 1])}
            for j in range(-s - 1, s + 2):
                assert point(j) == (want[j] if j >= 0 else curve.neg(want[-j])), (F, s, j)


@pytest.mark.parametrize("lanes", (2, 4))
def test_bsgs_exact_with_narrow_blocks(monkeypatch, lanes):
    # LANES = 2 or 4: fields below 2^16 run many blocks, baby and giant, and
    # most hits fall in blocks, where y comes off the block's centre
    monkeypatch.setattr(genus1, "LANES", lanes)
    rng = random.Random(68 + lanes)
    fields = [Fp(p) for p in (233, 1009, 8209, 65521)]
    fields += [Fp2(p, -find_nonsquare(p, rng) % p, 0) for p in (17, 61, 251)]
    for F in fields:
        for _ in range(4):
            m = _random_nonsingular(rng, F, (None, None, None, 1))
            assert group_order_bsgs(m, rng) == count_points_naive(m), (F, m.g)


def _prime_below(n):
    """Largest prime p < n with p = 11 (mod 12)."""
    p = n - 1 - (n - 12) % 12
    while not is_prime(p):
        p -= 12
    return p


@pytest.mark.parametrize("bits", (30, 40, 61))
def test_lpoly1_exact_supersingular_fp(bits):
    # y^2 = x^3 + x (p = 3 mod 4) and y^2 = x^3 + 1 (p = 2 mod 3) are
    # supersingular: #E(F_p) = p + 1, the trace is 0
    rng = random.Random(bits)
    p = _prime_below(1 << bits)
    for g in ((0, 1, 0, 1), (1, 0, 0, 1)):
        assert lpoly1(Genus1Model(Fp(p), g), rng) == LPoly1(0, p)


def test_lpoly1_exact_supersingular_fp2():
    # over F_{p^2} the trace is t_p^2 - 2p = -2p: #E = p^2 + 1 + 2p
    rng = random.Random(51)
    p = _prime_below(1 << 16)
    F = Fp2(p, 1, 0)
    for g in ((0, 1, 0, 1), (1, 0, 0, 1)):
        model = Genus1Model(F, tuple(F.from_int(c) for c in g))
        assert lpoly1(model, rng) == LPoly1(-2 * p, p * p)


# ------------------------------------------------- BSGS over one residue class


def _fp_primes(lo, hi):
    return [p for p in range(lo, hi) if is_prime(p)]


def _shape(F):
    """The field's shape as the class-read tests cover it."""
    return "fp" if F.q == F.p else "u1 != 0" if F.u1 else "z^2 - n"


def test_order_class_matches_exhaustive_counts():
    # #E mod 2 or 4 from the roots of x^3 + Ax + B, against brute-force
    # counts: no root, one root e with g'(e) a square or not, three roots.
    # F_{p^2} as z^2 - n and as z^2 + u1 z + u0 with u1 != 0, each reaching
    # every branch
    rng = random.Random(52)
    fields = [Fp(p) for p in _fp_primes(5, 300)]
    fields += [Fp2(p, -find_nonsquare(p, rng) % p, 0) for p in _fp_primes(5, 30)]
    fields += [fp2_with_u1(p, rng) for p in _fp_primes(5, 30)]
    seen = set()
    for F in fields:
        for _ in range(12 if F.q == F.p else 5):
            curve = _random_curve(F, rng)
            A, B = curve.A, curve.B
            g = (B, A, F.zero, F.one)
            if F.q == F.p:
                n = brute_count_fp(g, F.p)
                roots = [x for x in range(F.p) if (x * x * x + A * x + B) % F.p == 0]
            else:
                n = brute_count_fp2(g, F.p, F.u0, F.u1)
                roots = [x for x in _util.fp2_elements(F.p)
                         if F.is_zero(F.add(F.mul(x, F.add(F.mul(x, x), A)), B))]
            res, mod = _order_class(F, A, B)
            assert n % mod == res, (F, A, B)
            if len(roots) == 1:
                slope = F.add(F.smul(3, F.mul(roots[0], roots[0])), A)
                branch = "one, square" if F.is_square(slope) else "one, nonsquare"
            else:
                branch = f"{len(roots)} roots"
            seen.add((_shape(F), branch))
            assert mod == (2 if not roots else 4)
    assert seen == {(shape, branch) for shape in ("fp", "z^2 - n", "u1 != 0")
                    for branch in ("0 roots", "one, square", "one, nonsquare", "3 roots")}


def test_class_interval_multiples_match_brute_force_orders():
    # m = res (mod 2, 3, 4 or 12) with m*P = O: Q = mod*P may be the identity
    # (P of order dividing mod), its order may show in the baby walk (small
    # fields), or the giant windows decide (q near 2000)
    rng = random.Random(53)
    fields = (Fp(23), Fp(47), Fp(1009), Fp(1999), Fp2(5, 2, 0), Fp2(43, 1, 0))
    seen = set()
    for F in fields:
        t0 = math.isqrt(4 * F.q)
        for _ in range(4):
            curve = _random_curve(F, rng)
            points = [random_point(curve, rng) for _ in range(3)]
            # up to two extra points of order 2 or 4, where mod*P = O
            draws = (random_point(curve, rng) for _ in range(8))
            points += [P for P in draws if _order(curve, P) in (2, 4)][:2]
            for P in points:
                n = _order(curve, P)
                for mod in (2, 3, 4, 12):
                    n_q = n // math.gcd(n, mod)
                    seen.add("Q = O" if n_q == 1 else "giant" if n_q > 62 else "baby")
                    res = rng.randrange(mod)
                    lo = rng.randrange(1, 2 * F.q)
                    for a, b in ((F.q + 1 - t0, F.q + 1 + t0), (lo, lo + rng.randrange(4 * F.q))):
                        want = [m for m in range(a, b + 1) if m % n == 0 and m % mod == res][:2]
                        want += [None] * (2 - len(want))
                        got = _multiples_in_interval(curve, P, a, b, res, mod)
                        assert got == tuple(want), (F, P, n, a, b, res, mod)
    assert seen == {"Q = O", "baby", "giant"}


def _prime_near(n, mod, res=1):
    """Smallest prime p >= n with p = res (mod mod)."""
    p = n + (res - n) % mod
    while not is_prime(p):
        p += mod
    return p


def test_bsgs_order_is_the_same_under_every_seed():
    # the random points differ from seed to seed, the order they pin does not
    rng = random.Random(64)
    for bits in (14, 20, 30):
        F = Fp(_prime_near(1 << bits, 2))
        for _ in range(3):
            m = _random_nonsingular(rng, F, (None, None, None, 1))
            orders = {group_order_bsgs(m, random.Random(seed)) for seed in range(6)}
            assert len(orders) == 1, (F.p, m.g, orders)


@pytest.mark.parametrize("bits", (30, 40, 61))
def test_lpoly1_exact_cm_curves_fp(bits):
    # y^2 = x^3 + Ax (j = 1728, p = 1 mod 4: one or three roots) and
    # y^2 = x^3 + B (j = 0, p = 1 mod 3: none or three), with the trace read
    # off p = a^2 + b^2 or x^2 + 3y^2 by arithmetic independent of the package.
    # j = 1728 runs at p = 1 and p = 5 (mod 12), so both residues of q mod 3
    # reach the class mod 3 (read from q = 2^30 on)
    rng = random.Random(bits)
    cases = []
    for res in (1, 5):
        p = _prime_near(1 << bits, 12, res)
        c = rng.randrange(2, p)
        # A = -c^2 splits x(x - c)(x + c); A a nonsquare leaves the root 0 alone
        cases += [(p, (0, -c * c % p, 0, 1)), (p, (0, find_nonsquare(p, rng), 0, 1))]
    p = _prime_near(1 << bits, 3)
    c = rng.randrange(2, p)
    w = next(w for w in range(2, p) if pow(w, (p - 1) // 3, p) != 1)
    # x^3 = c^3 has three roots in F_p; x^3 = w, w a noncube, has none
    cases += [(p, (-pow(c, 3, p) % p, 0, 0, 1)), (p, (p - w, 0, 0, 1))]
    for p, g in cases:
        t = _util.cm_trace(g[1], g[0], p, rng)
        assert lpoly1(Genus1Model(Fp(p), g), rng) == LPoly1(t, p), (p, g)


def test_cm_trace_reference_matches_brute_force():
    rng = random.Random(54)
    for p in (233, 241, 277, 313, 337):
        for c in (1, 2, 3, 5):
            if p % 4 == 1:
                assert p + 1 - _util.cm_trace(c, 0, p, rng) == brute_count_fp((0, c, 0, 1), p)
            if p % 3 == 1:
                assert p + 1 - _util.cm_trace(0, c, p, rng) == brute_count_fp((c, 0, 0, 1), p)


def _brute_count(F, g):
    return brute_count_fp(g, F.p) if F.q == F.p else brute_count_fp2(g, F.p, F.u0, F.u1)


def _elements(F):
    return range(F.p) if F.q == F.p else _util.fp2_elements(F.p)


def _eval(F, f, x):
    acc = F.zero
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def test_three_class_matches_exhaustive_counts():
    # #E mod 3 from the F_q-roots of psi_3, against brute-force counts.
    # Frobenius fixes none or two of the four lines of E[3] when q = 2
    # (mod 3), and none, one or four when q = 1: F_p at p = 1 and 2 (mod 3),
    # F_{p^2} (always q = 1), one root on the curve or on its twist
    rng = random.Random(57)
    fields = [Fp(p) for p in _fp_primes(5, 200)]
    fields += [Fp2(p, -find_nonsquare(p, rng) % p, 0) for p in _fp_primes(5, 30)]
    fields += [fp2_with_u1(p, rng) for p in _fp_primes(5, 30)]
    seen = set()
    for F in fields:
        for _ in range(12 if F.q == F.p else 6):
            curve = _random_curve(F, rng)
            A, B = curve.A, curve.B
            n = _brute_count(F, (B, A, F.zero, F.one))
            psi = (F.neg(F.mul(A, A)), F.smul(12, B), F.smul(6, A), F.zero, F.from_int(3))
            roots = [x for x in _elements(F) if F.is_zero(_eval(F, psi, x))]
            branch = (F.q % 3, len(roots))
            if branch == (1, 1):
                rhs = F.add(F.mul(roots[0], F.add(F.mul(roots[0], roots[0]), A)), B)
                branch += ("curve" if F.is_square(rhs) else "twist",)
            seen.add((_shape(F), *branch))
            cls = _three_class(F, A, B)
            if branch in ((2, 0), (1, 4)):
                assert cls is None, (F, A, B)
            else:
                assert cls == (n % 3, 3), (F, A, B, n)
    fp2 = {(1, 0), (1, 1, "curve"), (1, 1, "twist"), (1, 4)}  # q = p^2 = 1 (mod 3)
    assert seen == ({("fp", *b) for b in fp2 | {(2, 0), (2, 2)}}
                    | {(shape, *b) for shape in ("z^2 - n", "u1 != 0") for b in fp2})


def test_bsgs_class_mod_12_on_both_sides(monkeypatch):
    # with both classes read at every size, fields just above MESTRE_BOUND
    # leave many points whose order has several multiples in the interval,
    # so the twist side runs too: each side must search its own class,
    # 2q + 2 - res for the twist, which differs from N's mod 3
    monkeypatch.setattr(genus1, "CLASS_FROM_BLOCKS", 0)
    monkeypatch.setattr(genus1, "THREE_FROM_BLOCKS", 0)
    searched = []
    real = genus1._multiples_in_interval

    def spy(curve, P, lo, hi, res=0, mod=1):
        searched.append(mod)
        return real(curve, P, lo, hi, res, mod)

    monkeypatch.setattr(genus1, "_multiples_in_interval", spy)
    sides = _spy_sides(monkeypatch)
    rng = random.Random(58)
    fields = [Fp(p) for p in (233, 239, 241, 251, 257, 263)]
    fields += [Fp2(p, -find_nonsquare(p, rng) % p, 0) for p in (17, 19, 23)]
    twist_mod_3 = 0
    for F in fields:
        for _ in range(40):
            curve = _random_curve(F, rng)
            model = Genus1Model(F, (curve.B, curve.A, F.zero, F.one))
            searched.clear()
            sides.clear()
            assert group_order_bsgs(model, rng) == count_points_naive(model), (F, model.g)
            twist_mod_3 += any(side and mod % 3 == 0 for side, mod in zip(sides, searched))
    assert twist_mod_3 >= 10


def test_bsgs_points_narrow_one_class(monkeypatch):
    # Just above MESTRE_BOUND many counts draw two or more points.  A point
    # whose order leaves two members of the searched class narrows N's
    # class to one mod their distance, lcm(ord(P), mod), and the next point
    # searches that: a proper multiple of the last modulus unless ord(P)
    # divides it.  Every searched class holds its side's count, N on E and
    # 2q + 2 - N on the twist
    calls = []
    real = genus1._multiples_in_interval

    def spy(curve, P, lo, hi, res=0, mod=1):
        got = real(curve, P, lo, hi, res, mod)
        calls.append((curve, P, res, mod, got))
        return got

    monkeypatch.setattr(genus1, "_multiples_in_interval", spy)
    sides = _spy_sides(monkeypatch)
    rng = random.Random(65)
    fields = [Fp(p) for p in (233, 239, 241, 251, 257)]
    fields += [Fp2(p, -find_nonsquare(p, rng) % p, 0) for p in (17, 19, 23)]
    fields += [fp2_with_u1(p, rng) for p in (17, 19, 23)]
    multi, narrowed = set(), 0
    for F in fields:
        for _ in range(40):
            m = _random_nonsingular(rng, F, (None, None, None, 1))
            calls.clear()
            sides.clear()
            n = count_points_naive(m)
            assert group_order_bsgs(m, rng) == n, (F, m.g)
            for side, (_, _, res, mod, _) in zip(sides, calls):
                assert ((2 * F.q + 2 - n if side else n) - res) % mod == 0, (F, m.g)
            for (curve, P, _, mod, (first, second)), later in zip(calls, calls[1:]):
                assert later[3] == second - first and later[3] % mod == 0, (F, m.g)
                if curve.mul(mod, [P]) is not None:
                    assert later[3] > mod, (F, m.g)
                    narrowed += 1
            if len(calls) > 1:
                multi.add(_shape(F))
    assert multi == {"fp", "z^2 - n", "u1 != 0"}
    assert narrowed >= 30


# ------------------------------------------------------------ BSGS set-up


def _spy_sides(monkeypatch):
    """The side, chi(w) = 1 (0) or -1 (1), of each point group_order_bsgs draws."""
    sides = []
    real = genus1._twist_point

    def spy(F, A, B, rng):
        side, curve, P = real(F, A, B, rng)
        sides.append(side)
        return side, curve, P

    monkeypatch.setattr(genus1, "_twist_point", spy)
    return sides


def test_twist_points_lie_on_their_twists():
    # P = (xw, w^2) is on y^2 = x^3 + Aw^2 x + Bw^3, which has #E points for
    # a square w and 2q + 2 - #E otherwise: (#E or 2q + 2 - #E) * P = O
    rng = random.Random(60)
    seen = set()
    for F in (Fp(1009), Fp2(43, 1, 0)):
        for _ in range(4):
            curve = _random_curve(F, rng)
            n = _brute_count(F, (curve.B, curve.A, F.zero, F.one))
            for _ in range(6):
                side, twist, (x, y) = genus1._twist_point(F, curve.A, curve.B, rng)
                seen.add(side)
                assert F.mul(y, y) == F.add(F.mul(x, F.add(F.mul(x, x), twist.A)), twist.B)
                assert twist.mul(2 * F.q + 2 - n if side else n, [(x, y)]) is None
    assert seen == {0, 1}


def test_bsgs_set_up_matches_naive_above_the_mestre_bound(monkeypatch):
    # Just above MESTRE_BOUND every walk is one block of lanes, mostly not a
    # power of two long; near q = 2^18 and 2^20 (F_{p^2} at p = 521, F_p at
    # 2^20 + 7) baby walks pass LANES + 1 points.  The points come from both
    # sides of chi(w).  No round is handed an empty batch: the identity's
    # lanes and a last block of one point add nothing to one
    walks = []
    real = _Curve.walk
    monkeypatch.setattr(_Curve, "walk", lambda self, start, chain, n:
                        walks.append((start is None, n)) or real(self, start, chain, n))
    rounds = _spy_rounds(monkeypatch)
    sides = _spy_sides(monkeypatch)
    rng = random.Random(61)
    fields = [(Fp(p), 8) for p in (233, 239, 241, 8209)]
    fields += [(Fp2(p, -find_nonsquare(p, rng) % p, 0), 8) for p in (17, 19, 23)]
    fields += [(Fp2(521, -find_nonsquare(521, rng) % 521, 0), 3), (Fp(1048583), 3)]
    for F, cubics in fields:
        for _ in range(cubics):
            m = _random_nonsingular(rng, F, (None, None, None, rng.randrange(1, F.p)))
            assert group_order_bsgs(m, rng) == count_points_naive(m, 1 << 21), (F, m.g)
    assert {0, 1} <= set(sides)
    assert any(baby and n <= LANES + 1 and (n - 1) & (n - 2) for baby, n in walks)
    assert any(baby and n > LANES + 1 for baby, n in walks)
    assert rounds and (0, 0) not in rounds


def test_nonsquare_discriminant_means_even_count():
    # chi(-4A^3 - 27B^2) = -1: the cubic has exactly one root (Stickelberger),
    # so E has one point of order 2
    rng = random.Random(62)
    fields = [Fp(p) for p in _fp_primes(5, 120)]
    fields += [Fp2(p, -find_nonsquare(p, rng) % p, 0) for p in (5, 7, 11, 13)]
    nonsquare = odd = 0
    for F in fields:
        for _ in range(10):
            curve = _random_curve(F, rng)
            A, B = curve.A, curve.B
            disc = F.neg(F.add(F.smul(4, F.mul(A, F.mul(A, A))), F.smul(27, F.mul(B, B))))
            n = _brute_count(F, (B, A, F.zero, F.one))
            odd += n % 2
            if not F.is_square(disc):
                nonsquare += 1
                assert n % 2 == 0, (F, A, B, n)
    assert nonsquare >= 50 and odd >= 50


def test_giant_walk_starts_in_its_first_window(monkeypatch):
    # The giant walk starts at (m0 + mod*s)*P, built as (m0 % mod)*P + a*G +
    # b*Q, G = (2s + 1)*Q, with b folded into [-s, s] (below, at and above s
    # before the fold) and b*Q read off the baby walk; a*G leaves G's
    # doubling chain grown to a's top bit, where the walk reads its steps
    walks = []
    real = _Curve.walk
    monkeypatch.setattr(_Curve, "walk", lambda self, start, chain, n: walks.append(
        (start, chain, n)) or real(self, start, chain, n))
    rng = random.Random(63)
    folds = set()
    for F in (Fp(1009), Fp2(43, 1, 0)):
        t0 = math.isqrt(4 * F.q)
        for mod in (1, 2, 3, 4, 6, 12):
            for _ in range(8):
                curve = _random_curve(F, rng)
                P = random_point(curve, rng)
                Q = curve.mul(mod, [P])
                lo = rng.randrange(1, 2 * F.q)
                hi = lo + rng.choice((2 * t0, rng.randrange(4 * F.q)))
                res = rng.randrange(mod)
                walks.clear()
                _multiples_in_interval(curve, P, lo, hi, res, mod)
                m0 = lo + (res - lo) % mod
                K = (hi - m0) // mod
                s = math.isqrt((K + 1) // 2)
                if Q is None or _order(curve, Q) <= 2 * s + 1 or m0 > hi:
                    continue
                start, chain, n = next(w for w in walks if w[0] is not None)
                assert start == curve.mul(m0 + mod * s, [P]), (F, mod, lo, hi)
                assert n == K // (2 * s + 1) + 1
                a, b = divmod(m0 // mod + s, 2 * s + 1)
                folds.add((b > s) - (b < s))
                G = curve.mul(2 * s + 1, [Q])
                assert len(chain) >= (a + (b > s)).bit_length()
                assert chain == [curve.mul(1 << i, [G]) for i in range(len(chain))]
    assert folds == {-1, 0, 1}


def test_scalar_multiplication_kills_points():
    # _Curve.mul runs on the field's raw-int ec_add: doublings, chords and
    # P + (-P) = O; #E*P = O and (#E + 1)*P = P on brute-counted curves
    rng = random.Random(59)
    fields = [Fp(1009), Fp(2003), Fp2(43, 1, 0), Fp2(47, -find_nonsquare(47, rng) % 47, 0)]
    for F in fields:
        for _ in range(5):
            curve = _random_curve(F, rng)
            n = _brute_count(F, (curve.B, curve.A, F.zero, F.one))
            for _ in range(4):
                P = random_point(curve, rng)
                assert curve.mul(n, [P]) is None, (F, curve.A, curve.B, P)
                assert curve.mul(n + 1, [P]) == P
                assert curve.add(P, (P[0], F.neg(P[1]))) is None
