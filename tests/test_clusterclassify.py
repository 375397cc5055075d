import random

import pytest

from g2lpoly import clusterclassify, eulercore
from g2lpoly.clusterclassify import ClusterType, classify, p_normalize, recentre, which_type
from g2lpoly.errors import GoodReduction, NotAlmostGood, NotSquarefree
from g2lpoly.eulercore import EulerInput, euler_factor_with_stats
from g2lpoly.modarith import Integers, QuadOrder, legendre
from g2lpoly.oracle import gen_type1, gen_type2a, gen_type2b, gen_type4, perturb, random_instance
from g2lpoly.polyring import (
    deg,
    disc,
    fp_gcd_k,
    poly_mul,
    poly_scale,
    power_root,
    reduce_mod,
    reverse6,
    taylor_shift,
    trim,
    vp,
)

from _util import SMALL_PRIMES, least_nonsquare, outer_cluster_model


def _product(factors):
    f = (1,)
    for fac in factors:
        f = poly_mul(f, fac)
    return f


# ------------------------------------------------------------------ normalize


def test_normalize_divides_out_even_valuation():
    p = 7
    base = _product([(-1, 1), (-2, 1), (-3, 1), (-4, 1), (-5, 1), (-6, 1)])
    f = poly_scale(base, p**2)
    nf = p_normalize(f, p)
    assert nf.f == base
    assert nf.v == 0


def test_normalize_rescales_scattered_valuations():
    # v_p(f6) = 8 > min v_p = 2: step-2 rescaling undoes the x -> p*x blowup
    p = 5
    base = _product([(-i, 1) for i in range(1, 7)])
    f = tuple(c * p ** (2 + i) for i, c in enumerate(base))  # p^2 * base(p*x)
    nf = p_normalize(f, p)
    assert nf.f == base
    assert nf.v == 0


def test_normalize_recenters_scaled_roots():
    p = 7
    f = _product([(-i * p, 1) for i in range(1, 7)])
    nf = p_normalize(f, p)
    assert nf.f == _product([(-i, 1) for i in range(1, 7)])
    assert nf.v == 0


def test_normalize_quintic_reversal():
    p = 5
    f = (1, 0, 0, 0, 0, 1)  # x^5 + 1, f(0) != 0: zero shift then reversal
    nf = p_normalize(f, p)
    assert nf.f == trim((0, 1, 0, 0, 0, 0, 1))  # x^6 + x
    assert nf.v == 0


def test_normalize_quintic_with_five_roots(monkeypatch):
    # a nonzero quintic has at most five roots, so x (x - 1) ... (x - 4) is
    # shifted by 5, the last candidate, and then reversed
    shifts = []

    def spy(f, r, R=None):
        shifts.append(r)
        return taylor_shift(f, r, R)

    monkeypatch.setattr(clusterclassify, "taylor_shift", spy)
    f = _product([(-i, 1) for i in range(5)])
    nf = p_normalize(f, 7)
    assert shifts == [5]
    assert nf.f == reverse6(taylor_shift(f, 5)) and nf.v == 0


def test_normalize_fixed_point():
    p = 5
    f = _product([(0, 1), (-1, 1), (-2, 1), (-3, 1), (-4, 1), (-6, 1)])
    nf = p_normalize(f, p)
    assert nf.f == f


def test_normalize_idempotent():
    rng = random.Random(20)
    for _ in range(50):
        p = rng.choice(SMALL_PRIMES)
        typ = rng.choice(list(ClusterType))
        inst = random_instance(p, typ, rng, compute_expected=False)
        f = poly_scale(inst.f, p ** (2 * rng.randrange(0, 2)))
        nf = p_normalize(f, p)
        again = p_normalize(nf.f, p)
        assert again == nf


def test_normalize_rejects_non_squarefree():
    f = poly_mul(poly_mul((-1, 1), (-1, 1)), (1, 0, 0, 0, 1))
    with pytest.raises(NotSquarefree):
        p_normalize(f, 7)


def test_normalize_ramified_input_rejected():
    # x^6 + p is squarefree but its roots generate a ramified extension
    with pytest.raises(NotAlmostGood):
        p_normalize((7, 0, 0, 0, 0, 0, 1), 7)
    # at a large p the Hadamard cap allows no whole step, and the one step
    # taken names the cause
    with pytest.raises(NotAlmostGood, match="inexact division"):
        p_normalize((8191, 0, 0, 0, 0, 0, 1), 8191)


# ------------------------------------------------------------------- recentre


def _planted_cluster(k, p, n, c, tail, rng):
    """k roots c + p^n a_i, with the a_i not all equal mod p, times the given
    outer roots (none congruent to c mod p): a cluster of depth n around c."""
    a = [0, 1] + [rng.randrange(p) for _ in range(k - 2)]
    return _product([(-(c + p**n * ai), 1) for ai in a] + [(-s, 1) for s in tail]), a


def test_recentre_follows_planted_clusters_to_their_depth():
    # the loop does not depend on the ring: each integer cluster also runs
    # embedded in an unramified quadratic order, in the same steps
    rng = random.Random(27)
    for p in (3, 5, 7):  # p = 3 with k in {3, 6} and p = 5 with k = 5 take the Frobenius root
        Z = Integers(p)
        order = QuadOrder(-least_nonsquare(p), 0, p)
        for k in (3, 5, 6):
            for n in (1, 2, 3):
                c = rng.randrange(-p**4, p**4)
                tail = [c + rng.randrange(1, p) + p * rng.randrange(-9, 10) for _ in range(6 - k)]
                f, a = _planted_cluster(k, p, n, c, tail, rng)
                g, gbar, steps = recentre(f, c % p, k, Z, n)
                assert steps == n
                # n steps substitute x -> p^n x + R with R = c mod p^n
                R = c % p**n
                cn = (c - R) // p**n
                assert g == _product([(-(cn + ai), 1) for ai in a]
                                     + [(R - s, p**n) for s in tail])
                assert gbar == reduce_mod(g, p) and deg(gbar) == k
                assert power_root(gbar, k, Z.kappa) is None
                fo, co = tuple(order.from_int(x) for x in f), order.from_int(c % p)
                go, gobar, ostep = recentre(fo, co, k, order, n)
                assert ostep == steps
                assert go == tuple(order.from_int(x) for x in g)
                assert gobar == tuple(order.from_int(x) for x in gbar)
                for ring, start, centre in ((Z, f, c % p), (order, fo, co)):
                    with pytest.raises(NotAlmostGood, match="descent exceeded"):
                        recentre(start, centre, k, ring, n - 1)


def test_recentre_inexact_step_rejected():
    # (x - c)^k - p: an Eisenstein cluster whose roots ramify
    for p in (3, 5, 7):
        for k in (3, 5, 6):
            c = 2 * p + 1
            f = taylor_shift((-p,) + (0,) * (k - 1) + (1,), -c)
            with pytest.raises(NotAlmostGood, match="inexact"):
                recentre(f, c % p, k, Integers(p), 5)


# ----------------------------------------------------------------- which_type


def _nf(f, p):
    return p_normalize(f, p)


def test_which_type_worked_example():
    p = 5
    f = _product(
        [(0, 1), (-(p**2), 1), (-3 * p**2, 1), (-1, 1), (-1 + p**4, 1), (-1 - p**4, 1)]
    )
    assert which_type(_nf(f, p)) is ClusterType.T2A


def test_which_type_t1():
    # f = (x-1)^3 (x^3+x+3) mod 7, nudged off the singular integer model
    p = 7
    f = (4, 15, -6, -1, 4, -3, 1)
    assert reduce_mod(f, p) == reduce_mod(_product([(-1, 1)] * 3 + [(3, 1, 0, 1)]), p)
    from g2lpoly.polyring import fp_disc

    assert fp_disc((3, 1, 0, 1), p) != 0
    assert which_type(_nf(f, p)) is ClusterType.T1


def test_which_type_t2b():
    # f = (x^2+1)^3 mod 3, nudged off the singular integer model
    f = (7, 3, 3, 0, 3, 0, 1)
    assert reduce_mod(f, 3) == reduce_mod(_product([(1, 0, 1)] * 3), 3)
    assert which_type(_nf(f, 3)) is ClusterType.T2B


def test_which_type_t4():
    # f = (x-1)^5 (x-2) mod 7, nudged off the singular integer model
    p = 7
    f = (9, 10, 25, -30, 20, -7, 1)
    assert reduce_mod(f, p) == reduce_mod(_product([(-1, 1)] * 5 + [(-2, 1)]), p)
    assert which_type(_nf(f, p)) is ClusterType.T4


def test_which_type_good_reduction():
    p = 11
    f = _product([(-i, 1) for i in range(6)])
    with pytest.raises(GoodReduction):
        which_type(_nf(f, p))


def test_which_type_rejects_double_roots_only():
    p = 11
    f = _product([(-1, 1), (-1, 1), (-2, 1), (-2, 1), (-3, 1), (-4, 1)])
    # perturb away from the singular model but keep the mod-p pattern
    f = tuple(c + p * d for c, d in zip(f, (1, 3, 0, 2, 0, 0, 0)))
    with pytest.raises((NotAlmostGood, NotSquarefree)):
        which_type(_nf(f, p))


def test_which_type_rejects_quadruple_root():
    p = 11
    f = _product([(-1, 1)] * 4 + [(-2, 1), (-3, 1)])
    f = tuple(c + p * d for c, d in zip(f, (2, 1, 0, 0, 1, 0, 0)))
    with pytest.raises((NotAlmostGood, NotSquarefree)):
        which_type(_nf(f, p))


def test_which_type_rejects_t1_with_singular_cofactor():
    p = 11
    f = _product([(-1, 1)] * 3 + [(-2, 1), (-2, 1), (-3, 1)])
    f = tuple(c + p * d for c, d in zip(f, (0, 5, 1, 0, 0, 0, 0)))
    with pytest.raises((NotAlmostGood, NotSquarefree)):
        which_type(_nf(f, p))


def test_which_type_matches_oracle_type():
    rng = random.Random(21)
    for _ in range(80):
        p = rng.choice(SMALL_PRIMES)
        typ = rng.choice(list(ClusterType))
        inst = random_instance(p, typ, rng, compute_expected=False)
        assert which_type(_nf(inst.f, p)) is inst.type


def test_classify_record_matches_which_type_and_its_parts():
    rng = random.Random(25)
    for p in (3, 5, 7, 13, 31):
        for typ in ClusterType:
            for _ in range(4):
                inst = random_instance(p, typ, rng, max_depth=6, compute_expected=False)
                nf = _nf(inst.f, p)
                c = classify(nf)
                assert c.nf is nf
                assert c.type is which_type(nf) is inst.type
                assert c.fbar == reduce_mod(nf.ftilde, p)
                assert c.kernel == fp_gcd_k(c.fbar, 3, p)[1]


def test_classify_reads_2a_or_2b_off_the_integer_discriminant():
    # f = u^3 + p h with u a lifted monic quadratic, planted split as
    # (x - a)(x - b) or drawn irreducible: classify's kernel is u mod p, and
    # its type is 2a or 2b exactly as legendre(u1^2 - 4 u0, p) says
    rng = random.Random(29)
    for p in (3, 5, 13, 8191, 2**31 - 19, 2**61 - 1):
        for split in (True, False) * 4:
            if split:
                a, b = rng.sample(range(p), 2)
                u0, u1 = a * b % p, -(a + b) % p
            else:
                u0 = u1 = 0
                while legendre(u1 * u1 - 4 * u0, p) != -1:
                    u0, u1 = rng.randrange(p), rng.randrange(p)
            u = (u0 + p * rng.randrange(-9, 10), u1 + p * rng.randrange(-9, 10), 1)
            h = [rng.randrange(-p, p) for _ in range(6)] + [0]
            f = tuple(c + p * e for c, e in zip(_product([u, u, u]), h))
            c = classify(p_normalize(f, p))
            assert c.kernel == (u0, u1, 1)
            assert legendre(u1 * u1 - 4 * u0, p) == (1 if split else -1)
            assert c.type is (ClusterType.T2A if split else ClusterType.T2B)


def test_one_gcd_k_pass_per_factor(monkeypatch):
    # the handlers reuse the record's kernel; only type 4 needs a second
    # gcd_3, on the quintic where its outer loop stops
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return fp_gcd_k(*args, **kw)

    monkeypatch.setattr(clusterclassify, "fp_gcd_k", counted)
    monkeypatch.setattr(eulercore, "fp_gcd_k", counted)
    rng = random.Random(26)
    want = {ClusterType.T1: 1, ClusterType.T2A: 1, ClusterType.T2B: 1, ClusterType.T4: 2}
    for p in (3, 5, 7, 13, 31):
        for typ, n in want.items():
            for _ in range(3):
                inst = random_instance(p, typ, rng, max_depth=6, compute_expected=False)
                calls.clear()
                _, stats = euler_factor_with_stats(EulerInput(inst.f, p), rng)
                assert stats.cluster_type is typ
                assert len(calls) == n, (p, typ, calls)


def test_trivial_kernel_reuses_the_first_gcd(monkeypatch):
    # at p > 6 the kernel's gcd(fbar, fbar') also tells good reduction from
    # double roots only: two gcds per line, not a third for squarefreeness
    from g2lpoly import polyring

    p = 13
    good = _product([(-i, 1) for i in range(6)])
    double = tuple(c + p * d for c, d in zip(
        _product([(-1, 1), (-1, 1), (-2, 1), (-2, 1), (-3, 1), (-4, 1)]), (1, 3, 0, 2, 0, 0, 0)))
    calls = []
    fp_gcd = polyring.fp_gcd

    def counted(*args):
        calls.append(args)
        return fp_gcd(*args)

    monkeypatch.setattr(polyring, "fp_gcd", counted)
    for f, exc in ((good, GoodReduction), (double, NotAlmostGood)):
        nf = p_normalize(f, p)
        calls.clear()
        with pytest.raises(exc):
            classify(nf)
        assert len(calls) == 2, (f, calls)


def test_type_invariant_under_shift_and_scaling():
    rng = random.Random(22)
    for _ in range(40):
        p = rng.choice(SMALL_PRIMES)
        typ = rng.choice(list(ClusterType))
        inst = random_instance(p, typ, rng, compute_expected=False)
        a = rng.randrange(-30, 31)
        assert which_type(_nf(taylor_shift(inst.f, a), p)) is inst.type
        assert which_type(_nf(poly_scale(inst.f, p * p), p)) is inst.type
        assert which_type(_nf(poly_scale(inst.f, p), p)) is inst.type


def test_normalize_disc_changes_by_squares_and_p_powers():
    # the normalized model is Q-isomorphic, so the two discriminants agree
    # up to a power of p and a perfect square
    import math

    from g2lpoly.polyring import disc, vp

    rng = random.Random(23)
    for _ in range(25):
        p = rng.choice(SMALL_PRIMES)
        typ = rng.choice(list(ClusterType))
        inst = random_instance(p, typ, rng, compute_expected=False)
        f = poly_scale(taylor_shift(inst.f, rng.randrange(-9, 10) * p), p * p)
        d0, d1 = disc(f), disc(p_normalize(f, p).f)
        ratio_num = abs(d0 // p ** vp(d0, p))
        ratio_den = abs(d1 // p ** vp(d1, p))
        g = math.gcd(ratio_num, ratio_den)
        a, b = ratio_num // g, ratio_den // g
        # a/b must be the square of a rational: both reduced parts are squares
        assert math.isqrt(a) ** 2 == a and math.isqrt(b) ** 2 == b


def test_normalize_bounds_vdisc_of_ftilde():
    # vdisc_bound comes from Hadamard's inequality on the rescaled model and
    # drops by 30 per outer recentring step; it must never fall below the
    # valuation of a fresh discriminant of the unit-leading model
    rng = random.Random(24)
    models = []
    for _ in range(60):
        p = rng.choice((3, 5, 7, 13, 31))
        inst = random_instance(p, rng.choice(list(ClusterType)), rng, max_depth=6,
                               compute_expected=False)
        models.append((p, inst))
    # depth-8 clusters at p = 3, where v_p(disc) is largest against the height
    for inst in (gen_type1(3, 8, rng, False), gen_type2a(3, 8, 8, rng, False),
                 gen_type2b(3, 8, rng, False), gen_type4(3, 6, 8, rng, False)):
        models.append((3, inst))
    for p, inst in models:
        for f in (
            inst.f,
            taylor_shift(inst.f, rng.randrange(-40, 41)),
            poly_scale(inst.f, p),
            poly_scale(inst.f, p * p),
            perturb(inst, rng, 64).f,
            outer_cluster_model(inst.f, p, rng.choice((1, 2)), rng.randrange(-20, 21)),
        ):
            nf = p_normalize(f, p)
            assert nf.vdisc_bound >= vp(disc(nf.ftilde), p), (p, f)


# ---------------------------------------------- squarefree check modulo ELL

ELL = clusterclassify.ELL


def _counted_disc(monkeypatch):
    """The list of polynomials clusterclassify passes to disc from now on."""
    calls = []
    monkeypatch.setattr(clusterclassify, "disc",
                        lambda f, d=clusterclassify.disc: calls.append(f) or d(f))
    return calls


def _ell_scaled(f):
    """ELL^6 f(x / ELL): the same curve, its roots times ELL, so ELL^30 | disc."""
    return tuple(c * ELL ** (6 - i) for i, c in enumerate(f))


@pytest.mark.parametrize("bits", (64, 256))
def test_squarefree_check_falls_back_when_ell_divides_disc(monkeypatch, bits):
    calls = _counted_disc(monkeypatch)
    rng = random.Random(bits)
    # roots a and a + ELL: ELL^2 | disc(f) although f is squarefree
    size = 1 << (bits // 6)
    roots = [rng.randrange(size)]
    roots.append(roots[0] + ELL)
    while len(roots) < 6:
        if (r := rng.randrange(-size, size)) % 7 not in {s % 7 for s in roots}:
            roots.append(r)
    f = poly_scale(_product([(-r, 1) for r in roots]), 2 * rng.randrange(size) + 1)
    assert max(map(abs, f)).bit_length() > 31 and disc(f) % ELL == 0
    calls.clear()
    nf = p_normalize(f, 7)
    assert nf.f == f and len(calls) == 2
    # the same plant with a known Euler factor: an oracle model, perturbed
    # to the height and scaled by x -> x / ELL, which leaves p's factor alone
    for p, typ in ((5, ClusterType.T1), (7, ClusterType.T2B), (13, ClusterType.T4)):
        inst = random_instance(p, typ, rng, max_depth=4)
        want = euler_factor_with_stats(EulerInput(inst.f, p), random.Random(0))
        f = _ell_scaled(perturb(inst, rng, bits).f)
        assert disc(f) % ELL == 0
        calls.clear()
        got = euler_factor_with_stats(EulerInput(f, p), random.Random(0))
        assert got[0] == inst.expected and got == want
        assert len(calls) == 2


def test_squarefree_check_goes_exact_when_ell_divides_lc(monkeypatch):
    # reducing mod ELL drops the degree, so only the exact disc decides
    calls = _counted_disc(monkeypatch)
    f = (2, -1, 0, 3, 0, 1, ELL)
    assert disc(f) % ELL != 0
    nf = p_normalize(f, 5)
    assert nf.f == f and len(calls) == 1
    # ELL^2 f is the same curve and every coefficient reduces to 0
    rng = random.Random(28)
    for p, typ in ((3, ClusterType.T2A), (11, ClusterType.T1)):
        inst = random_instance(p, typ, rng, max_depth=4)
        calls.clear()
        lp, stats = euler_factor_with_stats(EulerInput(poly_scale(inst.f, ELL**2), p), rng)
        assert lp == inst.expected and stats.cluster_type is typ
        assert len(calls) == 1


def test_squarefree_check_at_p_equal_to_ell(monkeypatch):
    # p divides disc(f) at bad reduction, so at p = ELL the check reduces
    # modulo the other word prime and needs no exact disc
    calls = _counted_disc(monkeypatch)
    rng = random.Random(31)
    size = 1 << 38
    a = rng.randrange(size)
    roots = [a, a + ELL, a + 2 * ELL] + [rng.randrange(-size, size) for _ in range(3)]
    f = poly_scale(_product([(-r, 1) for r in roots]), 2 * rng.randrange(size) + 1)
    assert max(map(abs, f)).bit_length() >= 256 and disc(f) % ELL == 0
    nf = p_normalize(f, ELL)
    assert nf.f == f and len(calls) == 1
    assert classify(nf).type is ClusterType.T1


def test_squarefree_check_rejects_tall_repeated_factor(monkeypatch):
    # g^2 h at 256 bits: disc vanishes mod ELL, and the exact disc confirms it
    calls = _counted_disc(monkeypatch)
    rng = random.Random(29)
    g = (rng.getrandbits(64), rng.getrandbits(64), rng.getrandbits(64) | 1)
    h = (rng.getrandbits(128), -rng.getrandbits(128), rng.getrandbits(128) | 1)
    f = poly_mul(poly_mul(g, g), h)
    assert max(map(abs, f)).bit_length() >= 250
    with pytest.raises(NotSquarefree):
        p_normalize(f, 7)
    assert len(calls) == 2


def test_squarefree_check_on_quintics(monkeypatch):
    # a quintic is shifted off a root and reversed before the check; a small
    # one takes its exact disc at once, a tall one its disc mod ELL
    calls = _counted_disc(monkeypatch)
    rng = random.Random(30)
    small = (1, 0, 0, 0, 0, 1)  # x^5 + 1
    tall = tuple(rng.getrandbits(256) - (1 << 255) for _ in range(6))
    for f in (small, tall):
        calls.clear()
        nf = p_normalize(f, 5)
        assert len(calls) == 1 and deg(nf.ftilde) == 6
    assert nf.f == reverse6(f)  # tall(0) != 0: no shift
    calls.clear()
    with pytest.raises(NotSquarefree):
        p_normalize(poly_mul(poly_mul((-3, 1), (-3, 1)), (1, 2, 0, 5)), 5)  # (x - 3)^2 (...)
    assert len(calls) == 1
