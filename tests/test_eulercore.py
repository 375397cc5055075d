import random
import sys
from pathlib import Path

import pytest

from g2lpoly import eulercore, genus1, polyring
from g2lpoly.cli import process_line
from g2lpoly.clusterclassify import ClusterType
from g2lpoly.errors import GoodReduction, NotAlmostGood, NotSquarefree
from g2lpoly.eulercore import (
    EulerInput,
    LPoly2,
    euler_factor,
    euler_factor_with_stats,
    validate_lpoly2,
)
from g2lpoly.modarith import QuadOrder
from g2lpoly.oracle import (
    gen_type1,
    gen_type2a,
    gen_type2b,
    gen_type4,
    random_instance,
)
from g2lpoly.oracle import _planted_conjugate_pair, _planted_cubic, _random_sqfree_cubic
from g2lpoly.polyring import complete_square, poly_add, poly_mul, poly_scale, taylor_shift

from _util import SMALL_PRIMES, brute_count_fp, least_nonsquare, outer_cluster_model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from differential import singular_plant  # noqa: E402  (scripts/ is no package)


def _product(factors):
    f = (1,)
    for fac in factors:
        f = poly_mul(f, fac)
    return f


def _worked_example_curve(p=5):
    return _product(
        [(0, 1), (-(p**2), 1), (-3 * p**2, 1), (-1, 1), (-1 + p**4, 1), (-1 - p**4, 1)]
    )


def test_worked_example():
    # reference traces recomputed from scratch: y^2 = -x(x-1)(x-3) and
    # y^2 = x^3 - x over F_5
    e1 = (0, 2, 4, 4)  # -x(x-1)(x-3) mod 5
    e2 = (0, -1, 0, 1)
    t1 = 5 + 1 - brute_count_fp(e1, 5)
    t2 = 5 + 1 - brute_count_fp(e2, 5)
    assert (t1, t2) == (2, -2)
    want = LPoly2(-(t1 + t2), t1 * t2 + 2 * 5, 5)
    assert want.coefficients() == (1, 0, 6, 0, 25)

    lp, stats = euler_factor_with_stats(
        EulerInput(_worked_example_curve(), 5), random.Random(0)
    )
    assert stats.cluster_type is ClusterType.T2A
    assert sorted(stats.loop_iters) == [2, 4]
    assert lp == want


def test_per_type_roundtrips():
    rng = random.Random(50)
    for typ in ClusterType:
        for _ in range(25):
            p = rng.choice(SMALL_PRIMES)
            inst = random_instance(p, typ, rng)
            lp = euler_factor(EulerInput(inst.f, p), rng)
            assert lp == inst.expected, (typ, p, inst.depths, inst.f)
    # characteristic 3, shifted so that the inner centers have nonzero digits:
    # every inner level takes a cube root, over F_9 for type 2b (Frobenius
    # inverse) and over F_3 for type 1
    a = int("2121212", 3)
    for inst in (gen_type2b(3, 2, rng), gen_type2b(3, 3, rng), gen_type2b(3, 5, rng),
                 gen_type1(3, 4, rng), gen_type1(3, 6, rng)):
        lp, st = euler_factor_with_stats(EulerInput(taylor_shift(inst.f, a), 3), rng)
        assert (lp, st.loop_iters) == (inst.expected, inst.depths), (inst.type, inst.f)


def test_normalize_v_is_the_parity_of_the_power_of_p():
    # y -> p y turns f into p^2 f, so p_normalize keeps v in {0, 1}: f and
    # p^2 f report the same v, and p f the other one
    rng = random.Random(52)
    p = 7
    for typ in ClusterType:
        inst = random_instance(p, typ, rng, max_depth=4)
        vs = []
        for k in range(3):
            lp, st = euler_factor_with_stats(EulerInput(tuple(p**k * c for c in inst.f), p), rng)
            assert (st.cluster_type, lp) == (typ, inst.expected)
            vs.append(st.normalize_v)
        assert vs in ([0, 1, 0], [1, 0, 1]), (typ, vs)


def test_loop_iterations_equal_depths():
    rng = random.Random(51)
    inst = gen_type1(7, 4, rng)
    _, st = euler_factor_with_stats(EulerInput(inst.f, 7), rng)
    assert st.loop_iters == (4,)
    inst = gen_type2a(11, 2, 6, rng)
    _, st = euler_factor_with_stats(EulerInput(inst.f, 11), rng)
    assert sorted(st.loop_iters) == [2, 6]
    inst = gen_type2b(7, 3, rng)
    _, st = euler_factor_with_stats(EulerInput(inst.f, 7), rng)
    assert st.loop_iters == (3,)
    inst = gen_type4(7, 2, 6, rng)
    _, st = euler_factor_with_stats(EulerInput(inst.f, 7), rng)
    assert st.loop_iters == (2, 4)  # outer n, inner m - n


def test_type4_outer_loop_at_small_primes():
    # at p = 5 each next centre comes from power_root's Frobenius branch
    # (k = 5 = p), at p = 3 from its ordinary one; n outer steps, m - n inner
    rng = random.Random(57)
    for p in (3, 5):
        for n in range(1, 5):
            for m in (n + 2, n + 4):
                inst = gen_type4(p, n, m, rng)
                lp, st = euler_factor_with_stats(EulerInput(inst.f, p), rng)
                assert lp == inst.expected
                assert st.cluster_type is ClusterType.T4
                assert st.loop_iters == (n, m - n)


def test_type1_exit_parity_allows_alternate_disc_checks():
    # the separability test can only fire at even iterations for type 1, so
    # running it every second iteration would change nothing
    rng = random.Random(52)
    for _ in range(20):
        p = rng.choice(SMALL_PRIMES)
        inst = gen_type1(p, rng.choice((2, 4, 6)), rng, compute_expected=False)
        _, st = euler_factor_with_stats(EulerInput(inst.f, p), rng)
        assert st.loop_iters[0] % 2 == 0


def test_type2a_odd_depth_variant():
    rng = random.Random(53)
    inst = gen_type2a(13, 1, 3, rng)
    assert inst.f[-1] % 13 == 0  # v = 1 model
    lp = euler_factor(EulerInput(inst.f, 13), rng)
    assert lp == inst.expected


def test_type2b_output_shape():
    rng = random.Random(54)
    for _ in range(15):
        p = rng.choice(SMALL_PRIMES)
        inst = gen_type2b(p, rng.randrange(1, 5), rng)
        lp = euler_factor(EulerInput(inst.f, p), rng)
        assert lp.a1 == 0
        assert abs(lp.a2) <= 2 * p  # a2 = -trace over F_{p^2}
        assert lp == inst.expected


def test_good_reduction_passthrough():
    f = _product([(-i, 1) for i in range(6)])
    with pytest.raises(GoodReduction):
        euler_factor(EulerInput(f, 101), random.Random(0))


def test_non_squarefree_rejected():
    f = poly_mul(_product([(-1, 1), (-1, 1)]), (1, 0, 0, 0, 1))
    with pytest.raises(NotSquarefree):
        euler_factor(EulerInput(f, 7), random.Random(0))


class _CountingRandom(random.Random):
    """A stream that counts its draws (randrange and choice go through
    getrandbits once both methods are overridden)."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def test_determinism_and_las_vegas_agreement(monkeypatch):
    # only the group-order search draws, and every genus 1 field here is
    # below 2^13 (p^2 <= 89^2 for type 2b), so no call reads its rng; type 2a
    # at p = 1 mod 4 takes the least nonsquare, 2 at p = 5 and 3 at p = 17
    # and 41, where 2 is a square
    rng = random.Random(57)
    for p in (5, 7, 17, 41, 89):
        for typ in ClusterType:
            inst = random_instance(p, typ, rng, max_depth=4)
            stream = _CountingRandom(1)
            assert euler_factor(EulerInput(inst.f, p), stream) == inst.expected, (p, typ)
            assert stream.draws == 0, (p, typ)
    # type 2b counts over F_{p^2} by BSGS, whose random points differ from
    # stream to stream: walks of one round at p = 97, of several at 4093
    walks = []
    walk = genus1._Curve.walk
    monkeypatch.setattr(genus1._Curve, "walk", lambda self, start, chain, n:
                        walks.append(n) or walk(self, start, chain, n))
    for p in (97, 1021, 4093):
        inst = gen_type2b(p, rng.randrange(1, 5), rng, compute_expected=False)
        a = euler_factor(EulerInput(inst.f, p), random.Random(1))
        for seed in range(2, 7):
            assert euler_factor(EulerInput(inst.f, p), random.Random(seed)) == a, (p, seed)
    assert min(walks) <= genus1.LANES < max(walks)


def test_output_invariances():
    rng = random.Random(58)
    for _ in range(20):
        p = rng.choice(SMALL_PRIMES)
        typ = rng.choice(list(ClusterType))
        inst = random_instance(p, typ, rng)
        base = inst.expected
        a = rng.randrange(-40, 41)
        assert euler_factor(EulerInput(taylor_shift(inst.f, a), p), rng) == base
        assert euler_factor(EulerInput(poly_scale(inst.f, p * p), p), rng) == base
        assert euler_factor(EulerInput(poly_scale(inst.f, p), p), rng) == base


def _moebius(f, a, b, c, d):
    """(cX + d)^6 f((aX + b) / (cX + d)), the same curve when ad - bc = +-1
    or when x = (aX + b) / (cX + d) is p^k X + b or (X + b) / p^k."""
    out = ()
    for i, fi in enumerate(f):
        term = (fi,)
        for _ in range(i):
            term = poly_mul(term, (b, a))
        for _ in range(6 - i):
            term = poly_mul(term, (d, c))
        out = poly_add(out, term)
    return out


def _unimodular(rng):
    """(a, b, c, d) with ad - bc = +-1: a few random row operations and swaps."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(3):
        t = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            a, b, c, d = c, d, a, b
        a, b = a + t * c, b + t * d
    return a, b, c, d


def test_twist_and_inversion_relations():
    # u f for a nonsquare unit u is the quadratic twist, L(T) -> L(-T), which
    # negates a1 (type 2b's a1 is 0); (X + d)^6 f(1/(X + d)) is the same
    # curve, and so are the models from x -> (aX + b) / (cX + d) with
    # ad - bc = +-1, x -> p^k X + b and x -> (X + b) / p^k.  They hand
    # classify models centred away from the oracle's plants, and scaled by
    # powers of p.
    rng = random.Random(64)
    for p in (3, 5, 7, 13, 61):
        u = least_nonsquare(p)
        for typ in ClusterType:
            for _ in range(6):
                inst = random_instance(p, typ, rng)
                lp = inst.expected
                twisted = euler_factor(EulerInput(poly_scale(inst.f, u), p), rng)
                assert twisted == LPoly2(-lp.a1, lp.a2, p), (p, typ, inst.f)
                d = rng.randrange(-20, 21)
                inverted = taylor_shift(tuple(reversed(inst.f)), d)
                assert euler_factor(EulerInput(inverted, p), rng) == lp, (p, typ, d, inst.f)
                b, pk = rng.randrange(-20, 21), p ** rng.choice((1, 2))
                for move in (_unimodular(rng), (pk, b, 0, 1), (1, b, 0, pk)):
                    g = _moebius(inst.f, *move)
                    assert euler_factor(EulerInput(g, p), rng) == lp, (p, typ, move, inst.f)


def test_model_change_h_to_completed_square():
    # (f, h) = (F - u^2, 2u) completes to 4F, the same curve as F
    rng = random.Random(59)
    from g2lpoly.polyring import poly_sub

    for _ in range(15):
        p = rng.choice(SMALL_PRIMES)
        inst = random_instance(p, rng.choice(list(ClusterType)), rng)
        u = tuple(rng.randrange(-5, 6) for _ in range(4))
        f = poly_sub(inst.f, poly_mul(u, u))
        h = poly_scale(u, 2)
        assert complete_square(f, h) == poly_scale(inst.f, 4)
        via_h = euler_factor(EulerInput(f, p, h=h), rng)
        assert via_h == inst.expected


def test_h_line_computes_one_discriminant(monkeypatch):
    # the worked example as y^2 + 2y = f - 1: completing the square gives 4f,
    # and only p_normalize takes the integer discriminant
    from g2lpoly import clusterclassify, polyring

    calls = []
    for module in (polyring, clusterclassify):
        monkeypatch.setattr(module, "disc", lambda f, d=module.disc: calls.append(f) or d(f))
    f = _worked_example_curve()
    lp = euler_factor(EulerInput((f[0] - 1,) + f[1:], 5, h=(2,)), random.Random(0))
    assert lp.coefficients() == (1, 0, 6, 0, 25)
    assert len(calls) == 1


def test_square_scaling_of_model():
    # 4f defines the same curve as f: the completed-square convention is safe
    rng = random.Random(60)
    for _ in range(10):
        p = rng.choice(SMALL_PRIMES)
        inst = random_instance(p, rng.choice(list(ClusterType)), rng)
        assert euler_factor(EulerInput(poly_scale(inst.f, 4), p), rng) == inst.expected


def test_validate_lpoly2():
    assert validate_lpoly2(LPoly2(0, 6, 5))
    assert not validate_lpoly2(LPoly2(20, 0, 5))
    assert validate_lpoly2(LPoly2(0, 0, 5))
    assert validate_lpoly2(LPoly2(0, 0, 101))
    # a2 beyond 6p violates the Weil region
    assert not validate_lpoly2(LPoly2(0, 6 * 7 + 1, 7))


def test_every_output_validates():
    rng = random.Random(61)
    for _ in range(40):
        p = rng.choice(SMALL_PRIMES)
        inst = random_instance(p, rng.choice(list(ClusterType)), rng, compute_expected=False)
        assert validate_lpoly2(euler_factor(EulerInput(inst.f, p), rng))


def test_euler_input_degree_five():
    # quintic models go through the reversal inside normalization
    rng = random.Random(62)
    f = _product([(-1, 1), (-2, 1), (-3, 1), (-4, 1), (-5, 1)])
    with pytest.raises(GoodReduction):
        euler_factor(EulerInput(f, 101), rng)


def test_twist_of_good_reduction_also_routes_to_good_reduction():
    f = _product([(-i, 1) for i in range(6)])
    with pytest.raises(GoodReduction):
        euler_factor(EulerInput(poly_scale(f, 101), 101), random.Random(0))


def test_quintic_model_of_worked_example():
    # the worked curve has a root at x = 0, so x^6 F(1/x) is a quintic model
    # of the same curve; both entries must give the same factor
    F = _worked_example_curve()
    assert F[0] == 0
    quintic = tuple(reversed(F[1:]))
    assert len(quintic) - 1 == 5
    lp = euler_factor(EulerInput(quintic, 5), random.Random(1))
    assert lp.coefficients() == (1, 0, 6, 0, 25)


def test_quintic_model_with_nonzero_shift():
    # shifting the quintic so it vanishes at 0 forces the root scan past a=0
    F = _worked_example_curve()
    quintic = tuple(reversed(F[1:]))
    shifted = taylor_shift(quintic, 1)  # root at 0 since the quintic vanishes at 1
    from g2lpoly.polyring import poly_eval

    assert poly_eval(shifted, 0) == 0
    lp = euler_factor(EulerInput(shifted, 5), random.Random(2))
    assert lp.coefficients() == (1, 0, 6, 0, 25)


def test_max_iters_safety_bound():
    rng = random.Random(63)
    inst = gen_type1(7, 6, rng, compute_expected=False)
    with pytest.raises(NotAlmostGood):
        euler_factor(EulerInput(inst.f, 7, max_iters=2), rng)
    lp = euler_factor(EulerInput(inst.f, 7, max_iters=6), rng)  # exactly enough
    assert validate_lpoly2(lp)


def test_outer_cluster_round_trip():
    # p^(6k) f((x - a)/p^k) is the same curve with every root inside one
    # outer cluster: p_normalize recenters k times before classification
    rng = random.Random(64)
    for p in (3, 5, 7, 13, 31):
        for typ in ClusterType:
            inst = random_instance(p, typ, rng, max_depth=4)
            for k in (1, 2):
                f = outer_cluster_model(inst.f, p, k, rng.randrange(-20, 21))
                lp = euler_factor(EulerInput(f, p), rng)
                assert lp == inst.expected, (typ, p, k, inst.depths)


def test_inseparable_cubic_without_triple_root_rejected():
    # the planted cubic x^3 - x^2 + p reduces to x^2 (x - 1): at the bottom of
    # a depth-2 cluster the descent meets an inseparable cubic that is no
    # cube, over F_p (type 1) and over F_{p^2} (type 2b)
    for p in (3, 7):
        planted = (p, 0, -1, 1)
        f = poly_mul((1, -1, 0, 1), _planted_cubic(planted, 0, 2, p))
        order = QuadOrder(1, 0, p)
        g = _planted_conjugate_pair(tuple((c, 0) for c in planted), 2, order)
        for f, curve in ((f, "type 1 curve 2"), (g, "type 2b curve 1")):
            with pytest.raises(NotAlmostGood, match=f"{curve} is singular"):
                euler_factor(EulerInput(f, p), random.Random(p))


def test_type4_colliding_pair_rejected():
    # the type 4 construction with a2 = a1 + p: the two roots at depth n
    # meet again one level down, so the residual cubic x (x - a1)^2 is singular
    rng = random.Random(65)
    for _ in range(20):
        p = rng.choice((3, 5, 7, 11, 13, 31))
        n = rng.randrange(1, 4)
        m = n + rng.choice((2, 4))
        s0, s1 = rng.sample(range(p), 2)
        a1 = rng.randrange(1, p)
        a2 = a1 + p
        f = poly_mul(
            poly_mul((-s0, 1), (-(s1 + p**n * a1), 1)),
            poly_mul((-(s1 + p**n * a2), 1),
                     _planted_cubic(_random_sqfree_cubic(p, rng), s1, m, p)),
        )
        if n % 2:
            f = poly_scale(f, p)
        with pytest.raises(NotAlmostGood, match="type 4 curve 1 is singular"):
            euler_factor(EulerInput(f, p), rng)


SINGULAR_CURVES = [(ClusterType.T1, 1), (ClusterType.T1, 2), (ClusterType.T2A, 1),
                   (ClusterType.T2A, 2), (ClusterType.T2B, 1), (ClusterType.T4, 1),
                   (ClusterType.T4, 2)]


@pytest.mark.parametrize("typ, curve", SINGULAR_CURVES)
def test_singular_curve_is_not_almost_good(typ, curve):
    # one gate for every curve: Genus1Model's separability check, read by
    # the driver as NotAlmostGood naming the type and the curve (type 1's
    # loose curve is rejected by classify, under the same name)
    rng = random.Random(f"{typ.value}|{curve}")
    for p in (5, 7, 13):
        for depth in (2, 4) if typ is ClusterType.T1 else (1, 2, 3):
            f = singular_plant(typ, curve, p, depth, rng)
            with pytest.raises(NotAlmostGood, match=f"type {typ.value} curve {curve} is singular"):
                euler_factor(EulerInput(f, p), rng)
            line = f"{p}:[{','.join(map(str, f))}]"
            assert process_line(line) == "ERR:not-almost-good"


def test_singular_second_curve_is_found_before_counting(monkeypatch):
    counted = []
    monkeypatch.setattr(eulercore, "lpoly1", lambda *args: counted.append(args))
    rng = random.Random(66)
    for typ, depth in ((ClusterType.T1, 2), (ClusterType.T2A, 1), (ClusterType.T4, 1)):
        f = singular_plant(typ, 2, 7, depth, rng)
        with pytest.raises(NotAlmostGood, match=f"type {typ.value} curve 2 is singular"):
            euler_factor(EulerInput(f, 7), rng)
    assert counted == []


@pytest.mark.parametrize("p", [13, 127, 1021])
def test_one_separability_check_per_curve(monkeypatch, p):
    # field_disc runs once per Genus1Model, each a cubic, and nowhere else:
    # classify and type 2a's centres read the quadratic kernel's discriminant
    # on ints; classify reads type 1's loose cubic off deg gcd(fbar, fbar'),
    # so the F_p gcds of a type 1 factor are the two of fp_gcd_k (p > 6)
    calls = {"field_disc": 0, "fp_gcd": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(genus1, "field_disc", counting("field_disc", genus1.field_disc))
    monkeypatch.setattr(polyring, "fp_gcd", counting("fp_gcd", polyring.fp_gcd))
    rng = random.Random(p)
    for typ, want in ((ClusterType.T1, 2), (ClusterType.T2A, 2), (ClusterType.T2B, 1),
                      (ClusterType.T4, 2)):
        inst = random_instance(p, typ, rng, max_depth=4, compute_expected=p < 1000)
        calls.update(field_disc=0, fp_gcd=0)
        lp = euler_factor(EulerInput(inst.f, p), rng)
        assert inst.expected in (None, lp)
        assert calls["field_disc"] == want, typ
        if typ is ClusterType.T1:
            assert calls["fp_gcd"] == 2
