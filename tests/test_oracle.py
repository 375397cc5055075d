import json
import random

import pytest

from g2lpoly.clusterclassify import ClusterType, p_normalize, which_type
from g2lpoly.eulercore import EulerInput, euler_factor
from g2lpoly.oracle import (
    MAX_ORACLE_PRIME,
    OracleError,
    build_type2a,
    gen_type1,
    gen_type2a,
    gen_type2b,
    gen_type4,
    job_line,
    perturb,
    random_instance,
)
from g2lpoly.polyring import poly_mul, reduce_mod

from _util import SMALL_PRIMES
from test_golden import DATA, golden_inputs


def test_worked_example_reproduced_by_generator():
    p = 5
    h1 = (0, 3, -4, 1)  # x(x-1)(x-3)
    h2 = (0, -1, 0, 1)  # x(x+1)(x-1)
    inst = build_type2a(p, 2, 4, 0, 1, h1, h2)
    literal = (1,)
    for fac in [(0, 1), (-25, 1), (-75, 1), (-1, 1), (624, 1), (-626, 1)]:
        literal = poly_mul(literal, fac)
    assert inst.f == literal
    assert inst.expected.coefficients() == (1, 0, 6, 0, 25)


def test_generators_classify_correctly():
    rng = random.Random(70)
    for _ in range(60):
        p = rng.choice(SMALL_PRIMES)
        typ = rng.choice(list(ClusterType))
        inst = random_instance(p, typ, rng, compute_expected=False)
        assert which_type(p_normalize(inst.f, p)) is inst.type
        assert inst.type is typ


def test_roundtrip_is_exact():
    rng = random.Random(71)
    for _ in range(60):
        p = rng.choice(SMALL_PRIMES)
        inst = random_instance(p, rng.choice(list(ClusterType)), rng)
        assert euler_factor(EulerInput(inst.f, p), rng) == inst.expected


def test_type2b_integrality():
    rng = random.Random(72)
    for _ in range(100):
        p = rng.choice((3, 5, 7, 11, 13))
        inst = gen_type2b(p, rng.randrange(1, 5), rng, compute_expected=False)
        assert all(isinstance(c, int) for c in inst.f)
        vlead = 1 if inst.f[-1] % p == 0 else 0
        assert vlead == inst.depths[0] % 2  # leading valuation tracks parity


def test_type1_depth_witness():
    rng = random.Random(73)
    from g2lpoly.eulercore import euler_factor_with_stats

    for n in (2, 4, 6, 8):
        inst = gen_type1(5, n, rng, compute_expected=False)
        _, st = euler_factor_with_stats(EulerInput(inst.f, 5), rng)
        assert st.loop_iters == (n,)


def test_depth_validation():
    rng = random.Random(74)
    with pytest.raises(ValueError):
        gen_type1(7, 3, rng)  # odd depth
    with pytest.raises(ValueError):
        gen_type2a(7, 1, 2, rng)  # parity mismatch
    with pytest.raises(ValueError):
        gen_type4(7, 4, 4, rng)  # m must exceed n
    with pytest.raises(OracleError):
        gen_type2b(MAX_ORACLE_PRIME + 1, 2, rng)


def test_quintuple_pattern_in_type4():
    rng = random.Random(75)
    inst = gen_type4(7, 2, 4, rng, compute_expected=False)
    fbar = reduce_mod(inst.f, 7)
    from g2lpoly.polyring import fp_gcd_k

    assert len(fp_gcd_k(fbar, 5, 7)[1]) - 1 == 1  # quintuple root present


def test_perturbation_preserves_everything():
    rng = random.Random(76)
    for _ in range(25):
        p = rng.choice(SMALL_PRIMES)
        inst = random_instance(p, rng.choice(list(ClusterType)), rng)
        pert = perturb(inst, rng, bits=256)
        assert max(abs(c) for c in pert.f).bit_length() >= 200
        assert which_type(p_normalize(pert.f, p)) is inst.type
        assert euler_factor(EulerInput(pert.f, p), rng) == inst.expected


def test_job_line_format():
    rng = random.Random(77)
    inst = gen_type1(7, 2, rng, compute_expected=False)
    line = job_line(inst)
    head, coeffs = line.split(":")
    assert head == "7"
    assert coeffs.startswith("[") and coeffs.endswith("]")
    assert tuple(int(t) for t in coeffs[1:-1].split(",")) == inst.f


def test_oracle_draws_the_golden_inputs():
    # the golden test replays the stored models, so only this shows that the
    # generators still draw them
    stored = json.loads(DATA.read_text())
    keys = ("kind", "f", "p", "h", "max_iters")
    assert [{k: case[k] for k in keys} for case in stored] == golden_inputs()
