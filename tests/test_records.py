"""The result and input records are immutable named tuples: their checks,
defaults, reprs and pickling, and the cold start they buy."""

import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import g2lpoly
from g2lpoly import eulercore
from g2lpoly.clusterclassify import ClusterType, classify, p_normalize
from g2lpoly.errors import DegreeError, HasseViolation, NotSquarefree
from g2lpoly.eulercore import EulerInput, LPoly2, RunStats, euler_factor
from g2lpoly.genus1 import Genus1Model, LPoly1
from g2lpoly.modarith import Fp, Fp2
from g2lpoly.oracle import gen_type1

F7 = Fp(7)
F9 = Fp2(3, 1, 0)  # F_3[z]/(z^2 + 1)


def _records():
    inst = gen_type1(5, 2, random.Random(3))
    nf = p_normalize(inst.f, 5)
    return [
        LPoly2(-1, 4, 5),
        EulerInput(inst.f, 5),
        EulerInput(inst.f, 5, (1, 1), 3),
        RunStats(ClusterType.T2A, (2, 4), 1),
        RunStats(),
        nf,
        classify(nf),
        Genus1Model(F7, (1, 1, 0, 1)),
        Genus1Model(F9, ((1, 0), (1, 0), (0, 0), (1, 0))),
        LPoly1(-4, 7),
        inst,
    ]


def test_genus1_model_reduces_and_trims():
    m = Genus1Model(F7, (8, -6, 7, 1, 0, 14))  # x^3 + x + 1 once reduced
    assert m.g == (1, 1, 0, 1) and m.degree == 3
    m2 = Genus1Model(F9, ((1, 0), (1, 0), (0, 0), (1, 0), (0, 0), (0, 0)))
    assert m2.g == ((1, 0), (1, 0), (0, 0), (1, 0)) and m2.degree == 3
    assert Genus1Model(field=F7, g=(1, 0, 0, 0, 1)).degree == 4


def test_genus1_model_checks_degree_and_singularity():
    with pytest.raises(DegreeError):
        Genus1Model(F7, (1, 1, 1))
    with pytest.raises(DegreeError):
        Genus1Model(F7, (1, 0, 0, 7, 0, 1))  # a quintic
    with pytest.raises(NotSquarefree):
        Genus1Model(F7, (0, 0, 0, 1))  # x^3
    with pytest.raises(NotSquarefree):
        Genus1Model(F7, (7, 0, 14, 1))  # reduces to x^3


def test_lpoly1_checks_hasse():
    assert LPoly1(-5, 7) == (-5, 7)  # 25 <= 28
    with pytest.raises(HasseViolation, match=r"\|6\| > 2\*sqrt\(7\)"):
        LPoly1(6, 7)


def test_euler_input_defaults():
    inp = EulerInput((1, 0, 0, 0, 0, 0, 1), 7)
    assert inp.h is None and inp.max_iters is None
    assert EulerInput(f=(1,), p=3, max_iters=2) == ((1,), 3, None, 2)
    assert RunStats() == (None, (), 0)


def test_lpoly2_from_traces_coefficients_and_repr():
    lp = LPoly2.from_traces(2, -2, 5)
    assert lp == LPoly2(0, 6, 5)
    assert lp.coefficients() == (1, 0, 6, 0, 25)
    assert LPoly2(-3, 1, 7).coefficients() == (1, -3, 1, -21, 49)
    assert repr(LPoly2(-3, 1, 7)) == "LPoly2(a1=-3, a2=1, p=7)"
    assert f"{LPoly2(-3, 1, 7)}" == "LPoly2(a1=-3, a2=1, p=7)"


def test_hasse_violation_prints_the_factor(monkeypatch):
    inst = gen_type1(5, 2, random.Random(3))
    monkeypatch.setattr(eulercore, "validate_lpoly2", lambda lp: False)
    with pytest.raises(HasseViolation) as err:
        euler_factor(EulerInput(inst.f, 5), random.Random(1))
    e = inst.expected
    assert str(err.value) == f"Weil bounds fail for LPoly2(a1={e.a1}, a2={e.a2}, p=5)"


def test_records_are_immutable():
    for rec in _records():
        with pytest.raises(AttributeError):
            rec.p = 3
        with pytest.raises(AttributeError):
            rec.extra = 1


def test_records_survive_a_pickle_round_trip():
    for rec in _records():
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec)
        assert back == rec and repr(back) == repr(rec)


_COLD_START = """
import io, sys
before = set(sys.modules)
import g2lpoly
added = set(sys.modules) - before
heavy = added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
assert not heavy, f"import g2lpoly loaded {sorted(heavy)}"
assert "g2lpoly.oracle" not in sys.modules, "import g2lpoly loaded the oracle"

import random
from g2lpoly.clusterclassify import ClusterType
from g2lpoly.oracle import job_line, random_instance
rng = random.Random(4)
lines = [job_line(random_instance(p, t, rng, max_depth=4, compute_expected=False))
         for p in (7, 67) for t in ClusterType]
lines += ["5:[0,0,0,0,0,0,1]", "11:[0,-1,0,0,0,0,1]", "9:[1,2,3]", "junk"]

before = set(sys.modules)
from g2lpoly import cli
out1 = io.StringIO()
assert cli.run_batch(lines, out1, jobs=1) == 0
added = set(sys.modules) - before
assert "numpy" in added, "no line reached an exhaustive count"
pool = added & {"multiprocessing", "concurrent.futures.process", "traceback"}
assert not pool, f"a one-job batch loaded {sorted(pool)}"

out2 = io.StringIO()
assert cli.run_batch(lines, out2, jobs=2) == 0
assert "multiprocessing" in sys.modules
assert out2.getvalue() == out1.getvalue(), (out1.getvalue(), out2.getvalue())
assert len(out1.getvalue().splitlines()) == len(lines)
"""


def test_cold_start_loads_neither_dataclasses_nor_a_pool():
    env = dict(os.environ, PYTHONPATH=str(Path(g2lpoly.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
