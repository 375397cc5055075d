"""The benchmark's own tests: seeded inputs repeat, the large-prime rules
match exhaustive counts, and a short run of each workload passes its output
check.  Run with `python -m pytest perfbench`."""

import pytest

import run

run.locate_package()

import tracing  # noqa: E402  (needs the package on sys.path)
import workloads  # noqa: E402

SMALL = {
    "oracle_mixed": {"reps": 1},
    "height_256": {"reps": 1},
    "large_p": {"reps": 1, "grid": 3},
    "cli_batch": {"reps": 1},
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    gen = workloads.WORKLOADS[name]
    a, b, c = gen(7, **SMALL[name]), gen(7, **SMALL[name]), gen(8, **SMALL[name])
    key = lambda pool: [(x.line, x.expected, x.rng_seed) for x in pool.cases]
    assert key(a) == key(b)
    assert a.setup_case.line == b.setup_case.line
    assert key(a) != key(c)


def test_large_prime_rules_match_exhaustive_counts():
    assert workloads.self_test(3) > 0


def test_cm_trace_matches_brute_force():
    import random

    rng = random.Random(0)
    for p in (101, 109, 1013, 1019):
        for A in (1, 2, p - 1, 17):
            count = 1 + sum(1 + workloads.chi(x ** 3 + A * x, p) for x in range(p))
            try:
                t = workloads.trace_1728(A, p, rng)
            except workloads.AmbiguousTrace:
                continue
            assert t == p + 1 - count, (p, A)
    with pytest.raises(workloads.AmbiguousTrace):  # Z/2 x Z/4 cannot tell 8 from 20
        workloads.trace_1728(-1, 13, random.Random(0))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_output_check(name):
    result, record = run.run_one(name, 5, 0.01, 0, SMALL[name])
    assert result["correct"], record["info"]["failure_examples"]
    assert result["failed"] == 0
    assert set(result["metrics"]) == {
        "factors_per_s", "latency_p50_ms", "latency_tail_ms", "latency_p50_ms.T1",
        "latency_p50_ms.T2A", "latency_p50_ms.T2B", "latency_p50_ms.T4", "setup_s",
        "batch_lines_per_s.j1", "batch_lines_per_s.jN",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_restores_every_name():
    hooked = [(owner, attr, vars(owner)[attr])
              for owner, attr, *_ in tracing.FACTOR_HOOKS + tracing.CLI_HOOKS]
    stats = vars(tracing.eulercore)["euler_factor_with_stats"]
    hooked.append((tracing.eulercore, "euler_factor_with_stats", stats))
    result, record = run.run_one("large_p", 5, 0.01, 1, SMALL["large_p"])
    assert result["correct"]
    assert all(vars(owner)[attr] is fn for owner, attr, fn in hooked)
    m = result["metrics"]
    assert m["share.bsgs"]["value"] > m["share.exhaustive"]["value"] == 0
    assert m["polyring.disc.calls.normalize"]["value"] == 1
