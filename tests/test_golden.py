"""Golden differential test: euler_factor_with_stats on a fixed set of inputs
must keep giving the recorded outcome.

golden_euler.json holds about 500 seeded inputs (oracle models of all four
types at small primes, shifted, recentered, p-scaled, perturbed and noised
copies of them, junk sextics and quintics, some with an h, each with
max_iters None, 1 or 2) and, for each, either (coefficients, cluster type,
loop_iters) or the class of the exception raised.  It pins refactors: a
change that alters any of these is a behaviour change and must say so.

Regenerate the file only for an intended behaviour change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import random
import sys
from pathlib import Path

from g2lpoly import oracle
from g2lpoly.clusterclassify import ClusterType
from g2lpoly.eulercore import EulerInput, euler_factor_with_stats
from g2lpoly.polyring import poly_add, poly_scale, taylor_shift

from _util import outer_cluster_model

DATA = Path(__file__).with_name("golden_euler.json")
PRIMES = (3, 5, 7, 13, 31, 61)
KINDS = ("oracle", "shifted", "recentered", "p-scaled", "perturbed", "noised",
         "h-model", "junk")
COUNT = 504


def golden_inputs(seed: int = 2024, count: int = COUNT):
    """count dicts {kind, f, p, h, max_iters}, drawn from one seeded stream."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        kind = KINDS[i % len(KINDS)]
        p = rng.choice(PRIMES)
        typ = rng.choice(list(ClusterType))
        inst = oracle.random_instance(p, typ, rng, max_depth=6, compute_expected=False)
        f, h = inst.f, None
        if kind == "shifted":
            f = taylor_shift(f, rng.randrange(-50, 51))
        elif kind == "recentered":
            f = outer_cluster_model(f, p, rng.choice((1, 2)), rng.randrange(-20, 21))
        elif kind == "p-scaled":
            f = poly_scale(f, p ** rng.choice((1, 2)))
        elif kind == "perturbed":
            f = oracle.perturb(inst, rng, bits=rng.choice((64, 128))).f
        elif kind == "noised":
            # noise at p^k with k inside the descent: the clusters break apart
            noise = tuple(rng.randrange(-p, p + 1) for _ in range(7))
            f = poly_add(f, poly_scale(noise, p ** rng.randrange(1, 5)))
        elif kind == "h-model":
            # 4f + h^2 = 4 (f + p^30 h0^2): a perturbation far below any descent
            h = tuple(2 * p**15 * rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4)))
        elif kind == "junk":
            bound = p ** rng.randrange(1, 4)
            f = tuple(rng.randrange(-bound, bound + 1) for _ in range(rng.choice((6, 7))))
            if rng.random() < 0.5:
                h = tuple(rng.randrange(-3, 4) for _ in range(3))
        out.append({"kind": kind, "f": list(f), "p": p,
                    "h": None if h is None else list(h),
                    "max_iters": rng.choice((None, None, 1, 2))})
    return out


def outcome(case, index: int):
    inp = EulerInput(tuple(case["f"]), case["p"],
                     h=None if case["h"] is None else tuple(case["h"]),
                     max_iters=case["max_iters"])
    try:
        lp, stats = euler_factor_with_stats(inp, random.Random(index))
    except Exception as exc:  # the exception class is part of the outcome
        return {"exc": type(exc).__name__}
    return {"lp": list(lp.coefficients()), "type": stats.cluster_type.value,
            "iters": list(stats.loop_iters)}


def test_golden_outcomes():
    cases = json.loads(DATA.read_text())
    assert len(cases) == COUNT
    diffs = [(i, case["kind"], case["p"], case["out"], got)
             for i, case in enumerate(cases)
             if (got := outcome(case, i)) != case["out"]]
    assert not diffs, f"{len(diffs)} outcomes changed, first: {diffs[:3]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    cases = golden_inputs()
    for i, case in enumerate(cases):
        case["out"] = outcome(case, i)
    DATA.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n")
