"""In-process A/B of this tree's g2lpoly against another checkout's.

    python3 scripts/ab.py --checkout ../parent-clone --workload large_p
    python3 scripts/ab.py --checkout ../parent-clone --workload all --passes 5
    python3 scripts/ab.py --checkout ../parent-clone --workload all --setup 15

Loads both packages into one interpreter, this tree's as g2lpoly and the
other's under another module name, and builds each pool with this tree's
perfbench/workloads.py.  Every pass runs each case through both packages
back to back, the side that goes first alternating from case to case, with
a fresh Random(case.rng_seed) per call, as perfbench's closed loop does.
One process and one set of inputs leave no room for the few-percent bias
that separate checkouts in separate processes can show.

Per workload it prints factors/s for each side (cases over the sum of the
per-case median times), the p50 and perfbench's tail (run.tail) of those
medians over all cases, and their per-type p50s, each with the ratio
other/this (above 1: this tree is faster).  Reject lines (cli_batch) get one
p50 per expected token (parse, not-squarefree, good-reduction,
not-almost-good): their paths differ in cost about thirtyfold, so a median
over all of them lands between paths and swings on identical trees.  It
exits 1 if any case's outcome (the factor, the ERR: token or the exception
class) differs between the two packages; outcomes that differ from the
expected value are counted.

With --setup N it times cold starts instead, in fresh interpreters: per
workload, N rounds that each run, for both trees in alternating order, one
import-only child and one of perfbench's own set-up children (run._SETUP_CHILD:
import g2lpoly, then the workload's setup case).  It prints the median import
and set-up times of each side and the ratio this/other (below 1: this tree
starts faster), and exits 1 if the two trees print different factors.
"""

import argparse
import gc
import importlib
import importlib.util
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OTHER = "g2lpoly_other"


def load_other(checkout: Path):
    """The other checkout's g2lpoly, imported as OTHER."""
    pkg = checkout / "src" / "g2lpoly"
    spec = importlib.util.spec_from_file_location(
        OTHER, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[OTHER] = module
    spec.loader.exec_module(module)
    return module


def caller(package, via_cli, format_lp):
    """case -> outcome string through the package's euler_factor or CLI line."""
    cli = importlib.import_module(f"{package}.cli")
    euler_factor = importlib.import_module(f"{package}.eulercore").euler_factor

    def run(case):
        try:
            if via_cli:
                return cli.process_line(case.line)
            return format_lp(euler_factor(case.inp, random.Random(case.rng_seed)))
        except Exception as exc:  # the exception class is the outcome
            return f"EXC:{type(exc).__name__}"

    return run


def compare(pool, runs, passes):
    """Per-case time lists and outcomes for both sides, interleaved."""
    times = [[[] for _ in pool.cases] for _ in runs]
    outcomes = [[None] * len(pool.cases) for _ in runs]
    for n in range(passes):
        gc.collect()
        for i, case in enumerate(pool.cases):
            for side in ((0, 1) if (i + n) % 2 == 0 else (1, 0)):
                t0 = time.perf_counter_ns()
                out = runs[side](case)
                times[side][i].append(time.perf_counter_ns() - t0)
                outcomes[side][i] = out
    return times, outcomes


def report(pool, times, outcomes):
    """Print one workload's rates, p50s and tails; return its differing cases."""
    from run import tail

    med = [[statistics.median(t) / 1e6 for t in side] for side in times]
    rate = [len(pool.cases) / (sum(m) / 1e3) for m in med]
    print(f"{pool.name}: {len(pool.cases)} cases, factors/s this {rate[0]:.1f}, "
          f"other {rate[1]:.1f}, ratio {rate[0] / rate[1]:.3f}")
    p50 = [statistics.median(m) for m in med]
    tails = [tail(m)[0] for m in med]
    print(f"  all p50 ms this {p50[0]:.3f}, other {p50[1]:.3f}, ratio {p50[1] / p50[0]:.3f}; "
          f"tail ms this {tails[0]:.3f}, other {tails[1]:.3f}, ratio {tails[1] / tails[0]:.3f}")
    groups = [c.expected.removeprefix("ERR:") if c.typ == "reject" else c.typ
              for c in pool.cases]
    for group in sorted(set(groups)):
        idx = [i for i, g in enumerate(groups) if g == group]
        p50 = [statistics.median(m[i] for i in idx) for m in med]
        print(f"  {group:>15} p50 ms this {p50[0]:.3f}, other {p50[1]:.3f}, "
              f"ratio {p50[1] / p50[0]:.3f}")
    wrong = [sum(out != c.expected for out, c in zip(side, pool.cases)) for side in outcomes]
    print(f"  outcomes not as expected: this {wrong[0]}, other {wrong[1]}")
    return [(c.line, a, b) for c, a, b in zip(pool.cases, *outcomes) if a != b]


_IMPORT_CHILD = """
import time
t0 = time.perf_counter()
import g2lpoly
print(time.perf_counter() - t0)
"""


def cold_start(pool, trees, rounds, setup_child):
    """Print the median import and set-up ms per tree over alternating fresh
    interpreters; returns whether the trees' set-up children printed
    different factors."""
    case = pool.setup_case
    imports, setups, outputs = ([[], []] for _ in range(3))

    def child(tree, *argv):
        return subprocess.run(
            [sys.executable, "-c", *argv], env=dict(os.environ, PYTHONPATH=str(tree / "src")),
            cwd=tree, capture_output=True, text=True, timeout=120, check=True).stdout.split()

    for n in range(rounds):
        for side in ((0, 1) if n % 2 == 0 else (1, 0)):
            imports[side].append(float(child(trees[side], _IMPORT_CHILD)[0]))
            secs, out = child(trees[side], setup_child, case.line, str(case.rng_seed))
            setups[side].append(float(secs))
            outputs[side].append(out)
    imp, setup = ([statistics.median(t) * 1e3 for t in side] for side in (imports, setups))
    print(f"{pool.name}: {rounds} fresh interpreters per side and kind, ms "
          f"import this {imp[0]:.1f}, other {imp[1]:.1f}, ratio {imp[0] / imp[1]:.2f}; "
          f"set-up this {setup[0]:.1f}, other {setup[1]:.1f}, ratio {setup[0] / setup[1]:.2f}")
    wrong = [sum(out != case.expected for out in side) for side in outputs]
    print(f"  set-up outputs not as expected: this {wrong[0]}, other {wrong[1]}")
    return outputs[0] != outputs[1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, required=True,
                    help="the other tree, e.g. a clone of the parent commit")
    ap.add_argument("--workload", default="large_p",
                    help="a perfbench workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=7)
    ap.add_argument("--setup", type=int, default=0, metavar="N",
                    help="time N cold starts per side instead of the in-process A/B")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import g2lpoly
    import workloads

    if Path(g2lpoly.__file__).resolve().parent != ROOT / "src" / "g2lpoly":
        sys.exit(f"ab: imported g2lpoly from {g2lpoly.__file__}")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.setup:
        from run import _SETUP_CHILD

        trees = (ROOT, args.checkout.resolve())
        differing = [name for name in names
                     if cold_start(workloads.WORKLOADS[name](args.seed), trees, args.setup,
                                   _SETUP_CHILD)]
        print(f"{len(differing)} workloads with differing set-up outputs")
        return 1 if differing else 0
    load_other(args.checkout.resolve())
    differing = []
    for name in names:
        pool = workloads.WORKLOADS[name](args.seed)
        runs = [caller(package, pool.via_cli, workloads.format_lp)
                for package in ("g2lpoly", OTHER)]
        differing += report(pool, *compare(pool, runs, args.passes))
    for line, here, there in differing[:5]:
        print(f"differs: {line[:60]}\n  this:  {here}\n  other: {there}")
    print(f"{len(differing)} differing outcomes")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
