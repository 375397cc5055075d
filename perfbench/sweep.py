"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads all --seeds 1-10 --seconds 20
    python3 perfbench/sweep.py --workloads large_p --seeds 1-5 --trace 1

For each workload and metric it prints the median, the quartiles (Python's
statistics.quantiles, n=4), and the spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json.  The summary is also written as JSON to
.bench_out/sweep-<workloads>-t<trace>.json, ready to compare two commits.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle_mixed", "height_256", "large_p", "cli_batch")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bounds():
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}


def run(workload, seed, seconds, trace):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if res.returncode:
        sys.exit(f"{workload} seed {seed} exited {res.returncode}:\n{res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", default="1-10", type=seed_range)
    ap.add_argument("--seconds", default=20, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workloads == "all" else args.workloads.split(",")
    limit = bounds()
    summary = {}
    for name in names:
        values = {}
        failed = attempted = 0
        for seed in args.seeds:
            out = run(name, seed, args.seconds, args.trace)
            failed += out["failed"]
            attempted += out["attempted"]
            for k, m in out["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{name} seed {seed}: correct={out['correct']} failed={out['failed']}",
                  file=sys.stderr, flush=True)
        rows = {}
        print(f"== {name}: {len(args.seeds)} seeds, {failed} of {attempted} outputs failed")
        for k, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            note = f"  bound {limit[k]:.2f}  spread/bound {spread / limit[k]:.2f}" if k in limit else ""
            print(f"  {k:42s} median {med:12.6g}  spread {spread:7.3f}{note}")
        summary[name] = {"failed": failed, "attempted": attempted, "metrics": rows}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = "all" if args.workloads == "all" else args.workloads.replace(",", "+")
    (out_dir / f"sweep-{tag}-t{args.trace}.json").write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
