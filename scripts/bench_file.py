"""Compare this tree with its parent in alternating perfbench runs, and write
BENCH_<label>_parent.json and BENCH_<label>_change.json.

    python3 scripts/bench_file.py --label mychange --checkout ../parent-clone

Each side runs its own checkout's `perfbench/run.py --workload all`, the
parent in --checkout and the change in this repository, for BENCHMARK.json's
run_seconds per workload.  PAIRS untraced pairs run at seeds 1…PAIRS, the
side that goes first alternating from pair to pair; then one --trace 1 run
per side at seed 1.

Each file keeps its side's seed-1 untraced last-line JSON (`run`), the
traced run's per-layer shares (`<workload>/share.*`) with its failed count,
the traced large_p BSGS ladder (median ms per call by field and log2 q), the
src/g2lpoly line count, the commit and the machine.  `pairs` holds every
metric's median, quartiles and values over the untraced runs, with their
attempted and failed totals.  `paired`, the same in both files, holds per
end-to-end metric of BENCHMARK.json and workload the median and quartiles of
the per-pair ratios change/parent and the number of pairs the change won, by
the metric's `better` direction; ties count for neither side.

A run that exits nonzero aborts with the tail of its stderr.  The script
exits 1, after writing both files, if any run counted a failed operation.
The files land at this repository's root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 10
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def run(cmd, cwd):
    """cmd's stdout; a nonzero exit aborts the script with its stderr tail."""
    res = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if res.returncode:
        sys.exit(f"bench_file: {' '.join(cmd)} in {cwd} exited {res.returncode}\n"
                 f"{res.stderr[-2000:]}")
    return res.stdout


def command(seed, trace):
    return ["perfbench/run.py", "--workload", "all", "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]


def perfbench(checkout, seed, trace):
    """The last-line JSON of one checkout's perfbench run."""
    out = run([sys.executable, *command(seed, trace)], checkout)
    return json.loads(out.strip().splitlines()[-1])


def git(checkout, *args):
    return run(["git", "-C", str(checkout), *args], checkout).strip()


def ladder(metrics):
    """large_p's traced median ms per group_order_bsgs call, by field and
    log2 q bucket (genus1.bsgs.call_ms.<field>.q<bits>), for buckets with calls."""
    prefix = "large_p/genus1.bsgs.call_ms."
    return {k[len(prefix):]: v["value"] for k, v in metrics.items()
            if k.startswith(prefix) and metrics[k.replace("call_ms", "calls")]["value"]}


def quartiles(values):
    """(q1, median, q3) of values, inclusive: one value is all three, and
    no value gives None for each."""
    if len(values) < 2:
        return (values[0] if values else None,) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def spread(runs):
    """Median, quartiles and values of every metric over runs, with totals."""
    metrics = {}
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        metrics[key] = {"median": median, "q1": q1, "q3": q3, "values": values}
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": metrics}


def paired(parent, change):
    """Per end-to-end metric and workload: the median and quartiles of the
    change/parent ratios over the pairs, and the pairs the change won."""
    out = {}
    for key in parent[0]["metrics"]:
        better = BETTER.get(key.split("/", 1)[1])
        if better is None:
            continue
        pairs = [(p["metrics"][key]["value"], c["metrics"][key]["value"])
                 for p, c in zip(parent, change)]
        sign = 1 if better == "higher" else -1
        q1, median, q3 = quartiles([c / p for p, c in pairs if p])
        out[key] = {"ratio_median": median, "ratio_q1": q1, "ratio_q3": q3,
                    "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
                    "pairs": len(pairs)}
    return out


def record(label, checkout, runs, traced, paired_metrics):
    return {
        "label": label,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "tree_dirty": bool(git(checkout, "status", "--porcelain", "src")),
        "command": command(1, 0),
        "run": runs[0],
        "traced_failed": traced["failed"],
        "shares": {k: v["value"] for k, v in traced["metrics"].items() if "/share." in k},
        "bsgs_ladder_ms": ladder(traced["metrics"]),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (checkout / "src" / "g2lpoly").glob("*.py")),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "pairs": spread(runs),
        "paired": paired_metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--checkout", type=Path, required=True,
                    help="the parent tree, e.g. a clone of the parent commit")
    args = ap.parse_args(argv)
    sides = {"parent": args.checkout.resolve(), "change": ROOT}
    runs = {side: [] for side in sides}
    for seed in range(1, PAIRS + 1):
        for side in ("parent", "change") if seed % 2 else ("change", "parent"):
            print(f"seed {seed}: {side}", file=sys.stderr, flush=True)
            runs[side].append(perfbench(sides[side], seed, 0))
    traced = {side: perfbench(checkout, 1, 1) for side, checkout in sides.items()}
    paired_metrics = paired(runs["parent"], runs["change"])
    failed = 0
    for side, checkout in sides.items():
        rec = record(f"{args.label}_{side}", checkout, runs[side], traced[side],
                     paired_metrics)
        failed += rec["pairs"]["failed"] + rec["traced_failed"]
        path = ROOT / f"BENCH_{args.label}_{side}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n")
        print(path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
