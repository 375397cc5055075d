"""Write a BENCH_<label>.json perf-trajectory point for one checkout.

    python3 scripts/bench_file.py --label after
    python3 scripts/bench_file.py --label before --checkout ../parent-clone

Runs the checkout's own `perfbench/run.py --workload all` twice, untraced and
with --trace 1, at seed 1 and 24 s per workload (perfbench's defaults), and
keeps: the untraced run's last-line JSON (correct, attempted, failed and
every end-to-end metric), the traced run's per-layer shares
(`<workload>/share.*`) with its failed count, the traced large_p BSGS
ladder (median ms per call by field and log2 q), the src/g2lpoly line
count, the commit and the machine.  The file lands at this repository's root.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench(checkout, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
           "--seconds", "24", "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return cmd[1:], json.loads(res.stdout.strip().splitlines()[-1])


def ladder(metrics):
    """large_p's traced median ms per group_order_bsgs call, by field and
    log2 q bucket (genus1.bsgs.call_ms.<field>.q<bits>), for buckets with calls."""
    prefix = "large_p/genus1.bsgs.call_ms."
    return {k[len(prefix):]: v["value"] for k, v in metrics.items()
            if k.startswith(prefix) and metrics[k.replace("call_ms", "calls")]["value"]}


def git(checkout, *args):
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True).stdout.strip()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--checkout", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    cmd, run = bench(checkout, 0)
    _, traced = bench(checkout, 1)
    record = {
        "label": args.label,
        "commit": git(checkout, "rev-parse", "HEAD"),
        "tree_dirty": bool(git(checkout, "status", "--porcelain", "src")),
        "command": cmd,
        "run": run,
        "traced_failed": traced["failed"],
        "shares": {k: v["value"] for k, v in traced["metrics"].items() if "/share." in k},
        "bsgs_ladder_ms": ladder(traced["metrics"]),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (checkout / "src" / "g2lpoly").glob("*.py")),
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
