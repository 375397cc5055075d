"""g2lpoly benchmark: one workload, one seed, a closed loop, checked outputs.

    python3 perfbench/run.py --workload oracle_mixed --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seconds 5      # every workload, one table

One caller sends the next input only after the previous one returns.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it wraps
module-level names of the package (see tracing.py) and reports per-module
metrics plus the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A fuller record with
the run's metadata goes to .bench_out/ under the repository root.  See
README.md next to this file for every metric and workload.
"""

import argparse
import gc
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_CHILDREN = 7
PROBE_SECONDS = 3.0
FACTOR_TIME_LIMIT_S = 10.0  # a slower call counts as a time-out failure
# Machine-speed reference: a fixed pure-Python loop timed next to the work.
# Other tenants of a shared machine slow the CPU for stretches of seconds
# (on a shared 2-CPU x86_64 machine this loop takes either ~185 or ~270
# microseconds, depending on the moment), and the program slows in nearly
# the same proportion.  Every reported time is multiplied by REF_NOMINAL_S /
# (the loop's mean time next to it), i.e. given at the speed where the loop
# takes 200 us.  README.md shows the spreads with and without this.
REF_ITERS = 3000
REF_NOMINAL_S = 200e-6
REF_AROUND = 32  # reference samples taken before and after a batch pass or child
REF_WINDOW = 8  # a closed-loop call is scaled by the samples within 8 calls of it
BATCH_CHUNKS = 16  # run_batch calls per pass at one job

_SETUP_CHILD = """
import random, sys, time
t0 = time.perf_counter()
import g2lpoly
p, f = sys.argv[1].split(":", 1)
f = tuple(int(c) for c in f.strip("[]").split(","))
lp = g2lpoly.euler_factor(g2lpoly.EulerInput(f, int(p)), random.Random(int(sys.argv[2])))
print(time.perf_counter() - t0)
print(p + ":[" + ",".join(str(c) for c in lp.coefficients()) + "]")
"""

_PROBE_CHILD = """
import sys
from g2lpoly import cli
cli.run_batch([sys.argv[1]], sys.stdout)
"""


def locate_package():
    """Put the checkout's src/ first on sys.path, or stop if it is missing."""
    if not (SRC / "g2lpoly" / "__init__.py").is_file():
        sys.exit(f"perfbench: no g2lpoly sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import g2lpoly

    if Path(g2lpoly.__file__).resolve().parent != SRC / "g2lpoly":
        sys.exit(f"perfbench: imported g2lpoly from {g2lpoly.__file__}, not {SRC}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def nproc():
    return len(os.sched_getaffinity(0))


def metadata():
    import numpy
    from g2lpoly import kernels

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "kernel_mode": kernels.kernel_mode(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "src_lines": src_lines,
    }


class Tally:
    """Outputs checked and outputs wrong, where a failure is a wrong output,
    an exception, a missing or wrong ERR: token, or a time-out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def check(self, got, want, what):
        self.attempted += 1
        if got != want:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"{what}: got {got!r}, want {want!r}")


def make_caller(pool):
    """The closed loop's entry point: euler_factor, or the CLI's line function."""
    from g2lpoly import cli
    from g2lpoly.eulercore import euler_factor
    from workloads import format_lp

    def run_case(case):
        """One call; returns (output string, seconds inside the call)."""
        rng = random.Random(case.rng_seed)
        t0 = time.perf_counter_ns()
        try:
            if pool.via_cli:
                out = cli.process_line(case.line)
            else:
                out = euler_factor(case.inp, rng)
        except Exception as exc:  # any escape is a failure of this input
            out = f"EXC:{type(exc).__name__}"
        secs = (time.perf_counter_ns() - t0) / 1e9
        return (out if isinstance(out, str) else format_lp(out)), secs

    return run_case


def reference_loop():
    total = 0
    for i in range(REF_ITERS):
        total += i * i % 7
    return total


def ref_sample():
    t0 = time.perf_counter_ns()
    reference_loop()
    return (time.perf_counter_ns() - t0) / 1e9


def ref_mean(samples):
    return statistics.fmean(ref_sample() for _ in range(samples))


def all_cores_mean(samples):
    """Mean reference time over every CPU, this process pinned to each in
    turn: the speed for figures that use every core.  One CPU at a time, so
    the reference runs do not slow each other."""
    cpus = os.sched_getaffinity(0)
    try:
        means = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            means.append(ref_mean(samples))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(means)


def around(fn, samples=REF_AROUND, all_cores=False):
    """Call fn() between two runs of reference samples, taken on this
    process's CPU or on every CPU; returns (result, seconds, speed scale)."""
    sample = all_cores_mean if all_cores else ref_mean
    before = sample(samples)
    t0 = time.perf_counter()
    res = fn()
    secs = time.perf_counter() - t0
    return res, secs, REF_NOMINAL_S / statistics.fmean((before, sample(samples)))


def local_scales(refs, half=REF_WINDOW):
    """Speed scale at each position from the reference samples within
    `half` places of it, so a change of speed inside a pass is followed."""
    prefix = [0.0]
    for r in refs:
        prefix.append(prefix[-1] + r)
    n = len(refs)
    out = []
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        out.append(REF_NOMINAL_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out


def loop_pass(run_case, pool, tally, per_case):
    """One closed-loop pass, with a reference sample before each call.
    Appends each call's scaled seconds to per_case; returns the pass's
    mean speed scale."""
    gc.collect()
    refs, raw = [], []
    for case in pool.cases:
        refs.append(ref_sample())
        out, secs = run_case(case)
        if secs > FACTOR_TIME_LIMIT_S:
            out = "TIMEOUT"
        tally.check(out, case.expected, case.line[:40])
        raw.append(secs)
    scales = local_scales(refs)
    for times, secs, scale in zip(per_case, raw, scales):
        times.append(secs * scale)
    return statistics.fmean(scales)


def batch_pass(pool, jobs, tally):
    """cli.run_batch over every line of the pool; returns scaled lines per
    second.  At one job the lines go in BATCH_CHUNKS calls with reference
    samples between them; at more jobs in one call, since each call starts
    its own process pool, with the reference timed on every core."""
    from g2lpoly import cli

    gc.collect()
    chunks = BATCH_CHUNKS if jobs == 1 else 1
    size = -(-len(pool.cases) // chunks)
    scaled = 0.0
    got = []
    for k in range(0, len(pool.cases), size):
        lines = [c.line for c in pool.cases[k:k + size]]
        out = io.StringIO()
        _, secs, scale = around(lambda: cli.run_batch(lines, out, jobs=jobs, stable=True),
                                REF_AROUND // chunks, jobs > 1)
        scaled += secs * scale
        part = out.getvalue().splitlines()
        got += part + ["MISSING"] * (len(lines) - len(part))
    for g, c in zip(got, pool.cases):
        tally.check(g, c.expected, f"batch jobs={jobs}")
    return len(pool.cases) / scaled


def setup_times(pool, tally):
    """Fresh interpreters: import g2lpoly, then the workload's first factor."""
    case = pool.setup_case
    times = []
    for _ in range(SETUP_CHILDREN):
        res, _, scale = around(lambda: subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, case.line, str(case.rng_seed)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120,
        ))
        lines = res.stdout.split()
        ok = res.returncode == 0 and len(lines) == 2
        tally.check(lines[1] if ok else f"EXIT:{res.returncode}", case.expected, "setup child")
        if ok:
            times.append(float(lines[0]) * scale)
    return times


def composite_probe():
    """ROADMAP item 1's composite-p line through run_batch in a child, under a
    time limit; returns (output or 'hang', seconds)."""
    from workloads import COMPOSITE_P_LINE

    t0 = time.perf_counter()
    try:
        res = subprocess.run(
            [sys.executable, "-c", _PROBE_CHILD, COMPOSITE_P_LINE],
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=PROBE_SECONDS,
        )
        out = res.stdout.strip() or f"EXIT:{res.returncode}"
    except subprocess.TimeoutExpired:
        out = "hang"
    return out, time.perf_counter() - t0


def tail(values):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(pool, seconds, tally, info):
    """Set-up children, then rounds of (closed-loop pass, batch at one job,
    batch at nproc jobs) until the time is spent.  Interleaving spreads any
    change of machine speed over all three; every time is speed-scaled (see
    REF_NOMINAL_S), and each input's time and each batch figure is the
    median over rounds."""
    from workloads import TYPES

    setup = setup_times(pool, tally)
    run_case = make_caller(pool)
    per_case = [[] for _ in pool.cases]
    j1, jn, scales = [], [], []
    start = time.perf_counter()
    round_s = 0.0
    while not j1 or time.perf_counter() - start + round_s <= seconds:  # next round fits
        t0 = time.perf_counter()
        scales.append(loop_pass(run_case, pool, tally, per_case))
        j1.append(batch_pass(pool, 1, tally))
        # two passes at nproc jobs, which are the shortest
        jn += [batch_pass(pool, nproc(), tally) for _ in range(2)]
        round_s = time.perf_counter() - t0
    lat = [statistics.median(t) * 1e3 for t in per_case]
    value, pct, beyond = tail(lat)
    m = {
        "factors_per_s": (1e3 * len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (value, "ms"),
    }
    for typ in TYPES:
        by_type = [x for x, c in zip(lat, pool.cases) if c.typ == typ.value]
        m[f"latency_p50_ms.{typ.name}"] = (statistics.median(by_type), "ms")
    m["setup_s"] = (statistics.median(setup) if setup else 0.0, "s")  # none: correct is false
    m["batch_lines_per_s.j1"] = (statistics.median(j1), "1/s")
    m["batch_lines_per_s.jN"] = (statistics.median(jn), "1/s")
    info.update(
        rounds=len(j1),
        speed_scale_per_round=[round(x, 4) for x in scales],
        tail_percentile=round(pct, 3),
        tail_samples=len(lat),
        tail_beyond=beyond,
        setup_children=len(setup),
    )
    return m


def traced(pool, seconds, tally, info, trace_path):
    """Rounds of (untraced pass, traced pass) for the overhead, then one traced
    batch pass for the cli spans and one untraced batch pass at each job
    count for the pool efficiency."""
    import tracing

    run_case = make_caller(pool)
    plain = [[] for _ in pool.cases]
    traced_times = [[] for _ in pool.cases]
    tr = tracing.Tracer()
    root = "factor"

    def traced_case(case):
        return tr.call(root, run_case, case)

    scales = []
    start = time.perf_counter()
    while not scales or time.perf_counter() - start < 0.7 * seconds:
        loop_pass(run_case, pool, tally, plain)
        with tr:
            tr.install(tracing.FACTOR_HOOKS + tracing.CLI_HOOKS)
            tr.count_loop_iters()
            scales.append(loop_pass(traced_case, pool, tally, traced_times))
    # layer times come from raw spans: take them to nominal speed as well
    scale = statistics.fmean(scales)
    m = {k: (v * scale if u == "ms" else v / scale if u == "1/s" else v, u)
         for k, (v, u) in tracing.factor_metrics(tr, root).items()}
    untraced_fps = len(pool.cases) / sum(statistics.median(t) for t in plain)
    traced_fps = len(pool.cases) / sum(statistics.median(t) for t in traced_times)

    cli_tr = tracing.Tracer()
    with cli_tr:
        cli_tr.install(tracing.CLI_HOOKS)
        batch_pass(pool, 1, tally)
    m.update((k, (v * scale, u)) for k, (v, u) in tracing.cli_metrics(cli_tr).items())
    j1 = batch_pass(pool, 1, tally)
    jn = batch_pass(pool, nproc(), tally)
    m["cli.pool_efficiency"] = (jn / (nproc() * j1), "fraction")
    m["trace.untraced_factors_per_s"] = (untraced_fps, "1/s")
    m["trace.factors_per_s"] = (traced_fps, "1/s")
    m["trace.overhead_frac"] = (1 - traced_fps / untraced_fps, "fraction")
    info.update(rounds=len(scales), speed_scale=round(scale, 4), spans=len(tr.spans),
                trace_file=str(trace_path))
    tr.dump(trace_path)
    return m


def run_one(workload, seed, seconds, trace, pool_kw=None):
    """One run; returns (result object for stdout, full record)."""
    import workloads

    tally = Tally()
    t0 = time.perf_counter()
    pool = workloads.WORKLOADS[workload](seed, **(pool_kw or {}))
    tally.attempted += workloads.self_test(seed)  # raises on any mismatch
    info = {
        "inputs": len(pool.cases),
        "generate_s": round(time.perf_counter() - t0, 3),
        "checked_by": dict(sorted(
            (k, sum(c.check == k for c in pool.cases)) for k in {c.check for c in pool.cases}
        )),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-s{seed}-t{trace}"
    if trace:
        metrics = traced(pool, seconds, tally, info, OUT_DIR / f"{stem}.trace.json")
    else:
        metrics = end_to_end(pool, seconds, tally, info)
    if workload == "cli_batch":
        from workloads import COMPOSITE_P_TOKEN

        out, secs = composite_probe()
        info["composite_p_probe"] = {"output": out, "want": COMPOSITE_P_TOKEN,
                                     "ok": out == COMPOSITE_P_TOKEN, "seconds": round(secs, 3)}
    info["failed_frac"] = tally.failed / tally.attempted
    info["failure_examples"] = tally.examples
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "metadata": metadata(), "info": info, **result,
              "wall_s": round(time.perf_counter() - t0, 3)}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return result, record


def report(record, stream):
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"wall={record['wall_s']}s", file=stream)
    for k, m in record["metrics"].items():
        print(f"  {k:42s} {m['value']:14.6g} {m['unit']}", file=stream)
    for k, v in record["info"].items():
        print(f"  # {k}: {v}", file=stream)
    print(f"  # metadata: {record['metadata']}", file=stream)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="oracle_mixed, height_256, large_p, cli_batch, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    locate_package()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        ap.error(f"unknown workload {args.workload!r}")
    results = {}
    for name in names:
        result, record = run_one(name, args.seed, args.seconds, args.trace)
        report(record, sys.stderr if len(names) == 1 else sys.stdout)
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
