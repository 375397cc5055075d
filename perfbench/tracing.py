"""Per-module tracing by wrapping module-level names from outside.

A Tracer replaces names such as ``eulercore.lpoly1`` with wrappers that
record a span (name, tag, request, parent span, start, end) or bump a
counter, keeps everything in memory, and puts every original back in
``restore``.  The package itself is never edited: callers look the names up
in their own module globals at call time, so the wrappers see every call
made after ``install``.
"""

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

from g2lpoly import cli, clusterclassify, eulercore, genus1, kernels, modarith

# Buckets of log2 q for the BSGS ladder: q08 holds 2^8 <= q < 2^12, and so on;
# q40 also takes everything above.
BSGS_BUCKETS = tuple(range(8, 44, 4))
DESCENT = ("euler_type1", "euler_type2a", "euler_type2b", "euler_type4")


def _field_kind(model):
    return "fp2" if isinstance(model.field, modarith.Fp2) else "fp"


def _bsgs_tag(args, kw):
    model = args[0]
    return _field_kind(model), model.field.q


def _bucket(q):
    b = max(8, min(q.bit_length() - 1, BSGS_BUCKETS[-1]))
    return f"q{b - b % 4:02d}"


# (owner, attribute, span or counter name, tag(args, kw) or None, timed)
FACTOR_HOOKS = (
    (eulercore, "p_normalize", "clusterclassify.p_normalize", None, True),
    (clusterclassify, "disc", "polyring.disc.normalize", None, True),
    (eulercore, "disc", "polyring.disc.max_iters", None, True),
    (eulercore, "which_type", "clusterclassify.which_type", None, True),
    *((eulercore, name, "eulercore.descent", None, True) for name in DESCENT),
    (eulercore, "lpoly1", "eulercore.lpoly1", None, True),
    (eulercore, "shift_scale", "polyring.shift_scale", None, True),
    (clusterclassify, "shift_scale", "polyring.shift_scale", None, True),
    (eulercore, "fp_gcd_k", "polyring.fp_gcd_k", None, False),
    (clusterclassify, "fp_gcd_k", "polyring.fp_gcd_k", None, False),
    (genus1, "count_points_naive", "genus1.exhaustive",
     lambda a, kw: _field_kind(a[0]), True),
    (kernels, "count_affine_fp", "kernels.count_affine_fp", lambda a, kw: a[1], True),
    (kernels, "count_affine_fp2", "kernels.count_affine_fp2",
     lambda a, kw: a[3] * a[3], True),
    (genus1, "group_order_bsgs", "genus1.bsgs", _bsgs_tag, True),
    (genus1, "quartic_jacobian", "genus1.quartic_jacobian", None, False),
    (genus1, "quartic_to_cubic", "genus1.quartic_to_cubic", None, False),
    (modarith.Fp, "inv", "modarith.inv", None, False),
    (modarith.Fp2, "inv", "modarith.inv", None, False),
)

CLI_HOOKS = (
    (cli, "process_line", "cli.process_line", None, True),
    (cli, "parse_job_line", "cli.parse", None, True),
    (cli, "euler_factor", "cli.euler_factor", None, True),
)


class Tracer:
    """In-memory spans and counters for one traced phase."""

    def __init__(self):
        self.spans = []  # [name, tag, request, parent index, t0_ns, t1_ns]
        self.counts = Counter()
        self.request = 0
        self._stack = []
        self._saved = []

    def install(self, hooks):
        for owner, attr, name, tag, timed in hooks:
            original = vars(owner)[attr]
            wrapper = self._timed(original, name, tag) if timed else self._counted(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def _counted(self, fn, name):
        counts = self.counts

        def counted(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)

        return counted

    def _timed(self, fn, name, tag):
        spans, stack = self.spans, self._stack

        def timed(*args, **kw):
            idx = len(spans)
            span = [name, tag(args, kw) if tag else None, self.request,
                    stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(idx)
            span[4] = perf_counter_ns()
            try:
                return fn(*args, **kw)
            finally:
                span[5] = perf_counter_ns()
                stack.pop()

        return timed

    def count_loop_iters(self):
        """Count the recentering iterations euler_factor_with_stats reports."""
        original = vars(eulercore)["euler_factor_with_stats"]

        def with_stats(*args, **kw):
            lp, stats = original(*args, **kw)
            self.counts["eulercore.loop_iters"] += sum(stats.loop_iters)
            return lp, stats

        self._saved.append((eulercore, "euler_factor_with_stats", original))
        eulercore.euler_factor_with_stats = with_stats

    def call(self, name, fn, *args):
        """Run one request under a root span of the given name."""
        self.request += 1
        return self._timed(fn, name, None)(*args)

    def dump(self, path):
        with open(path, "w") as out:
            json.dump({"spans": self.spans, "counts": self.counts}, out)


def _ms(ns):
    return ns / 1e6


def factor_metrics(tr: Tracer, root: str):
    """Per-factor layer metrics from a traced closed loop whose requests run
    under root spans named ``root``."""
    total = Counter()
    calls = Counter()
    excluded = Counter()  # per span index: time of children the self time drops
    self_drop = {
        "clusterclassify.p_normalize": {"polyring.disc.normalize"},
        "eulercore.descent": {"eulercore.lpoly1", "polyring.disc.max_iters"},
    }
    bsgs_calls = defaultdict(list)
    kernel_q = 0
    for idx, (name, tag, _req, parent, t0, t1) in enumerate(tr.spans):
        dur = t1 - t0
        key = f"{name}.{tag}" if name == "genus1.exhaustive" else name
        total[key] += dur
        calls[key] += 1
        if name == "genus1.bsgs":
            total[f"genus1.bsgs.{tag[0]}"] += dur
            bsgs_calls[f"{tag[0]}.{_bucket(tag[1])}"].append(dur)
        elif name.startswith("kernels.count_affine"):
            kernel_q += tag
        if parent >= 0 and name in self_drop.get(tr.spans[parent][0], ()):
            excluded[parent] += dur
    drop = Counter()
    for idx, ns in excluded.items():
        drop[tr.spans[idx][0]] += ns
    n = calls[root]
    factor_ns = total[root]
    kernel_ns = total["kernels.count_affine_fp"] + total["kernels.count_affine_fp2"]
    disc_ns = total["polyring.disc.normalize"] + total["polyring.disc.max_iters"]
    exhaustive_ns = total["genus1.exhaustive.fp"] + total["genus1.exhaustive.fp2"]
    bsgs_ns = total["genus1.bsgs.fp"] + total["genus1.bsgs.fp2"]
    pn_self = total["clusterclassify.p_normalize"] - drop["clusterclassify.p_normalize"]
    descent_self = total["eulercore.descent"] - drop["eulercore.descent"]
    m = {
        "trace.factor_ms": (_ms(factor_ns) / n, "ms"),
        "polyring.disc.ms.normalize": (_ms(total["polyring.disc.normalize"]) / n, "ms"),
        "polyring.disc.ms.max_iters": (_ms(total["polyring.disc.max_iters"]) / n, "ms"),
        "polyring.disc.calls.normalize": (calls["polyring.disc.normalize"] / n, "calls/factor"),
        "polyring.disc.calls.max_iters": (calls["polyring.disc.max_iters"] / n, "calls/factor"),
        "clusterclassify.p_normalize.self_ms": (_ms(pn_self) / n, "ms"),
        "clusterclassify.which_type.ms": (_ms(total["clusterclassify.which_type"]) / n, "ms"),
        "eulercore.descent.self_ms": (_ms(descent_self) / n, "ms"),
        "eulercore.loop_iters": (tr.counts["eulercore.loop_iters"] / n, "iters/factor"),
        "polyring.shift_scale.calls": (calls["polyring.shift_scale"] / n, "calls/factor"),
        "polyring.shift_scale.ms": (_ms(total["polyring.shift_scale"]) / n, "ms"),
        "polyring.fp_gcd_k.calls": (tr.counts["polyring.fp_gcd_k"] / n, "calls/factor"),
        "genus1.exhaustive.ms.fp": (_ms(total["genus1.exhaustive.fp"]) / n, "ms"),
        "genus1.exhaustive.ms.fp2": (_ms(total["genus1.exhaustive.fp2"]) / n, "ms"),
        "kernels.count_affine_fp.calls": (calls["kernels.count_affine_fp"] / n, "calls/factor"),
        "kernels.count_affine_fp2.calls": (calls["kernels.count_affine_fp2"] / n, "calls/factor"),
        "kernels.points_per_s": (kernel_q / (kernel_ns / 1e9) if kernel_ns else 0.0, "1/s"),
        "genus1.bsgs.ms.fp": (_ms(total["genus1.bsgs.fp"]) / n, "ms"),
        "genus1.bsgs.ms.fp2": (_ms(total["genus1.bsgs.fp2"]) / n, "ms"),
        "genus1.quartic_jacobian.calls": (tr.counts["genus1.quartic_jacobian"] / n, "calls/factor"),
        "genus1.quartic_to_cubic.calls": (tr.counts["genus1.quartic_to_cubic"] / n, "calls/factor"),
        "modarith.inv.calls": (tr.counts["modarith.inv"] / n, "calls/factor"),
        "share.disc": (disc_ns / factor_ns, "fraction"),
        "share.p_normalize_self": (pn_self / factor_ns, "fraction"),
        "share.which_type": (total["clusterclassify.which_type"] / factor_ns, "fraction"),
        "share.descent_self": (descent_self / factor_ns, "fraction"),
        "share.exhaustive": (exhaustive_ns / factor_ns, "fraction"),
        "share.bsgs": (bsgs_ns / factor_ns, "fraction"),
    }
    for kind in ("fp", "fp2"):
        for b in BSGS_BUCKETS:
            durs = bsgs_calls[f"{kind}.q{b:02d}"]
            m[f"genus1.bsgs.call_ms.{kind}.q{b:02d}"] = (
                _ms(statistics.median(durs)) if durs else 0.0, "ms")
            m[f"genus1.bsgs.calls.{kind}.q{b:02d}"] = (len(durs), "count")
    return m


def cli_metrics(tr: Tracer):
    """Per-line parse time and the process_line time outside euler_factor."""
    total = Counter()
    calls = Counter()
    for name, _tag, _req, _parent, t0, t1 in tr.spans:
        total[name] += t1 - t0
        calls[name] += 1
    n = calls["cli.process_line"]
    overhead = total["cli.process_line"] - total["cli.euler_factor"]
    return {
        "cli.parse.ms": (_ms(total["cli.parse"]) / n, "ms"),
        "cli.line_overhead.ms": (_ms(overhead) / n, "ms"),
    }
