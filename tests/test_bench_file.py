"""scripts/bench_file.py with its subprocess runner replaced by a stub, so
that no process starts: the order of the runs, the statistics both BENCH
files carry, and the exit status."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def bench_file():
    spec = importlib.util.spec_from_file_location("bench_file", ROOT / "scripts" / "bench_file.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# per seed 1..10: factors/s (higher is better) and p50 ms (lower is better)
FPS_PARENT = [100.0 + seed for seed in range(1, 11)]
FPS_RATIO = [1.1, 1.1, 1.1, 1.0, 0.9, 1.1, 1.1, 1.1, 1.1, 1.1]  # 8 wins, a tie, a loss
P50_PARENT = [2.0] * 10
P50_CHANGE = [1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0]  # 4 wins, a tie


def fake_result(side, seed, trace, failed):
    i = seed - 1
    fps = FPS_PARENT[i] * (FPS_RATIO[i] if side == "change" else 1.0)
    p50 = P50_CHANGE[i] if side == "change" else P50_PARENT[i]
    metrics = {"w/factors_per_s": fps, "w/latency_p50_ms": p50}
    if trace:
        metrics = {"w/share.disc": 0.25, "large_p/genus1.bsgs.call_ms.fp.q20": 0.2,
                   "large_p/genus1.bsgs.calls.fp.q20": 7.0,
                   "large_p/genus1.bsgs.call_ms.fp.q40": 0.0,
                   "large_p/genus1.bsgs.calls.fp.q40": 0.0}
    return {"correct": not failed, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}


@pytest.fixture
def stubbed(bench_file, tmp_path, monkeypatch):
    """Runs main against a stub runner; returns (calls, exit status, files)."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    monkeypatch.setattr(bench_file, "ROOT", change)
    calls = []

    def invoke(failing=()):
        def run(cmd, cwd):
            if cmd[0] == "git":
                return "0123abc\n" if "rev-parse" in cmd else ""
            side = {parent: "parent", change: "change"}[Path(cwd)]
            seed, trace = int(cmd[cmd.index("--seed") + 1]), int(cmd[cmd.index("--trace") + 1])
            calls.append((side, seed, trace))
            result = fake_result(side, seed, trace, int((side, seed, trace) in failing))
            return "table\n" + json.dumps(result) + "\n"

        monkeypatch.setattr(bench_file, "run", run)
        status = bench_file.main(["--label", "t", "--checkout", str(parent)])
        files = {side: json.loads((change / f"BENCH_t_{side}.json").read_text())
                 for side in ("parent", "change")}
        return calls, status, files

    return invoke


def test_seeds_alternate_and_one_traced_run_per_side(bench_file, stubbed):
    calls, status, _ = stubbed()
    assert status == 0
    assert bench_file.PAIRS == 10
    untraced = [c for c in calls if c[2] == 0]
    assert [seed for _, seed, _ in untraced] == [s for s in range(1, 11) for _ in range(2)]
    firsts = [side for side, _, _ in untraced[::2]]
    assert firsts == ["parent", "change"] * 5
    assert all({a[0], b[0]} == {"parent", "change"} for a, b in zip(untraced[::2], untraced[1::2]))
    assert sorted(c for c in calls if c[2] == 1) == [("change", 1, 1), ("parent", 1, 1)]


def test_pairs_and_paired_statistics(stubbed):
    _, _, files = stubbed()
    parent, change = files["parent"], files["change"]
    fps = parent["pairs"]["metrics"]["w/factors_per_s"]
    assert fps["values"] == FPS_PARENT
    assert (fps["q1"], fps["median"], fps["q3"]) == pytest.approx((103.25, 105.5, 107.75))
    assert parent["pairs"]["attempted"] == 1000 and parent["pairs"]["failed"] == 0
    assert change["pairs"]["metrics"]["w/latency_p50_ms"]["median"] == 2.5
    assert parent["paired"] == change["paired"]
    paired = parent["paired"]
    assert set(paired) == {"w/factors_per_s", "w/latency_p50_ms"}
    assert paired["w/factors_per_s"]["ratio_median"] == pytest.approx(1.1)
    assert set(paired["w/factors_per_s"]) == {"ratio_median", "ratio_q1", "ratio_q3",
                                              "change_wins", "pairs"}
    assert paired["w/factors_per_s"]["change_wins"] == 8
    # lower is better: four wins, a tie and five losses; ratios 0.5 x4, 1, 1.5 x5
    assert paired["w/latency_p50_ms"]["ratio_median"] == pytest.approx(1.25)
    assert (paired["w/latency_p50_ms"]["ratio_q1"],
            paired["w/latency_p50_ms"]["ratio_q3"]) == pytest.approx((0.5, 1.5))
    assert paired["w/latency_p50_ms"]["change_wins"] == 4
    assert paired["w/latency_p50_ms"]["pairs"] == 10


def test_files_keep_every_key_of_the_single_run_files(stubbed):
    _, _, files = stubbed()
    before = json.loads((ROOT / "BENCH_field_disc_change.json").read_text())
    for side, rec in files.items():
        assert set(rec) == set(before) | {"pairs", "paired"}
        assert rec["label"] == f"t_{side}"
        assert rec["commit"] == "0123abc" and rec["tree_dirty"] is False
        cmd = rec["command"]
        assert cmd[cmd.index("--seed") + 1] == "1" and cmd[cmd.index("--trace") + 1] == "0"
        assert rec["run"]["metrics"]["w/factors_per_s"]["value"] == pytest.approx(
            FPS_PARENT[0] * (FPS_RATIO[0] if side == "change" else 1))
        assert rec["shares"] == {"w/share.disc": 0.25}
        assert rec["bsgs_ladder_ms"] == {"fp.q20": 0.2}
        assert rec["traced_failed"] == 0


def test_a_failed_operation_exits_1_after_writing_both_files(stubbed):
    _, status, files = stubbed(failing={("change", 7, 0)})
    assert status == 1
    assert files["change"]["pairs"]["failed"] == 1
    assert files["parent"]["pairs"]["failed"] == 0


def test_a_failed_traced_operation_exits_1(stubbed):
    _, status, files = stubbed(failing={("parent", 1, 1)})
    assert status == 1
    assert files["parent"]["traced_failed"] == 1


def test_a_nonzero_exit_aborts_with_the_stderr_tail(bench_file, monkeypatch):
    def failing(cmd, **kw):
        return subprocess.CompletedProcess(cmd, 2, "", "Traceback ...\nValueError: boom")

    monkeypatch.setattr(bench_file.subprocess, "run", failing)
    with pytest.raises(SystemExit, match="boom"):
        bench_file.run(["python3", "perfbench/run.py"], ROOT)


def test_only_label_and_checkout_are_options(bench_file, monkeypatch):
    monkeypatch.setattr(bench_file, "run", lambda cmd, cwd: pytest.fail(f"ran {cmd}"))
    with pytest.raises(SystemExit):
        bench_file.main(["--label", "t", "--checkout", ".", "--pairs", "3"])


def test_paired_quartiles_are_those_of_the_per_pair_ratios(bench_file):
    # the parent spreads over 100-190 from pair to pair while the per-pair
    # ratios run 1.01 ... 1.10: the ratio quartiles read the latter alone
    values = {"w/factors_per_s": [(100.0 + 10 * s, (100.0 + 10 * s) * (1 + s / 100))
                                  for s in range(1, 11)],
              # a parent of 0 gives no ratio: one ratio is all three, none is None
              "w/latency_p50_ms": [(0.0, 1.0)] * 9 + [(2.0, 3.0)],
              "w/setup_s": [(0.0, 1.0)] * 10}

    def runs(side):
        return [{"metrics": {k: {"value": v[i][side]} for k, v in values.items()}}
                for i in range(10)]

    paired = bench_file.paired(runs(0), runs(1))
    fps = paired["w/factors_per_s"]
    assert (fps["ratio_q1"], fps["ratio_median"], fps["ratio_q3"]) == pytest.approx(
        (1.0325, 1.055, 1.0775))
    assert fps["change_wins"] == 10
    p50 = paired["w/latency_p50_ms"]
    assert (p50["ratio_q1"], p50["ratio_median"], p50["ratio_q3"]) == (1.5, 1.5, 1.5)
    setup = paired["w/setup_s"]
    assert (setup["ratio_q1"], setup["ratio_median"], setup["ratio_q3"]) == (None, None, None)
