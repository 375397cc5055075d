import inspect
import io
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from g2lpoly import cli, errors
from g2lpoly.cli import parse_job_line, process_line, run_batch
from g2lpoly.errors import (
    AmbiguousOrder,
    BadWitness,
    FieldTooLarge,
    G2Error,
    HasseViolation,
    InexactDivision,
    NonResidue,
    Unsupported,
)
from g2lpoly.eulercore import EulerInput, euler_factor
from g2lpoly.oracle import job_line, random_instance
from g2lpoly.clusterclassify import ClusterType
from g2lpoly.polyring import poly_mul


def _worked_example_line():
    f = (1,)
    for fac in [(0, 1), (-25, 1), (-75, 1), (-1, 1), (624, 1), (-626, 1)]:
        f = poly_mul(f, fac)
    return "5:[" + ",".join(str(c) for c in f) + "]"


def test_parse_grammar():
    p, f, h = parse_job_line("7:[1,2,3,4,5,6,7]")
    assert (p, f, h) == (7, (1, 2, 3, 4, 5, 6, 7), None)
    p, f, h = parse_job_line(" 7 : [1, 2] : [0,1] ")
    assert (p, f, h) == (7, (1, 2), (0, 1))


def test_worked_example_through_batch():
    out = io.StringIO()
    code = run_batch([_worked_example_line()], out)
    assert code == 0
    assert out.getvalue().strip() == "5:[1,0,6,0,25]"


def test_malformed_line_continues():
    out = io.StringIO()
    # int() refuses more than sys.get_int_max_str_digits() digits
    too_long = "5:[" + "1" * 5000 + ",0,0,0,0,0,1]"
    code = run_batch(["garbage", _worked_example_line(), "5:[1,2", too_long], out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "ERR:parse"
    assert lines[1] == "5:[1,0,6,0,25]"
    assert lines[2] == "ERR:parse"
    assert lines[3] == "ERR:parse"
    assert code == 0  # some lines parsed


@pytest.mark.parametrize("line", [
    "5:[0,732_420_000,-771478650,39447199,-388447,-103,1]",  # PEP 515 underscores
    "٥:[0,732420000,-771478650,39447199,-388447,-103,1]",  # Arabic-Indic five
])
def test_grammar_takes_ascii_decimal_only(line):
    # int() reads both, and the curve is the worked example's
    assert process_line(line) == "ERR:parse"
    assert process_line(line.replace("_", "").replace("٥", "5")) == "5:[1,0,6,0,25]"


def test_all_lines_unparseable_is_hard_failure():
    out = io.StringIO()
    assert run_batch(["nope", "also nope"], out) == 1


def test_good_reduction_token():
    f = (1,)
    for fac in [(-i, 1) for i in range(6)]:
        f = poly_mul(f, fac)
    line = "101:[" + ",".join(str(c) for c in f) + "]"
    assert process_line(line) == "ERR:good-reduction"


def test_even_modulus_token():
    assert process_line("8:[1,0,0,0,0,0,1]") == "ERR:not-odd-prime"


def test_check_prime_flag():
    # every odd p is checked for primality, without a flag
    assert process_line("9:[1,0,0,0,0,0,1]") == "ERR:not-prime"


def test_degree_token():
    # a cubic, and a model whose 4f + h^2 cancels down to a constant
    for line in ("5:[1,0,0,1]", "7:[1,0,0,0,0,0,-1]:[0,0,0,2]"):
        assert process_line(line) == "ERR:degree"


def test_composite_modulus_is_named_not_run():
    # a composite p used to spin forever in the F_p remainder loop
    assert process_line("25:[-6875,-468750,11875,-8750,-225,234375,500]") == "ERR:not-prime"
    for line in ("1:[1,0,0,0,0,0,1]", "2:[1,0,0,0,0,0,1]", "-7:[1,0,0,0,0,0,1]"):
        assert process_line(line) == "ERR:not-odd-prime"


@pytest.mark.parametrize(
    "exc, token",
    [
        (HasseViolation("x"), "ERR:hasse-violation"),
        (AmbiguousOrder("x"), "ERR:ambiguous-order"),
        (Unsupported("x"), "ERR:unsupported"),
        (ValueError("x"), "ERR:error"),
        (ZeroDivisionError("x"), "ERR:error"),
        (NonResidue("x"), "ERR:non-residue"),
        (InexactDivision("x"), "ERR:inexact-division"),
        (FieldTooLarge("x"), "ERR:field-too-large"),
        (G2Error("x"), "ERR:error"),
        (BadWitness("x"), "ERR:bad-witness"),
    ],
)
def test_every_exception_ends_in_a_token(monkeypatch, capsys, exc, token):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "euler_factor", fail)
    assert process_line(_worked_example_line()) == token
    traceback_printed = type(exc).__name__ in capsys.readouterr().err
    assert traceback_printed == (not isinstance(exc, G2Error))


def test_error_vocabulary(monkeypatch):
    # every error class declares its own token, a line that raises it prints
    # ERR:<token>, and README's token table lists exactly those tokens plus
    # not-prime (a check, not an error class) and error (anything else)
    classes = [cls for cls in vars(errors).values() if isinstance(cls, type)
               and issubclass(cls, G2Error) and cls is not G2Error] + [cli.ParseError]
    assert all("token" in vars(cls) for cls in classes)
    tokens = [cls.token for cls in classes]
    assert len(set(tokens) | {"not-prime", "error"}) == len(tokens) + 2
    for cls in classes:
        def fail(*args, cls=cls):
            raise cls("x")

        monkeypatch.setattr(cli, "euler_factor", fail)
        assert process_line(_worked_example_line()) == f"ERR:{cls.token}"
    readme = _readme_tokens(CLI_TABLE) + _readme_tokens(LIBRARY_TABLE)
    assert sorted(readme) == sorted(tokens + ["not-prime", "error"])


# header rows of README's two token tables: what process_line prints, and
# what only the library raises
CLI_TABLE = "| token | cause |"
LIBRARY_TABLE = "| token | raised by |"


def _readme_tokens(header):
    """The tokens of the README table whose header row starts with header."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(rf"^{re.escape(header)}.*\n(?:\|.*\n)+", readme, re.M).group(0)
    return re.findall(r"^\| `([a-z-]+)` \|", table, re.M)


# the CLI table's tokens that the fuzz corpus need not print, and the test
# that prints each
TOKEN_TESTS = {
    "ERR:not-odd-prime": "test_even_modulus_token",
    "ERR:not-prime": "test_check_prime_flag",
    "ERR:degree": "test_degree_token",
    "ERR:hasse-violation": "test_every_exception_ends_in_a_token",
    "ERR:ambiguous-order": "test_every_exception_ends_in_a_token",
}


_FUZZ_PRIMES = (3, 5, 7, 11, 13, 31, 97, 251, 1021, 4093, 8191, 16381, 65521, 65537)


def _clustered_roots(rng, p, k, cuts=None):
    """k integer roots in nested p-adic clusters: the k split at cuts (random
    when None) into parts, each part c + p^e * (its own clustered roots)."""
    if k == 1:
        return [rng.randrange(p)]
    cuts = cuts or sorted(rng.sample(range(1, k), rng.randrange(1, k)))
    roots = []
    for a, b in zip([0, *cuts], [*cuts, k]):
        c, e = rng.randrange(p), rng.randrange(1, 4)
        roots += [c + p ** e * r for r in _clustered_roots(rng, p, b - a)]
    return roots


def _fuzz_line(rng):
    """A sextic whose roots cluster p-adically, half of them as two clusters
    of three roots, and one line in three turned into junk: random grammar
    characters or the sextic's line with one character changed."""
    p = rng.choice(_FUZZ_PRIMES)
    f = (rng.randrange(1, p) * p ** rng.randrange(2),)
    for r in _clustered_roots(rng, p, 6, rng.choice(([3], None))):
        f = poly_mul(f, (-r, 1))
    line = f"{p}:[{','.join(map(str, f))}]"
    if rng.randrange(3):
        return line
    if rng.randrange(2):
        return "".join(rng.choice("0123456789-:[], _x\t٥") for _ in range(rng.randrange(30)))
    i = rng.randrange(len(line))
    return line[:i] + rng.choice(("", rng.choice("0123456789-:[],"), line[i] * 2)) + line[i + 1:]


def test_fuzzed_lines_print_a_result_or_a_documented_token():
    # every line answers within a second: p:[1,a1,a2,p*a1,p^2], a token of
    # README's CLI table other than error, or nothing for a blank line
    tokens = {f"ERR:{t}" for t in _readme_tokens(CLI_TABLE)} - {"ERR:error"}
    rng = random.Random(83)
    seen = set()
    for _ in range(2000):
        line = _fuzz_line(rng)
        start = time.perf_counter()
        out = process_line(line)
        assert time.perf_counter() - start < 1.0, line
        m = re.fullmatch(r"(\d+):\[1,(-?\d+),(-?\d+),(-?\d+),(\d+)\]", out or "")
        if m:
            p, a1, _, a3, a4 = map(int, m.groups())
            assert (a3, a4) == (p * a1, p * p), line
            seen.add("result")
        else:
            assert out in tokens or (out is None and not line.strip()), (line, out)
            seen.add(out)
    assert {"result", "ERR:parse", "ERR:not-almost-good", "ERR:good-reduction"} <= seen
    # and every such token is printed here or by the test TOKEN_TESTS names
    for token in sorted(tokens - seen):
        test = globals().get(TOKEN_TESTS.get(token, ""))
        assert test and f'"{token}"' in inspect.getsource(test), f"{token} is never printed"


def test_trailing_zero_omission():
    # degree-5 model given with 6 coefficients
    f = (1,)
    for fac in [(-1, 1), (-2, 1), (-3, 1), (-4, 1), (-5, 1)]:
        f = poly_mul(f, fac)
    line = "101:[" + ",".join(str(c) for c in f) + "]"
    assert process_line(line) == "ERR:good-reduction"


def test_oracle_roundtrip_through_batch():
    rng = random.Random(80)
    insts, lines = [], []
    for _ in range(12):
        p = rng.choice((3, 5, 7, 11, 13))
        inst = random_instance(p, rng.choice(list(ClusterType)), rng)
        insts.append(inst)
        lines.append(job_line(inst))
    out = io.StringIO()
    assert run_batch(lines, out) == 0
    got = out.getvalue().strip().splitlines()
    for inst, line in zip(insts, got):
        c = inst.expected.coefficients()
        assert line == f"{inst.p}:[{c[0]},{c[1]},{c[2]},{c[3]},{c[4]}]"


def test_parallel_matches_sequential():
    rng = random.Random(81)
    lines = []
    for _ in range(8):
        p = rng.choice((3, 5, 7, 11))
        lines.append(job_line(random_instance(p, ClusterType.T2A, rng, compute_expected=False)))
    seq, par = io.StringIO(), io.StringIO()
    run_batch(lines, seq, jobs=1)
    run_batch(lines, par, jobs=2)
    assert seq.getvalue() == par.getvalue()


def test_unseeded_draws_build_no_generator(monkeypatch):
    # type 2a at p = 5 and 13 draws a nonsquare and type 2b at p = 127
    # counts by BSGS over F_{p^2}; types 1 and 4 at p = 7 draw nothing.
    # Every draw comes from the random module's stream.
    rng = random.Random(84)
    insts = [random_instance(p, typ, rng)
             for p, typ in ((5, ClusterType.T2A), (13, ClusterType.T2A), (127, ClusterType.T2B),
                            (7, ClusterType.T1), (7, ClusterType.T4))]
    built = []

    class Counting(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", Counting)
    out = io.StringIO()
    assert run_batch([job_line(inst) for inst in insts] + ["garbage"], out, jobs=1) == 0
    want = [f"{inst.p}:[{','.join(map(str, inst.expected.coefficients()))}]" for inst in insts]
    assert out.getvalue().splitlines() == want + ["ERR:parse"]
    assert [euler_factor(EulerInput(inst.f, inst.p)) for inst in insts] == [
        inst.expected for inst in insts]
    assert built == []


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "g2lpoly.cli"],
        input=_worked_example_line() + "\n",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5:[1,0,6,0,25]"


def test_piped_run_answers_before_stdin_closes():
    # one job reads a line at a time and flushes each answer, so the first
    # result arrives while the writer still holds stdin open
    proc = subprocess.Popen([sys.executable, "-m", "g2lpoly.cli"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        proc.stdin.write(_worked_example_line() + "\n")
        proc.stdin.flush()
        first = []
        reader = threading.Thread(target=lambda: first.append(proc.stdout.readline()),
                                  daemon=True)
        reader.start()
        reader.join(timeout=30)
        assert first == ["5:[1,0,6,0,25]\n"]
        assert proc.poll() is None  # still waiting for more lines
        proc.stdin.write("\n5:[1,2\n")
        proc.stdin.close()
        assert proc.stdout.read() == "ERR:parse\n"
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()


def test_empty_and_blank_streams_exit_0():
    for lines in ([], ["", "  \n", "\n"]):
        out = io.StringIO()
        assert run_batch(iter(lines), out) == 0
        assert out.getvalue() == ""


def test_jobs_2_prints_what_jobs_1_prints(monkeypatch, capsys):
    # 48 lines of all four types, claimed one at a time by this process and
    # one forked worker; every line must come back, in input order.  Then 12
    # type 2b lines at p = 127, whose BSGS counts draw from the random
    # module's stream, which the fork reseeds in the worker
    rng = random.Random(82)
    lines = [
        job_line(random_instance(rng.choice((3, 5, 7, 11, 13)), typ, rng, compute_expected=False))
        for _ in range(12)
        for typ in ClusterType
    ]
    lines += [job_line(random_instance(127, ClusterType.T2B, rng, compute_expected=False))
              for _ in range(12)]
    printed = []
    for jobs in ("1", "2"):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert cli.main(["--jobs", jobs]) == 0
        printed.append(capsys.readouterr().out.splitlines())
    assert len(printed[0]) == len(lines)
    assert printed[1] == printed[0]


def test_each_result_is_written_when_its_line_is_done(monkeypatch):
    out = io.StringIO()
    written = []

    def recording(line):
        written.append(len(out.getvalue().splitlines()))
        return process_line(line)

    monkeypatch.setattr(cli, "process_line", recording)
    lines = [_worked_example_line(), "garbage", "", _worked_example_line()]
    assert run_batch(lines, out) == 0
    assert written == [0, 1, 2]
    assert len(out.getvalue().splitlines()) == 3


def _forks(monkeypatch):
    """Record the pid of every child that run_batch forks."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def _reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    return True


@pytest.mark.parametrize("jobs", [3, 4])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_more_jobs_than_lines_print_what_one_job_prints(jobs, count):
    lines = [_worked_example_line(), "garbage", "11:[0,-1,0,0,0,0,1]"][:count]
    seq, par = io.StringIO(), io.StringIO()
    assert run_batch(lines, seq, jobs=1) == run_batch(lines, par, jobs=jobs)
    assert par.getvalue() == seq.getvalue()
    assert len(seq.getvalue().splitlines()) == count


def test_one_line_forks_nothing(monkeypatch):
    pids = _forks(monkeypatch)
    out = io.StringIO()
    assert run_batch([_worked_example_line()], out, jobs=4) == 0
    assert out.getvalue() == "5:[1,0,6,0,25]\n"
    assert pids == []


def test_lines_are_shared_between_processes(monkeypatch):
    def whose(line):
        time.sleep(0.002)
        return str(os.getpid())

    monkeypatch.setattr(cli, "process_line", whose)
    out = io.StringIO()
    run_batch([str(k) for k in range(20)], out, jobs=2)
    pids = out.getvalue().splitlines()
    assert len(pids) == 20
    assert str(os.getpid()) in pids
    assert len(set(pids)) >= 2


def test_each_line_is_claimed_once_by_more_workers_than_cores(monkeypatch, tmp_path):
    # a lost update of the shared counter would answer some line twice
    claims = tmp_path / "claims"

    def logged(line):
        fd = os.open(claims, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, f"{line}\n".encode())
        os.close(fd)
        return line

    monkeypatch.setattr(cli, "process_line", logged)
    lines = [str(k) for k in range(2000)]
    out = io.StringIO()
    t0 = time.perf_counter()
    assert run_batch(lines, out, jobs=(os.cpu_count() or 1) + 2) == 0
    assert time.perf_counter() - t0 < 30
    assert out.getvalue().splitlines() == lines
    assert sorted(claims.read_text().splitlines(), key=int) == lines


def test_early_worker_death_raises_and_reaps(monkeypatch):
    # the worker dies on its first line, which it claims while this
    # process is busy with one of its own
    parent = os.getpid()

    def dying(line):
        if os.getpid() != parent:
            os._exit(3)
        time.sleep(0.05)
        return line

    monkeypatch.setattr(cli, "process_line", dying)
    pids = _forks(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(cli.WorkerDied):
        run_batch([str(k) for k in range(10)], io.StringIO(), jobs=2)
    assert time.perf_counter() - t0 < 5
    assert len(pids) == 1 and all(_reaped(pid) for pid in pids)


def test_unexpected_exception_in_a_worker_prints_its_token(monkeypatch, capfd):
    # only the worker fails, and this process is slow, so the worker
    # answers some of the lines; each failure is written in its place and
    # its traceback reaches stderr once
    parent = os.getpid()

    def failing(inp):
        if os.getpid() != parent:
            raise KeyError("worker")
        time.sleep(0.05)
        return euler_factor(inp)

    monkeypatch.setattr(cli, "euler_factor", failing)
    lines = [job_line(random_instance(p, ClusterType.T1, random.Random(p), compute_expected=False))
             for p in (3, 5, 7, 11, 13, 17)]
    out = io.StringIO()
    assert run_batch(lines, out, jobs=2) == 0
    got = out.getvalue().splitlines()
    err = capfd.readouterr().err
    assert len(got) == len(lines)
    assert "ERR:error" in got
    for line, res in zip(lines, got):
        assert err.count(f"g2lpoly: {line}\n") == (res == "ERR:error")
        assert res == "ERR:error" or res == process_line(line)
    assert err.count("KeyError: 'worker'") == got.count("ERR:error")


def test_failed_write_leaves_no_worker_running(monkeypatch):
    # the write fails after three results, long before the workers run out
    # of lines, so each is killed and then reaped
    class Breaking(io.StringIO):
        def write(self, text):
            if self.tell() > 20:
                raise BrokenPipeError
            return super().write(text)

    def slow(line):
        time.sleep(0.002)
        return line

    statuses = {}
    waitpid = os.waitpid

    def recording(pid, options):
        statuses[pid] = waitpid(pid, options)[1]
        return pid, statuses[pid]

    monkeypatch.setattr(cli, "process_line", slow)
    pids = _forks(monkeypatch)
    monkeypatch.setattr(os, "waitpid", recording)
    with pytest.raises(BrokenPipeError):
        run_batch([f"line {k}" for k in range(1000)], Breaking(), jobs=3)
    monkeypatch.setattr(os, "waitpid", waitpid)
    assert len(pids) == 2 and all(_reaped(pid) for pid in pids)
    assert all(os.WIFSIGNALED(statuses[pid]) and os.WTERMSIG(statuses[pid]) == signal.SIGKILL
               for pid in pids)
