import io
import random
import re
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
    assert sorted(_readme_tokens()) == sorted(tokens + ["not-prime", "error"])


def _readme_tokens():
    """The tokens of README's ERR:<token> table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(r"^\| `([a-z-]+)` \|", readme, re.M)


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
    # README's table other than error, or nothing for a blank line
    tokens = {f"ERR:{t}" for t in _readme_tokens()} - {"ERR:error"}
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


def test_seed_does_not_change_output(monkeypatch, capsys):
    # the worked example is type 2a at p = 5 = 1 mod 4, so the square root
    # that finds its two centres draws a nonsquare from the seeded stream
    printed = []
    for seed in ("1", "2"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(_worked_example_line() + "\n"))
        assert cli.main(["--seed", seed]) == 0
        printed.append(capsys.readouterr().out)
    assert printed == ["5:[1,0,6,0,25]\n"] * 2


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
    # 48 lines of all four types go to two workers in chunks of 16; every
    # line must come back, in input order
    rng = random.Random(82)
    lines = [
        job_line(random_instance(rng.choice((3, 5, 7, 11, 13)), typ, rng, compute_expected=False))
        for _ in range(12)
        for typ in ClusterType
    ]
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

    def recording(line, seed=None):
        written.append(len(out.getvalue().splitlines()))
        return process_line(line, seed)

    monkeypatch.setattr(cli, "process_line", recording)
    lines = [_worked_example_line(), "garbage", "", _worked_example_line()]
    assert run_batch(lines, out) == 0
    assert written == [0, 1, 2]
    assert len(out.getvalue().splitlines()) == 3
