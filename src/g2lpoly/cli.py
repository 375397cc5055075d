"""Batch front end: read curve/prime jobs from stdin, write L-polynomial
coefficients to stdout.

Line grammar (ASCII decimal, whitespace-insensitive; a number longer than
sys.get_int_max_str_digits() digits, 4,300 on CPython 3.11, is ERR:parse):

    p:[f0,...,f6]
    p:[f0,...,f6]:[h0,...,h3]

Trailing zero coefficients may be omitted.  Each successful line prints

    p:[1,a1,a2,p*a1,p^2]

which are the coefficients of 1 + a1*T + a2*T^2 + p*a1*T^3 + p^2*T^4 in that
exact sign convention (systems differ; this one expands the polynomial as
written).  Failed lines print ERR:<token> and processing continues.
Blank lines are skipped.  Output keeps input order at any --jobs, each
line written and flushed once it and every line before it are done; one job
reads stdin a line at a time, more jobs read all of it first.  Above one
job this process forks --jobs - 1 workers (POSIX only; elsewhere one job
runs) and answers lines beside them.  multiprocessing is imported only for
--jobs above 1, and traceback only for an unexpected exception, so a
one-job run starts without either.
"""

import argparse
import contextlib
import itertools
import os
import random
import sys

from .errors import G2Error
from .eulercore import EulerInput, euler_factor
from .modarith import is_prime


class ParseError(G2Error):
    """The line does not follow the grammar."""
    token = "parse"


class WorkerDied(RuntimeError):
    """A --jobs worker exited before answering every line that it claimed."""


def _parse_bracket_list(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected [..] list, got {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise ParseError("empty coefficient list")
    try:
        return tuple(int(tok.strip()) for tok in body.split(","))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_job_line(line):
    """-> (p, f_coeffs, h_coeffs or None)."""
    if not line.isascii() or "_" in line:  # int() would read PEP 515 and Unicode digits
        raise ParseError("the grammar takes ASCII decimal digits only")
    parts = line.strip().split(":")
    if len(parts) not in (2, 3):
        raise ParseError("expected p:[f0,...] or p:[f0,...]:[h0,...]")
    try:
        p = int(parts[0].strip())
    except ValueError as exc:
        raise ParseError(f"bad prime field {parts[0]!r}") from exc
    f = _parse_bracket_list(parts[1])
    if len(f) > 7:
        raise ParseError("more than 7 curve coefficients")
    h = None
    if len(parts) == 3:
        h = _parse_bracket_list(parts[2])
        if len(h) > 4:
            raise ParseError("more than 4 twisting coefficients")
    return p, f, h


def process_line(line, seed=None):
    """One job line -> one output line; never raises.

    Every odd p >= 3 is checked for primality first; even p and p < 3 are
    left to euler_factor, which names them not-odd-prime.  A G2Error prints
    ERR:<its token>; any other exception prints ERR:error and writes its
    traceback to stderr.
    """
    if not line.strip():
        return None
    try:
        p, f, h = parse_job_line(line)
    except ParseError as exc:
        return f"ERR:{exc.token}"
    if p >= 3 and p % 2 and not is_prime(p):
        return "ERR:not-prime"
    rng = random.Random(f"{seed}|{line.strip()}")
    try:
        lp = euler_factor(EulerInput(f, p, h), rng)
    except G2Error as exc:
        return f"ERR:{exc.token}"
    except Exception:
        import traceback

        print(f"g2lpoly: {line.strip()}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return "ERR:error"
    c = lp.coefficients()
    return f"{p}:[{c[0]},{c[1]},{c[2]},{c[3]},{c[4]}]"


def _forked(lines, jobs, seed):
    """Yield process_line of each line in order, computed by this process and
    min(jobs, len(lines)) - 1 forked children.  Each process claims the next
    line from one shared counter; a child sends "<index> <result>" lines down
    its own pipe, which this process reads after each of its own lines."""
    import multiprocessing
    import select
    import signal

    # loaded once here, forked workers share numpy instead of each
    # importing it for its first exhaustive count
    import numpy  # noqa: F401

    n = len(lines)
    counter = multiprocessing.Value("q", 0)

    def claim():
        with counter.get_lock():
            counter.value += 1
            return counter.value - 1

    kids, bufs, done = {}, {}, {}  # read fd -> pid, read fd -> partial record, index -> result

    def drain(timeout):
        for fd in select.select(list(kids), [], [], timeout)[0]:
            chunk = os.read(fd, 1 << 16)
            if chunk:
                *records, bufs[fd] = (bufs[fd] + chunk).split(b"\n")
                for rec in records:
                    i, res = rec.split(b" ", 1)
                    done[int(i)] = res.decode()
                continue
            pid = kids.pop(fd)
            os.close(fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                raise WorkerDied(f"worker {pid} exited with status {code}")

    sys.stderr.flush()  # else a child's flush would write the pending bytes again
    try:
        for _ in range(min(jobs, n) - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    while (i := claim()) < n:
                        data = b"%d %s\n" % (i, process_line(lines[i], seed).encode())
                        while data:
                            data = data[os.write(w, data):]
                    status = 0
                finally:
                    with contextlib.suppress(Exception):
                        sys.stderr.flush()
                    os._exit(status)
            os.close(w)
            kids[r], bufs[r] = pid, b""
        i, nxt = claim(), 0
        while nxt < n:
            if i < n:
                done[i] = process_line(lines[i], seed)
                i = claim()
                drain(0)
            elif kids:
                drain(None)
            else:
                raise WorkerDied(f"no worker answered line {nxt + 1}")
            while nxt in done:
                yield done.pop(nxt)
                nxt += 1
    except BaseException:
        for pid in kids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd, pid in kids.items():
            os.close(fd)
            os.waitpid(pid, 0)


def run_batch(lines, out, jobs=1, stable=True, seed=None):
    """Process a job stream, writing and flushing each result in input order
    as soon as it is done; returns the exit code (0 unless lines came and none
    parsed).  One job reads the lines as it needs them.  More jobs take them
    all first and, where os.fork exists, fork jobs - 1 workers; this process
    answers lines too and writes the workers' results once it has finished
    its current line.  A worker that dies raises WorkerDied, and no worker
    outlives the call.  stable still selects nothing; perfbench/run.py passes
    it."""
    lines = (ln for ln in lines if ln.strip())
    first = next(lines, None)
    if first is None:
        return 0
    lines = itertools.chain((first,), lines)
    parsed = 0
    with contextlib.ExitStack() as stack:
        if jobs > 1 and hasattr(os, "fork"):
            results = stack.enter_context(contextlib.closing(_forked(list(lines), jobs, seed)))
        else:
            results = map(process_line, lines, itertools.repeat(seed))
        for res in results:
            print(res, file=out, flush=True)
            parsed += res != "ERR:parse"
    return 0 if parsed else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="g2lpoly",
        description="Euler factors of genus 2 curves at odd primes of almost "
        "good reduction; reads p:[f0,...,f6](:[h0,...,h3]) lines from stdin.",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="processes answering lines, this one included")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the Las Vegas draws")
    args = parser.parse_args(argv)
    try:
        return run_batch(sys.stdin, sys.stdout, jobs=max(args.jobs, 1), seed=args.seed)
    except OSError:  # stdin or stdout failed
        return 2


if __name__ == "__main__":
    sys.exit(main())
