"""scripts/differential.py with its tree runner replaced by canned lists, so
that no process starts: the comparison main prints and its exit status, and
one cheap section run in-process."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# (input, outcome) pairs as a child prints them
PAIRS = [({"op": "sqrt", "a": a, "p": 7, "s": None}, {"root": r})
         for a, r in ((0, 0), (2, 3), (4, 2))]


@pytest.fixture
def differential():
    spec = importlib.util.spec_from_file_location("differential",
                                                  ROOT / "scripts" / "differential.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def compare(differential, monkeypatch, capsys, tmp_path):
    """Runs main with run_tree stubbed: this tree yields here, the checkout
    there, each through JSON as run_tree reads it; returns (exit status,
    printed lines)."""
    def invoke(here, there):
        trees = {differential.ROOT: here, tmp_path.resolve(): there}
        monkeypatch.setattr(differential, "run_tree",
                            lambda tree: json.loads(json.dumps(trees[tree])))
        status = differential.main(["--checkout", str(tmp_path)])
        return status, capsys.readouterr().out.splitlines()

    return invoke


def test_equal_lists_have_no_mismatches(compare):
    status, lines = compare(PAIRS, PAIRS)
    assert status == 0
    assert lines == ["0 mismatches in 3 inputs"]


def test_a_differing_outcome_is_the_first_mismatch(compare):
    there = PAIRS[:1] + [(PAIRS[1][0], {"exc": "NotOddPrime"}), (PAIRS[2][0], {"root": 5})]
    status, lines = compare(PAIRS, there)
    assert status == 1
    assert lines == ['first mismatch: {"op": "sqrt", "a": 2, "p": 7, "s": null}',
                     '  here:  {"root": 3}', '  there: {"exc": "NotOddPrime"}',
                     "2 mismatches in 3 inputs"]


def test_a_differing_input_is_printed_too(compare):
    there = PAIRS[:2] + [(dict(PAIRS[2][0], a=9), PAIRS[2][1])]
    status, lines = compare(PAIRS, there)
    assert status == 1
    assert lines[-2:] == ['  input there: {"op": "sqrt", "a": 9, "p": 7, "s": null}',
                          "1 mismatches in 3 inputs"]


def test_a_length_mismatch_fails(compare):
    status, lines = compare(PAIRS, PAIRS[:2])
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith("differential: 3 inputs here, 2 in ")


def test_the_sqrt_section_repeats_and_survives_json(differential):
    first, second = list(differential.sqrt_outcomes()), list(differential.sqrt_outcomes())
    assert first == second
    assert len(first) == 1244
    text = json.dumps(first)
    assert json.dumps(json.loads(text)) == text
    assert json.loads(text) == [[case, got] for case, got in second]
