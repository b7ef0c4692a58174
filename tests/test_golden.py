"""Byte-exact pins of CLI documents and library outputs.

Every case below is one invocation; ``golden.json`` holds its exit code and
its exact stdout.  A refactor that keeps the package's behavior keeps every
byte, including the last digit of each stage deviation.  Regenerate the
file only when a change of rounding is intended:

    PYTHONPATH=src python3 tests/test_golden.py --write

``--write`` compares the new outputs with the file first and prints what
moved.  It writes nothing unless the cases and exit codes are the same,
the text is the same with numbers masked, every integer is the same and
every other number moved by at most ``NUMBER_TOL``.  So a new case is
added to ``_cli_cases`` and its entry written into ``golden.json`` by hand,
from ``_run_cli`` at the commit before the change it pins.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from bvlab import cli
from bvlab.bitstring import BitString
from bvlab.pipelines import (
    ALGORITHMS,
    analyze_bva_on_pi,
    ccnot_entanglement_spectrum,
    run_all,
)
from bvlab.truthtable import bv_function, dump_table

GOLDEN = Path(__file__).with_name("golden.json")

# AND keeps no algorithm's promise, so every run of it exits 1.
AND_TABLE = "arity 2\n0001\n"

# How far a regeneration may move a number with a point or an exponent,
# such as a stage deviation.  Keys, counts and exit codes may not move.
NUMBER_TOL = 1e-14
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _cli_cases() -> dict[str, list[str]]:
    """Case name -> argv; ``{table}`` stands for a table file's path."""
    cases = {}
    for name in ALGORITHMS:
        for gamma in ("1", "1011", "10110"):
            cases[f"run {name} {gamma} seed"] = [
                "run", "--algorithm", name, "--gamma", gamma, "--seed", "5"
            ]
        cases[f"run {name} text"] = [
            "run", "--algorithm", name, "--gamma", "101", "--format", "text"
        ]
        cases[f"run {name} promise table"] = [
            "run", "--algorithm", name, "--table", "{table}"
        ]
        cases[f"run {name} and table seed"] = [
            "run", "--algorithm", name, "--table", "{and}", "--seed", "5"
        ]
        for fmt in ("json", "text"):
            cases[f"trace {name} {fmt}"] = [
                "trace", "--algorithm", name, "--gamma", "101", "--format", fmt
            ]
    cases["sweep 3"] = ["sweep", "--n", "3"]
    cases["certify 2"] = ["certify", "--n", "2"]
    # Exhaustive: all 256 functions of 3 bits, 128 x 128 two-register matrices.
    cases["certify 3"] = ["certify", "--n", "3"]
    cases["certify 4 seed 3"] = ["certify", "--n", "4", "--seed", "3"]
    # From tolerance 1 on, the structure checks evaluate every matrix dense.
    cases["certify 3 tol 1"] = ["certify", "--n", "3", "--tolerance", "1"]
    cases["certify 4 seed 3 tol 1"] = [
        "certify", "--n", "4", "--seed", "3", "--tolerance", "1"
    ]
    # 22 qubits: from _SPLIT amplitudes on, the layers, oracles, compares
    # and top read-out split between workers.
    cases["run ccnot-bva 20 bits"] = [
        "run", "--algorithm", "ccnot-bva", "--gamma", "00101111001011011001"
    ]
    # Every run starts from its register layout's shared first layer.
    cases["sweep 8"] = ["sweep", "--n", "8"]
    return cases


CLI_CASES = _cli_cases()
LIBRARY_KEYS = ("1", "01", "110", "1011", "10110")
LIBRARY_CASES = [f"{what} {key}" for what in ("analyze", "spectrum", "run_all")
                 for key in LIBRARY_KEYS]


def _run_cli(case: str, workdir: Path) -> dict:
    argv = list(CLI_CASES[case])
    if "{table}" in argv:
        # The algorithm's own promise, planted for key 101.
        make = ALGORITHMS[argv[2]][1]
        path = workdir / "promise.table"
        path.write_text(dump_table(make(BitString.parse("101"))))
        argv[argv.index("{table}")] = str(path)
    if "{and}" in argv:
        path = workdir / "and.table"
        path.write_text(AND_TABLE)
        argv[argv.index("{and}")] = str(path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue()}


def _run_library(case: str) -> dict:
    what, key = case.split()
    gamma = BitString.parse(key)
    if what == "analyze":
        doc = analyze_bva_on_pi(gamma).to_dict()
    elif what == "spectrum":
        doc = [float(v) for v in ccnot_entanglement_spectrum(bv_function(gamma))]
    else:
        doc = [r.to_dict() for r in run_all(gamma)]
    return {"code": 0, "stdout": json.dumps(doc, indent=2) + "\n"}


def _expected() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("BVLAB_THREADS", raising=False)


def test_golden_covers_exactly_the_cases():
    assert set(_expected()) == set(CLI_CASES) | set(LIBRARY_CASES)


@pytest.mark.parametrize("case", list(CLI_CASES))
def test_cli_document_is_byte_identical(case, tmp_path):
    assert _run_cli(case, tmp_path) == _expected()[case]


@pytest.mark.parametrize("case", LIBRARY_CASES)
def test_library_output_is_byte_identical(case):
    assert _run_library(case) == _expected()[case]


def _is_float(token: str) -> bool:
    return "." in token or "e" in token.lower()


def golden_changes(old: dict, new: dict) -> tuple[list[str], list[float], int]:
    """Compare two golden documents: (faults, number moves, entries changed).

    A fault is a case in one document only, a changed exit code, text that
    differs with numbers masked, a changed integer, or a float that moved
    by more than NUMBER_TOL.  Every float that changed adds its move.
    """
    faults: list[str] = []
    moves: list[float] = []
    changed = 0
    for case in sorted(old.keys() | new.keys()):
        if case not in old or case not in new:
            faults.append(f"{case}: only in the {'new' if case in new else 'old'} file")
            continue
        before, after = old[case], new[case]
        if before == after:
            continue
        changed += 1
        if before["code"] != after["code"]:
            faults.append(f"{case}: exit code {before['code']} -> {after['code']}")
        text = [_NUMBER.sub("#", doc["stdout"]) for doc in (before, after)]
        if text[0] != text[1] or before.keys() != after.keys():
            faults.append(f"{case}: text differs with numbers masked")
            continue
        pairs = zip(_NUMBER.findall(before["stdout"]), _NUMBER.findall(after["stdout"]))
        for x, y in pairs:
            if x == y:
                continue
            if not (_is_float(x) and _is_float(y)):
                faults.append(f"{case}: {x} -> {y}")
                continue
            moves.append(abs(float(x) - float(y)))
            if not moves[-1] <= NUMBER_TOL:
                faults.append(f"{case}: {x} -> {y} moved by {moves[-1]:.2g}")
    return faults, moves, changed


def test_golden_checker_accepts_only_small_float_moves():
    old = {
        "a": {"code": 0, "stdout": '{"delta": 1.5e-16, "key": "0110", "n": 4}\n'},
        "b": {"code": 1, "stdout": "x\t-0.000000000000\n"},
    }
    same = json.loads(json.dumps(old))
    assert golden_changes(old, same) == ([], [], 0)
    moved = json.loads(json.dumps(old))
    moved["a"]["stdout"] = moved["a"]["stdout"].replace("1.5e-16", "4.5e-16")
    moved["b"]["stdout"] = "x\t0.000000000000\n"
    faults, moves, changed = golden_changes(old, moved)
    assert (faults, changed) == ([], 2)
    assert sorted(moves) == [0.0, pytest.approx(3e-16)]
    for case, before, after in (
        ("a", "1.5e-16", "1.5e-13"),
        ("a", '"0110"', '"0111"'),
        ("a", '"0110"', '"110"'),
        ("a", "4}", "4.0}"),
        ("a", "delta", "delta2"),
        ("b", "x", "y"),
    ):
        broken = json.loads(json.dumps(old))
        broken[case]["stdout"] = broken[case]["stdout"].replace(before, after)
        assert golden_changes(old, broken)[0], (before, after)
    recoded = json.loads(json.dumps(old))
    recoded["b"]["code"] = 2
    assert golden_changes(old, recoded)[0] == ["b: exit code 1 -> 2"]
    assert golden_changes(old, {"a": old["a"]})[0] == ["b: only in the old file"]


def _write() -> None:
    os.environ.pop("BVLAB_THREADS", None)
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CLI_CASES:
            doc[case] = _run_cli(case, Path(tmp))
    for case in LIBRARY_CASES:
        doc[case] = _run_library(case)
    faults, moves, changed = golden_changes(_expected(), doc)
    print(f"{changed} of {len(doc)} entries changed; {len(moves)} numbers moved, "
          f"largest by {max(moves, default=0.0):.2g} (tolerance {NUMBER_TOL:g})")
    if faults:
        print("\n".join(faults))
        raise SystemExit(f"{GOLDEN.name} not written: {len(faults)} faults")
    print("cases, exit codes, masked text and integers identical; "
          f"{GOLDEN.name} written")
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write()
