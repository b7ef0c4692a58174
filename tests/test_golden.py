"""Byte-exact pins of CLI documents and library outputs.

Every case below is one invocation; ``golden.json`` holds its exit code and
its exact stdout.  A refactor that keeps the package's behavior keeps every
byte, including the last digit of each stage deviation.  Regenerate the
file only when a change of output is intended:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

from __future__ import annotations

import io
import json
import os
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
    cases["certify 4 seed 3"] = ["certify", "--n", "4", "--seed", "3"]
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


def _write() -> None:
    os.environ.pop("BVLAB_THREADS", None)
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CLI_CASES:
            doc[case] = _run_cli(case, Path(tmp))
    for case in LIBRARY_CASES:
        doc[case] = _run_library(case)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    _write()
