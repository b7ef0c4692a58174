"""Command-line front end: run pipelines, certify oracles, sweep, trace.

Commands
  run      execute one pipeline for a planted key or a raw truth table
  certify  dense-matrix checks (unitary, self-adjoint, structure) for all
           five oracle kinds over exhaustive or seeded-random function sets
  sweep    run every pipeline for every key of a given width, each run
           starting from its register layout's first-layer state, built
           once, and summarize
  trace    re-run one pipeline keeping every intermediate state and dump
           each stage next to its closed-form check

Exit codes: 0 success, 1 algorithmic failure (a claimed property did not
hold), 2 usage or capacity error.  Identical invocations with identical
seeds produce byte-identical documents; reports default to JSON, and
``--format text`` renders fixed-width tables instead.

Environment: BVLAB_THREADS is the only variable read.  It caps sweep's
workers and the workers that split each Hadamard layer, oracle, stage
compare and top-register read-out on states of 2**21 or more amplitudes;
both counts are also capped by the usable CPUs, and no document depends
on them.  Every command refuses a value that is not a positive integer
with exit 2.  On such a state each pipeline run's top read-out consumes
the state, writing its table into the state's own buffer, so a run peaks
at one state plus its tiles, never a state and a table (``trace`` also
keeps a copy of every stage).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bitstring import BitString, all_bitstrings
from .errors import CapacityError
from .oracles import OracleKind, oracle_dense_matrix
from .pipelines import (
    ALGORITHMS,
    RunReport,
    distribution_table,
    run_all,
    spread_states,
)
from .statevector import _worker_count, check_oracle_matrix, draw, dump_state
from .truthtable import BooleanFunction, load_table
# Unused here, but benchmarks/tracing.py swaps these names on this module.
from .statevector import (  # noqa: F401
    check_hermitian,
    check_permutation,
    check_signed_diagonal,
    check_unitary,
)
from .truthtable import bv_function, pi_function  # noqa: F401

__all__ = ["main", "build_parser"]

SWEEP_CAP_DEFAULT = 12
TRACE_CAP = 8
CERTIFY_EXHAUSTIVE_CAP = 3
CERTIFY_RANDOM_ARITY = 4
CERTIFY_RANDOM_COUNT = 100


def _output_problem(output_path: str) -> Optional[str]:
    """Why --output cannot be written, checked before any work; else None."""
    target = Path(output_path)
    if target.is_dir():
        return os.strerror(errno.EISDIR)
    if not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
        return os.strerror(code)
    if not os.access(target.parent, os.W_OK):
        return os.strerror(errno.EACCES)
    return None


def _emit(text: str, output_path: Optional[str], status: int) -> int:
    """Write the document; returns ``status``, or 2 if --output is unwritable.

    ``main`` has already refused a path it can tell is unwritable; this
    catches what changes or fails while the document is being computed.
    """
    if output_path is None:
        sys.stdout.write(text)
        return status
    try:
        Path(output_path).write_text(text)
    except OSError as err:
        reason = err.strerror or err
        return _usage_error(f"cannot write --output {output_path}: {reason}")
    return status


def _render(doc: dict, fmt: str, as_text) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    return as_text(doc)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _distribution_lines(table: dict[str, float], indent: str = "  ") -> list[str]:
    return [f"{indent}{label}  {value:.12f}" for label, value in table.items()]


# ---------------------------------------------------------------- run


def _run_text(doc: dict) -> str:
    lines = [
        f"algorithm     {doc['algorithm']}",
        f"n             {doc['n']}",
        f"qubits        {doc['qubits']}",
        f"oracle calls  {doc['oracle_calls']}",
        f"recovered     {doc['recovered']}",
    ]
    if "expected" in doc:
        lines.append(f"expected      {doc['expected']}")
        lines.append(f"matches       {'yes' if doc['matches'] else 'no'}")
    if "promise_verified" in doc:
        lines.append(
            f"promise       {'verified' if doc['promise_verified'] else 'VIOLATED'}"
        )
    if "sample" in doc:
        lines.append(f"sample        {doc['sample']}")
    lines.append("top distribution")
    lines.extend(_distribution_lines(doc["top_distribution"]))
    if "middle_distribution" in doc:
        lines.append("middle distribution")
        lines.extend(_distribution_lines(doc["middle_distribution"]))
    if "stage_checks" in doc:
        lines.append("stage checks")
        for c in doc["stage_checks"]:
            flag = "ok" if c["ok"] else "FAIL"
            lines.append(
                f"  {c['stage']:<20} {c['comparator']:<28} "
                f"{c['deviation']:.3e}  {flag}"
            )
    if "failure" in doc:
        lines.append(f"failure       {doc['failure']}")
    return "\n".join(lines) + "\n"


def cmd_run(args: argparse.Namespace) -> int:
    pipeline, make = ALGORITHMS[args.algorithm]
    if args.gamma is not None:
        try:
            gamma: Optional[BitString] = BitString.parse(args.gamma)
        except ValueError as err:
            return _usage_error(str(err))
        f = make(gamma)
    else:
        try:
            f = load_table(Path(args.table).read_text())
        except OSError as err:
            return _usage_error(f"cannot read table: {err}")
        except ValueError as err:
            return _usage_error(f"bad table file: {err}")
        gamma = None

    report: RunReport = pipeline(f, tol=args.tolerance)
    doc = report.to_dict()

    if gamma is not None:
        doc["expected"] = str(gamma)
        doc["matches"] = report.recovered == gamma
        status = 0 if doc["matches"] else 1
    else:
        verified = report.recovered is not None and np.array_equal(
            make(report.recovered).table, f.table
        )
        doc["promise_verified"] = bool(verified)
        status = 0 if verified else 1

    if args.seed is not None:
        doc["sample"] = str(draw(report.top_distribution, report.n, args.seed))

    return _emit(_render(doc, args.format, _run_text), args.output, status)


# ---------------------------------------------------------------- certify


def _certify_functions(n: int, seed: int) -> tuple[str, list[BooleanFunction]]:
    if n <= CERTIFY_EXHAUSTIVE_CAP:
        entries = 1 << n
        fs = [
            BooleanFunction([(t >> v) & 1 for v in range(entries)])
            for t in range(1 << entries)
        ]
        return "exhaustive", fs
    rng = np.random.default_rng(seed)
    tables = rng.integers(0, 2, size=(CERTIFY_RANDOM_COUNT, 1 << n), dtype=np.uint8)
    return "random", [BooleanFunction(row) for row in tables]


def _certify_text(doc: dict) -> str:
    seed = f"seed={doc['seed']}  " if "seed" in doc else ""
    lines = [
        f"oracle certification  n={doc['n']}  mode={doc['mode']}  {seed}"
        f"functions per kind={doc['functions_per_kind']}  "
        f"tolerance={doc['tolerance']:g}",
        f"{'kind':<14} {'structure':<16} {'unitary':<8} "
        f"{'self-adjoint':<13} {'structure ok':<13}",
    ]
    for name, entry in doc["kinds"].items():
        lines.append(
            f"{name:<14} {entry['structure']:<16} "
            f"{_pf(entry['unitary_failures']):<8} "
            f"{_pf(entry['hermitian_failures']):<13} "
            f"{_pf(entry['structure_failures']):<13}"
        )
    lines.append(f"overall: {'pass' if doc['all_passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _pf(failures: int) -> str:
    return "pass" if failures == 0 else f"{failures} FAIL"


def cmd_certify(args: argparse.Namespace) -> int:
    if args.n > CERTIFY_RANDOM_ARITY:
        # Sizes as powers of two: 1 << (1 << 14) has too many digits for str.
        qubits = 2 * args.n + 1
        return _usage_error(
            f"certify handles n <= {CERTIFY_RANDOM_ARITY}; at n={args.n} the "
            f"{qubits}-qubit two-register oracle matrix would take "
            f"2**{2 * qubits + 3} bytes"
        )

    mode, functions = _certify_functions(args.n, args.seed)
    doc: dict = {"n": args.n, "mode": mode}
    if mode == "random":
        # Names the draw, so documents from different seeds differ.
        doc["seed"] = args.seed
    doc["functions_per_kind"] = len(functions)
    doc["tolerance"] = args.tolerance
    doc["kinds"] = {}
    all_passed = True
    for kind in OracleKind:
        entry = {
            "qubits": kind.qubit_count(args.n),
            "structure": kind.structure,
            "unitary_failures": 0,
            "hermitian_failures": 0,
            "structure_failures": 0,
        }
        for f in functions:
            matrix = oracle_dense_matrix(kind, f)
            unitary, hermitian, structure_ok = check_oracle_matrix(
                matrix, kind.structure, args.tolerance
            )
            entry["unitary_failures"] += not unitary
            entry["hermitian_failures"] += not hermitian
            entry["structure_failures"] += not structure_ok
        if (
            entry["unitary_failures"]
            or entry["hermitian_failures"]
            or entry["structure_failures"]
        ):
            all_passed = False
        doc["kinds"][kind.value] = entry
    doc["all_passed"] = all_passed

    status = 0 if all_passed else 1
    return _emit(_render(doc, args.format, _certify_text), args.output, status)


# ---------------------------------------------------------------- sweep


def _sweep_workers(jobs: int) -> int:
    return min(jobs, _worker_count())


def _sweep_text(doc: dict) -> str:
    lines = [
        f"sweep n={doc['n']}: {doc['keys']} keys, {doc['runs']} runs, "
        f"{doc['successes']} successes",
        f"{'algorithm':<20} {'successes':<10} {'oracle calls':<12}",
    ]
    for name, entry in doc["per_algorithm"].items():
        lines.append(
            f"{name:<20} {entry['successes']:<10} {entry['oracle_calls']:<12}"
        )
    for failure in doc["failures"]:
        lines.append(
            f"FAIL {failure['algorithm']} gamma={failure['gamma']} "
            f"recovered={failure['recovered']}"
        )
    lines.append(f"overall: {'pass' if doc['all_passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.n > args.cap:
        # A power of two, as in cmd_certify: 1 << 16001 is too long for str.
        qubits = 2 * args.n + 1
        return _usage_error(
            f"sweep n={args.n} exceeds cap {args.cap}; the {qubits}-qubit "
            f"pipeline would hold 2**{qubits} amplitudes"
        )
    workers = _sweep_workers(1 << args.n)
    keys = list(all_bitstrings(args.n))
    # The first layer's output does not depend on the key: build it once.
    shared = spread_states(args.n)

    def sweep_one(gamma: BitString) -> list[RunReport]:
        return run_all(
            gamma, record_stages=False, tol=args.tolerance, spread_states=shared
        )

    # map keeps key order, and each run is bit-exact on any thread.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(sweep_one, keys))

    per_algorithm = {
        name: {"successes": 0, "oracle_calls": 0} for name in ALGORITHMS
    }
    failures = []
    for gamma, reports in zip(keys, results):
        for report in reports:
            entry = per_algorithm[report.algorithm]
            entry["oracle_calls"] += report.oracle_calls
            if report.recovered == gamma:
                entry["successes"] += 1
            else:
                failures.append(
                    {
                        "algorithm": report.algorithm,
                        "gamma": str(gamma),
                        "recovered": None
                        if report.recovered is None
                        else str(report.recovered),
                    }
                )
    successes = sum(e["successes"] for e in per_algorithm.values())
    runs = len(ALGORITHMS) * len(keys)
    doc = {
        "n": args.n,
        "keys": len(keys),
        "runs": runs,
        "successes": successes,
        "per_algorithm": per_algorithm,
        "failures": failures,
        "all_passed": successes == runs,
    }
    status = 0 if doc["all_passed"] else 1
    return _emit(_render(doc, args.format, _sweep_text), args.output, status)


# ---------------------------------------------------------------- trace


def _trace_text(doc: dict) -> str:
    lines = [
        f"trace {doc['algorithm']}  gamma={doc['gamma']}  qubits={doc['qubits']}",
        f"recovered: {doc['recovered']}",
    ]
    for stage in doc["stages"]:
        for check in stage["checks"]:
            flag = "ok" if check["ok"] else "FAIL"
            lines.append(
                f"stage {stage['name']}  [{check['comparator']} "
                f"deviation={check['deviation']:.3e} {flag}]"
            )
        if not stage["checks"]:
            lines.append(f"stage {stage['name']}")
        lines.extend(f"  {row}" for row in stage["state"])
    lines.append(f"all checks: {'pass' if doc['all_checks_ok'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        gamma = BitString.parse(args.gamma)
    except ValueError as err:
        return _usage_error(str(err))
    if len(gamma) > TRACE_CAP:
        return _usage_error(
            f"trace keeps every stage; n={len(gamma)} exceeds cap {TRACE_CAP}"
        )
    pipeline, make = ALGORITHMS[args.algorithm]
    report: RunReport = pipeline(
        make(gamma), record_stages=True, keep_states=True, tol=args.tolerance
    )
    stages = []
    for name, state in report.states.items():
        checks = [
            {
                "comparator": c.comparator,
                "deviation": float(c.deviation),
                "ok": c.ok,
            }
            for c in report.stage_checks
            if c.stage == name
        ]
        stages.append(
            {"name": name, "checks": checks, "state": dump_state(state).splitlines()}
        )
    doc = {
        "algorithm": args.algorithm,
        "gamma": str(gamma),
        "n": report.n,
        "qubits": report.qubits,
        "recovered": None if report.recovered is None else str(report.recovered),
        "stages": stages,
        "all_checks_ok": report.stages_ok(),
    }
    ok = report.recovered == gamma and report.stages_ok()
    return _emit(_render(doc, args.format, _trace_text), args.output, 0 if ok else 1)


# ---------------------------------------------------------------- parser


def _add_common(parser: argparse.ArgumentParser, default_tol: float) -> None:
    parser.add_argument(
        "--tolerance",
        type=float,
        default=default_tol,
        help=f"numeric tolerance (default {default_tol:g})",
    )
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="output rendering (default json)",
    )
    parser.add_argument(
        "--output", metavar="PATH", default=None, help="write the document here"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bvlab",
        description="Simulate and certify hidden-key oracle circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one pipeline")
    run.add_argument(
        "--algorithm",
        choices=tuple(ALGORITHMS),
        required=True,
        help="which pipeline to execute",
    )
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--gamma", help="hidden key as a bit string, e.g. 101")
    source.add_argument(
        "--table", metavar="PATH", help="truth-table file (arity header + bits line)"
    )
    run.add_argument(
        "--seed", type=int, default=None, help="also draw one seeded sample"
    )
    _add_common(run, 1e-9)
    run.set_defaults(func=cmd_run)

    certify = sub.add_parser("certify", help="dense-matrix oracle checks")
    certify.add_argument("--n", type=int, required=True, help="function arity")
    certify.add_argument(
        "--seed",
        type=int,
        default=0,
        help=f"seed for the n={CERTIFY_RANDOM_ARITY} random function draw",
    )
    _add_common(certify, 1e-12)
    certify.set_defaults(func=cmd_certify)

    sweep = sub.add_parser("sweep", help="run every pipeline for every key")
    sweep.add_argument("--n", type=int, required=True, help="key width")
    sweep.add_argument(
        "--cap",
        type=int,
        default=SWEEP_CAP_DEFAULT,
        help=f"refuse n above this (default {SWEEP_CAP_DEFAULT})",
    )
    _add_common(sweep, 1e-9)
    sweep.set_defaults(func=cmd_sweep)

    trace = sub.add_parser("trace", help="dump every stage of one run")
    trace.add_argument(
        "--algorithm", choices=tuple(ALGORITHMS), required=True
    )
    trace.add_argument("--gamma", required=True, help="hidden key bit string")
    _add_common(trace, 1e-9)
    trace.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "n", None) is not None and args.n < 1:
        return _usage_error("n must be >= 1")
    if getattr(args, "seed", None) is not None and args.seed < 0:
        return _usage_error("seed must be >= 0")
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        return _usage_error(
            f"--tolerance must be finite and >= 0, got {args.tolerance}"
        )
    try:
        _worker_count()
    except ValueError as err:
        return _usage_error(str(err))
    if args.output is not None:
        problem = _output_problem(args.output)
        if problem is not None:
            return _usage_error(f"cannot write --output {args.output}: {problem}")
    try:
        return args.func(args)
    except CapacityError as err:
        return _usage_error(str(err))
    except MemoryError:
        return _usage_error("state does not fit in memory")


if __name__ == "__main__":
    raise SystemExit(main())
