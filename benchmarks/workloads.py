"""The benchmark's workloads: seeded op lists and the check on each output.

An op is one ``bvlab.cli.main`` invocation.  Its output document is parsed
and checked field by field; a failed check is a failed op, never dropped.
All workloads are closed-loop with one client: the next op starts when the
previous one has returned.  Why each was chosen is stated in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

CERTIFY_KINDS = 5
CERTIFY_FUNCTIONS = 100
SWEEP_N = 8
SWEEP_RUNS = 4 << SWEEP_N
LOOP = "closed loop, one client, one op at a time"


class OutputError(Exception):
    """An op's exit code or output document is not what the inputs imply."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    # Takes the parsed document, raises OutputError, returns verified items.
    check: Callable[[dict], int]


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    make_ops: Callable[[int], list[Op]]
    warmup: tuple[tuple[str, ...], ...]
    # Exact counts must also agree between two seeds (sizes do not vary).
    cross_seed: bool = False


def judge(op: Op, code: object, text: str) -> int:
    """Verified items for one finished op; raises OutputError on a bad result."""
    _require(code == 0, f"exit code {code!r}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise OutputError(f"output is not JSON: {err}") from None
    _require(isinstance(doc, dict), "output is not a JSON object")
    return op.check(doc)


def _point_mass(table: object, key: str) -> bool:
    return (
        isinstance(table, dict)
        and set(table) == {key}
        and abs(table[key] - 1.0) <= 1e-9
    )


def check_run(doc: dict, algorithm: str, gamma: str) -> int:
    _require(doc.get("algorithm") == algorithm, f"algorithm {doc.get('algorithm')!r}")
    _require(doc.get("n") == len(gamma), f"n {doc.get('n')!r}")
    _require(doc.get("expected") == gamma, f"expected {doc.get('expected')!r}")
    _require(doc.get("recovered") == gamma, f"recovered {doc.get('recovered')!r}")
    _require(doc.get("matches") is True, "matches is not true")
    _require(_point_mass(doc.get("top_distribution"), gamma),
             "top distribution is not a point mass on the key")
    if algorithm == "pi":
        _require(_point_mass(doc.get("middle_distribution"), gamma),
                 "middle distribution is not a point mass on the key")
    checks = doc.get("stage_checks")
    _require(isinstance(checks, list) and len(checks) > 0, "no stage checks")
    bad = [c.get("stage") for c in checks if c.get("ok") is not True]
    _require(not bad, f"stage checks failed: {bad}")
    return 1


def check_sweep(doc: dict) -> int:
    _require(doc.get("n") == SWEEP_N, f"n {doc.get('n')!r}")
    _require(doc.get("runs") == SWEEP_RUNS, f"runs {doc.get('runs')!r}")
    _require(doc.get("successes") == SWEEP_RUNS, f"successes {doc.get('successes')!r}")
    _require(doc.get("all_passed") is True, "all_passed is not true")
    _require(doc.get("failures") == [], "failures listed")
    per = doc.get("per_algorithm", {})
    _require(
        len(per) == 4 and all(e.get("successes") == 1 << SWEEP_N for e in per.values()),
        "per-algorithm successes",
    )
    return SWEEP_RUNS


def check_certify(doc: dict) -> int:
    _require(doc.get("n") == 4 and doc.get("mode") == "random", "n or mode")
    _require(doc.get("functions_per_kind") == CERTIFY_FUNCTIONS,
             f"functions_per_kind {doc.get('functions_per_kind')!r}")
    _require(doc.get("all_passed") is True, "all_passed is not true")
    kinds = doc.get("kinds", {})
    _require(len(kinds) == CERTIFY_KINDS, f"{len(kinds)} kinds")
    for name, entry in kinds.items():
        failures = [entry.get(k) for k in
                    ("unitary_failures", "hermitian_failures", "structure_failures")]
        _require(failures == [0, 0, 0], f"{name} failures {failures}")
    return CERTIFY_KINDS * CERTIFY_FUNCTIONS


def _key(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _run_op(algorithm: str, gamma: str) -> Op:
    return Op(("run", "--algorithm", algorithm, "--gamma", gamma),
              partial(check_run, algorithm=algorithm, gamma=gamma))


def wide_verified_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    return [_run_op("ccnot-bva", _key(rng, 20)), _run_op("pi", _key(rng, 10))]


def sweep_ops(seed: int) -> list[Op]:
    return [Op(("sweep", "--n", str(SWEEP_N)), check_sweep)]


def certify_ops(seed: int) -> list[Op]:
    draw = random.Random(seed).randrange(1 << 31)
    return [Op(("certify", "--n", "4", "--seed", str(draw)), check_certify)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-verified",
            size="ops per pass: run ccnot-bva n=20 (22 qubits, 64 MiB "
                 "complex128 state) then run pi n=10 (21 qubits, 32 MiB); "
                 "keys drawn from the seed; default stage checks on",
            make_ops=wide_verified_ops,
            warmup=(("run", "--algorithm", "ccnot-bva", "--gamma", "101"),
                    ("run", "--algorithm", "pi", "--gamma", "10")),
            cross_seed=True,
        ),
        Workload(
            name="sweep-n8",
            size="ops per pass: sweep --n 8 (256 keys x 4 pipelines, states of "
                 "9 to 17 qubits, at most 2 MiB); the document does not "
                 "depend on the seed",
            make_ops=sweep_ops,
            warmup=(("sweep", "--n", "2"),),
        ),
        Workload(
            name="certify-n4",
            size="ops per pass: certify --n 4 --seed S (100 seeded random "
                 "functions x 5 kinds, dense matrices of 32x32 to 512x512)",
            make_ops=certify_ops,
            warmup=(("certify", "--n", "2"),),
        ),
    )
}
