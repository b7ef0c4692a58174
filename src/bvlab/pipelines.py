"""End-to-end hidden-key pipelines with stage-by-stage verification.

Four circuits share one recipe: prepare a product basis state, spread it
with a Hadamard layer, consult one or two oracles, undo the layer on the
data registers, and read a data register that has collapsed onto the
hidden key.  Each run returns a RunReport carrying the recovered key, the
exact output distribution, the oracle-call count, and optional per-stage
comparisons against closed-form references.

The recipe is written once.  ``_PIPELINES`` holds one record per
algorithm: its count of n-qubit data registers, its key reader, the
single-qubit kets that follow the data block after the first Hadamard
layer and after the last oracle, and its oracle steps with the closed
forms checked after each.  ``_circuit`` applies a record's layers and
``_run`` checks each stage, then reads out.  Each reference is a left fold
of ``tensor`` over the factors its closed form lists.

Register layouts (qubit 0 topmost, most significant):

  bva                 n data + 1 target            1 oracle call
  ccnot-bva           n data + 1 control + 1 target  2 oracle calls
  pi                  n data + n middle + 1 target   1 oracle call
  single-oracle-bva   n data + 1 control + 1 target  1 oracle call

Stage references are rebuilt from the truth table with parity arithmetic
(hadamard_of_key plus Kronecker products), never with the gate kernels
under test, so a kernel bug cannot cancel out of the comparison.  The
comparator is phase-sensitive throughout; the up-to-phase variant is used
nowhere in this module.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .bitstring import BitString, basis_e, basis_k
from .errors import NotDeterministicError
from .oracles import OracleKind, apply_oracle
from .statevector import (
    StateVector,
    apply_hadamard_layer,
    basis_state,
    certain_outcome,
    hadamard_of_key,
    marginal,
    measure_certain,  # noqa: F401  not called here; benchmarks/tracing.py swaps it
    split_singular_values,
    state_delta,
    tensor,
)
from .truthtable import BooleanFunction, bv_function, pi_function

__all__ = [
    "StageCheck",
    "RunReport",
    "PhaseAnalysis",
    "run_bva",
    "run_ccnot_bva",
    "run_pi",
    "run_single_oracle_bva",
    "analyze_bva_on_pi",
    "run_all",
    "ccnot_entanglement_spectrum",
    "distribution_table",
    "ALGORITHMS",
]

# Probabilities below this are numerical dust and are dropped from tables.
TABLE_EPS = 1e-12


@dataclass(frozen=True)
class StageCheck:
    """One intermediate-state comparison: where, against what, how far off."""

    stage: str
    comparator: str
    deviation: float
    ok: bool


@dataclass
class RunReport:
    """Everything one pipeline run produced.

    recovered is None exactly when the final read-out was not deterministic
    at the run's tolerance; the reason then sits in failure.  states is
    populated only when the run was asked to keep full state copies.
    """

    algorithm: str
    n: int
    qubits: int
    oracle_calls: int
    recovered: Optional[BitString]
    top_distribution: np.ndarray
    middle_distribution: Optional[np.ndarray] = None
    stage_checks: tuple[StageCheck, ...] = ()
    failure: Optional[str] = None
    states: dict[str, StateVector] = field(default_factory=dict)

    def stages_ok(self) -> bool:
        return all(c.ok for c in self.stage_checks)

    def to_dict(self) -> dict:
        """JSON-shaped document; probabilities at 12 decimals."""
        doc: dict = {
            "algorithm": self.algorithm,
            "n": self.n,
            "qubits": self.qubits,
            "oracle_calls": self.oracle_calls,
            "recovered": None if self.recovered is None else str(self.recovered),
            "top_distribution": distribution_table(self.top_distribution, self.n),
        }
        if self.middle_distribution is not None:
            doc["middle_distribution"] = distribution_table(
                self.middle_distribution, self.n
            )
        if self.stage_checks:
            doc["stage_checks"] = [asdict(c) for c in self.stage_checks]
        if self.failure is not None:
            doc["failure"] = self.failure
        return doc


def distribution_table(probs: np.ndarray, width: int) -> dict[str, float]:
    """Sparse outcome table keyed by bit labels, 12-decimal probabilities."""
    out: dict[str, float] = {}
    for v, p in enumerate(probs):
        if p >= TABLE_EPS:
            out[str(BitString.from_int(width, v))] = round(float(p), 12)
    return out


def _kets(signs: str) -> list[StateVector]:
    """One single-qubit ket per sign: "+" for |+>, "-" for |->."""
    r = 2.0**-0.5
    return [
        StateVector(1, np.array([r, r if s == "+" else -r], dtype=np.complex128))
        for s in signs
    ]


def _weight1_read_key(f: BooleanFunction) -> BitString:
    """Key bit j read off the weight-1 probe; raw table reads, not queries."""
    n = f.arity
    return BitString.of(int(f.table[basis_e(n, j).to_int()]) for j in range(n))


def _complement_read_key(f: BooleanFunction) -> BitString:
    """Key bit j read off the all-ones-but-j probe; raw table reads."""
    n = f.arity
    return BitString.of(int(f.table[basis_k(n, j).to_int()]) for j in range(n))


# Closed forms.  Each maps (record, table, expected key) to the factors
# whose left fold by tensor is the whole state at one stage.


def _initial(p: _Pipeline, f: BooleanFunction, key: BitString) -> list[StateVector]:
    start = p.start(f.arity)
    return [basis_state(len(start), start)]


def _spread(p: _Pipeline, f: BooleanFunction, key: BitString) -> list[StateVector]:
    m = p.registers * f.arity
    uniform = np.full(1 << m, 2.0 ** (-m / 2.0), dtype=np.complex128)
    return [StateVector(m, uniform), *_kets(p.spread)]


def _key_phase(p: _Pipeline, f: BooleanFunction, key: BitString) -> list[StateVector]:
    return [hadamard_of_key(f.arity, key)] * p.registers + _kets(p.tail)


def _key_basis(p: _Pipeline, f: BooleanFunction, key: BitString) -> list[StateVector]:
    return [basis_state(f.arity, key)] * p.registers + _kets(p.tail)


def _signed_pair(p: _Pipeline, f: BooleanFunction, key: BitString) -> list[StateVector]:
    """The data+control block after the flip oracle, then the target.

    For each x the control doublet is (|x 0> + (-1)**f(x) |x 1>) / sqrt(2),
    built directly from the truth table.
    """
    n = f.arity
    block = np.empty((1 << n, 2), dtype=np.complex128)
    block[:, 0] = 1.0
    block[:, 1] = 1.0 - 2.0 * f.table.astype(np.float64)
    pairs = StateVector(n + 1, block.reshape(-1) * 2.0 ** (-(n + 1) / 2.0))
    return [pairs, *_kets("-")]


def _pairwise_sign(
    p: _Pipeline, f: BooleanFunction, key: BitString
) -> list[StateVector]:
    """The two-register block, sign (-1)**(f(x) xor f(y)), then the target.

    Uses the exact identity (-1)**(a xor b) == (-1)**a * (-1)**b for bits,
    so the reference depends on the table alone.
    """
    n = f.arity
    signs = 1.0 - 2.0 * f.table.astype(np.float64)
    block = np.multiply.outer(signs, signs).reshape(-1) / float(1 << n)
    return [StateVector(2 * n, block.astype(np.complex128)), *_kets("-")]


@dataclass(frozen=True)
class _Pipeline:
    """One circuit of the recipe.

    registers  count of n-qubit data registers; the last Hadamard layer
               covers exactly these
    read_key   reads the expected key off the truth table for references
    spread     the kets ("+" or "-") after the data block once the first
               Hadamard layer has run; a qubit starts in 0 for "+", 1 for "-"
    tail       the kets after the data block once the last oracle has run
    steps      the oracle consultations in order: (kind, stage, forms),
               the forms being (comparator, closed form) pairs checked there
    """

    registers: int
    read_key: Callable[[BooleanFunction], BitString]
    spread: str
    tail: str
    steps: tuple[tuple[OracleKind, str, tuple[tuple[str, Callable], ...]], ...]

    def start(self, n: int) -> BitString:
        data = [0] * (self.registers * n)
        return BitString.of(data + [int(s == "-") for s in self.spread])


_PIPELINES = {
    "bva": _Pipeline(1, _weight1_read_key, "-", "-", (
        (OracleKind.STANDARD_BV, "after-oracle", (("exact", _key_phase),)),
    )),
    "ccnot-bva": _Pipeline(1, _weight1_read_key, "+-", "+-", (
        (OracleKind.TOFFOLI, "after-flip-oracle", (("exact", _signed_pair),)),
        (OracleKind.PHASE, "after-phase-oracle", (("exact", _key_phase),)),
    )),
    "pi": _Pipeline(2, _complement_read_key, "-", "-", (
        (OracleKind.TWO_REGISTER, "after-oracle", (
            ("exact (pairwise-sign sum)", _pairwise_sign),
            ("exact (factorized product)", _key_phase),
        )),
    )),
    "single-oracle-bva": _Pipeline(1, _weight1_read_key, "+-", "--", (
        (OracleKind.SINGLE_XOR, "after-oracle", (("exact", _key_phase),)),
    )),
}


def _circuit(
    p: _Pipeline, f: BooleanFunction
) -> Iterator[tuple[str, tuple, StateVector]]:
    """Yield (stage, forms, live state) after each layer of the circuit."""
    n = f.arity
    start = p.start(n)
    state = basis_state(len(start), start)
    yield "initial", (("exact", _initial),), state
    apply_hadamard_layer(state, range(state.qubits))
    yield "after-h-layer", (("exact", _spread),), state
    for kind, stage, forms in p.steps:
        apply_oracle(kind, state, f)
        yield stage, forms, state
    apply_hadamard_layer(state, range(p.registers * n))
    yield "final", (("exact", _key_basis),), state


def _state_after(algorithm: str, f: BooleanFunction, stop: str) -> StateVector:
    """Run the circuit up to and including the named stage, unchecked."""
    layers = _circuit(_PIPELINES[algorithm], f)
    return next(state for stage, _, state in layers if stage == stop)


def _fold(factors: list[StateVector]) -> StateVector:
    """Left fold of tensor over the factors, in their order."""
    whole = factors[0]
    for factor in factors[1:]:
        whole = tensor(whole, factor)
    return whole


def _run(
    algorithm: str,
    f: BooleanFunction,
    record_stages: bool,
    keep_states: bool,
    tol: float,
) -> RunReport:
    """Apply one record's circuit, check each stage if asked, and read out."""
    p = _PIPELINES[algorithm]
    n = f.arity
    key = p.read_key(f) if record_stages else None
    checks: list[StageCheck] = []
    states: dict[str, StateVector] = {}
    for stage, forms, state in _circuit(p, f):
        if not record_stages:
            continue
        if keep_states:
            states[stage] = state.copy()
        for comparator, form in forms:
            deviation = state_delta(state, _fold(form(p, f, key)))
            checks.append(StageCheck(stage, comparator, deviation, deviation <= tol))
    top = marginal(state, range(n))
    middle = marginal(state, range(n, 2 * n)) if p.registers == 2 else None
    try:
        recovered: Optional[BitString] = certain_outcome(top, n, tol)
        failure = None
    except NotDeterministicError as err:
        recovered, failure = None, str(err)
    return RunReport(
        algorithm=algorithm,
        n=n,
        qubits=state.qubits,
        oracle_calls=len(p.steps),
        recovered=recovered,
        top_distribution=top,
        middle_distribution=middle,
        stage_checks=tuple(checks),
        failure=failure,
        states=states,
    )


def run_bva(
    f: BooleanFunction,
    *,
    record_stages: bool = True,
    keep_states: bool = False,
    tol: float = 1e-9,
) -> RunReport:
    """One-call key recovery with the flip oracle on n+1 qubits.

    Prepare |0...0 1>, spread with a full Hadamard layer, apply the flip
    oracle once, undo the layer on the data register, read the key.
    """
    return _run("bva", f, record_stages, keep_states, tol)


def run_ccnot_bva(
    f: BooleanFunction,
    *,
    record_stages: bool = True,
    keep_states: bool = False,
    tol: float = 1e-9,
) -> RunReport:
    """Two-call key recovery built from the doubly-controlled flip oracle.

    The flip oracle entangles data with the control qubit; the phase oracle
    then turns the entanglement back into a clean sign pattern on the data
    register.  Both consultations count.
    """
    return _run("ccnot-bva", f, record_stages, keep_states, tol)


def run_pi(
    f: BooleanFunction,
    *,
    record_stages: bool = True,
    keep_states: bool = False,
    tol: float = 1e-9,
) -> RunReport:
    """One-call key recovery for shifted-parity promises on 2n+1 qubits.

    The two-register oracle marks each pair (x, y) with the sign of
    f(x) xor f(y); for a shifted-parity table that factorizes, leaving the
    key readable on the data AND the middle register.  The final Hadamard
    layer therefore covers both registers, so either read-out yields the
    key; the report carries the middle marginal alongside the top one.
    """
    return _run("pi", f, record_stages, keep_states, tol)


def run_single_oracle_bva(
    f: BooleanFunction,
    *,
    record_stages: bool = True,
    keep_states: bool = False,
    tol: float = 1e-9,
) -> RunReport:
    """One-call key recovery with the control-xor flip oracle on n+2 qubits.

    The oracle xors f(x) xor control into the target, so with the target
    held in the minus state both the data register and the control pick up
    sign patterns; the control collapses to minus while the data register
    carries the key.
    """
    return _run("single-oracle-bva", f, record_stages, keep_states, tol)


@dataclass(frozen=True)
class PhaseAnalysis:
    """What the plain one-call circuit does on a shifted-parity table.

    The run acquires a global factor (-1)**dot(key, key) relative to the
    plain-parity case.  A global factor cannot move outcome probabilities,
    so the record stores both the simulated distribution and the factor
    (measured at the planted key's slot, and predicted from the key) and
    leaves any conclusion to the reader.
    """

    gamma: BitString
    top_distribution: np.ndarray
    point_mass: bool
    peak: BitString
    measured_phase_factor: float
    predicted_phase_factor: float

    def to_dict(self) -> dict:
        return {
            "gamma": str(self.gamma),
            "top_distribution": distribution_table(
                self.top_distribution, len(self.gamma)
            ),
            "point_mass": self.point_mass,
            "peak": str(self.peak),
            "measured_phase_factor": round(self.measured_phase_factor, 12),
            "predicted_phase_factor": self.predicted_phase_factor,
        }


def analyze_bva_on_pi(gamma: BitString, tol: float = 1e-9) -> PhaseAnalysis:
    """Run the plain one-call circuit on the shifted-parity table for gamma.

    Records what the simulation shows, without asserting whether the run
    "solves" anything: the distribution, whether it is a point mass, and
    the sign sitting on the final amplitude at (gamma, 0) relative to the
    plain-parity outcome.
    """
    n = len(gamma)
    state = _state_after("bva", pi_function(gamma), "final")
    top = marginal(state, range(n))
    peak = int(np.argmax(top))
    # Plain-parity amplitude at (gamma, 0) would be +1/sqrt(2); the ratio
    # read off that slot is the acquired factor.
    slot = (gamma.to_int() << 1) | 0
    measured = float(np.real(state.amps[slot] * np.sqrt(2.0)))
    predicted = -1.0 if gamma.dot(gamma) else 1.0
    return PhaseAnalysis(
        gamma=gamma,
        top_distribution=top,
        point_mass=bool(top[peak] >= 1.0 - tol),
        peak=BitString.from_int(n, peak),
        measured_phase_factor=measured,
        predicted_phase_factor=predicted,
    )


def ccnot_entanglement_spectrum(f: BooleanFunction) -> np.ndarray:
    """Singular values splitting data from control after the flip oracle.

    Runs the first half of the two-call pipeline, strips the target qubit
    (exactly in the minus state, so its zero slice times sqrt(2) is the
    data+control block), and splits that block between the data register
    and the control qubit.  Two values above zero witness entanglement;
    a zero key leaves a single value of 1.
    """
    n = f.arity
    state = _state_after("ccnot-bva", f, "after-flip-oracle")
    block = state.amps.reshape(-1, 2)[:, 0] * np.sqrt(2.0)
    return split_singular_values(StateVector(n + 1, block), n)


ALGORITHMS = {
    "bva": (run_bva, bv_function),
    "ccnot-bva": (run_ccnot_bva, bv_function),
    "pi": (run_pi, pi_function),
    "single-oracle-bva": (run_single_oracle_bva, bv_function),
}


def run_all(
    gamma: BitString,
    *,
    record_stages: bool = True,
    keep_states: bool = False,
    tol: float = 1e-9,
) -> list[RunReport]:
    """Run all four pipelines on the promises planted for one key."""
    return [
        pipeline(
            make(gamma),
            record_stages=record_stages,
            keep_states=keep_states,
            tol=tol,
        )
        for pipeline, make in ALGORITHMS.values()
    ]
