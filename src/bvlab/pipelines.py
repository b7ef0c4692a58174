"""End-to-end hidden-key pipelines with stage-by-stage verification.

Four circuits share one recipe: prepare a product basis state, spread it
with a Hadamard layer, consult one or two oracles, undo the layer on the
data registers, and read a data register that has collapsed onto the
hidden key.  Each run returns a RunReport carrying the recovered key, the
exact output distribution, the oracle-call count, and optional per-stage
comparisons against closed-form references.

Register layouts (qubit 0 topmost, most significant):

  bva                 n data + 1 target            1 oracle call
  ccnot-bva           n data + 1 control + 1 target  2 oracle calls
  pi                  n data + n middle + 1 target   1 oracle call
  single-oracle-bva   n data + 1 control + 1 target  1 oracle call

Stage references are rebuilt from the key read off the truth table, or
from the table itself, with parity arithmetic (hadamard_of_key, basis
kets and Kronecker products), never with the gate kernels under test, so
a kernel bug cannot cancel out of the comparison.  The comparator is
phase-sensitive throughout.  Every gate and every closed form here is
real, so states and references are float64 from start to end.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .bitstring import BitString
from .errors import DimensionMismatchError, NotDeterministicError
from .oracles import OracleKind, apply_oracle
from .statevector import (
    StateVector,
    apply_hadamard_layer,
    basis_state,
    certain_outcome,
    hadamard_of_key,
    low_factor_bits,
    marginal,
    measure_certain,  # noqa: F401  not called here; benchmarks/tracing.py swaps it
    split_singular_values,
    state_delta,
    tensor,  # noqa: F401  not called here; benchmarks/tracing.py swaps it
)
from .truthtable import (
    BooleanFunction,
    bv_function,
    classical_bv_solve,
    classical_pi_solve,
    pi_function,
)

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
    "spread_states",
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

    The top read-out consumes the run's final state (pi reads its middle
    register first).  On a state of 2**21 or more amplitudes the table is
    read into the state's own buffer, which then shrinks to it, so a run
    peaks at one state plus its tiles, not a state plus a table; either
    way top_distribution owns its 2**n float64s and pins no state.
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
    return {
        str(BitString.from_int(width, int(v))): round(float(probs[v]), 12)
        for v in np.flatnonzero(probs >= TABLE_EPS)
    }


def _kets(signs: str) -> list[np.ndarray]:
    """One single-qubit ket per sign: "+" for |+>, "-" for |->."""
    r = 2.0**-0.5
    return [np.array([r, r if s == "+" else -r]) for s in signs]


# Closed forms.  Each maps (record, table, expected key) to the factors
# state_delta takes: a high and a low factor whose Kronecker product is
# the whole state at one stage, or the low one alone.  A product state's
# low factor fits one state_delta chunk (low_factor_bits), so each chunk
# is one product of a low slice or of whole low periods.


def _product(
    p: _Pipeline,
    key: BitString,
    data: Callable[[int, BitString], StateVector],
    tail: list[np.ndarray],
) -> list[StateVector]:
    """data(m, key repeated per register), then the tail kets, as high and low.

    data is basis_state or hadamard_of_key.  The low factor holds the low
    data bits, folded with the tail kets as np.kron folds them; the high
    factor holds the other data bits, if any.  The low bits are an even
    count unless they are all of the data bits, so hadamard_of_key's scale
    on them, 2**(-b/2), is a power of two, and high (x) low has the bits
    of the whole data block folded with the kets.  With two registers the
    data block is data(2n, key key), whose scale is the exact 2**-n;
    H(key) (x) H(key) squares a rounded 2**(-n/2), so at odd n the two
    differ by up to 1 ulp.
    """
    label = list(key) * p.registers
    m = len(label)
    low = min(m, low_factor_bits(len(tail)))
    block = data(low, BitString.of(label[m - low :])).amps
    for ket in tail:
        block = np.multiply.outer(block, ket).reshape(-1)
    factors = [StateVector(low + len(tail), block)]
    if low < m:
        factors.insert(0, data(m - low, BitString.of(label[: m - low])))
    return factors


def _initial(p: _Pipeline, f: BooleanFunction, key: BitString) -> list[StateVector]:
    """The start label: a zero data block, then one basis ket per spread qubit."""
    tail = [np.eye(2)[int(s == "-")] for s in p.spread]
    return _product(p, BitString.zeros(f.arity), basis_state, tail)


def _spread(p: _Pipeline, f: BooleanFunction, key: BitString) -> list[StateVector]:
    return _product(p, BitString.zeros(f.arity), hadamard_of_key, _kets(p.spread))


def _key_phase(p: _Pipeline, f: BooleanFunction, key: BitString) -> list[StateVector]:
    return _product(p, key, hadamard_of_key, _kets(p.tail))


def _key_basis(p: _Pipeline, f: BooleanFunction, key: BitString) -> list[StateVector]:
    return _product(p, key, basis_state, _kets(p.tail))


@dataclass(frozen=True)
class _SignedPair:
    """The data+control block after the flip oracle, filled from the table.

    For each x the control doublet is (|x 0> + (-1)**f(x) |x 1>) / sqrt(2):
    with scale = 2**(-qubits/2), amplitude 2x is the scale and 2x + 1 is
    scale - 2 scale f(x), exactly (1 - 2 f(x)) scale.  No amplitude is
    stored; ``state_delta`` has ``fill`` write each chunk's run of them
    into a tile buffer it holds.
    """

    qubits: int
    table: np.ndarray

    def fill(self, first: int, out: np.ndarray) -> np.ndarray:
        """Amplitudes first .. first + out.size - 1, written into out."""
        scale = 2.0 ** (-self.qubits / 2.0)
        out[first & 1 :: 2] = scale
        signed = out[1 - (first & 1) :: 2]
        x = first >> 1
        np.copyto(signed, self.table[x : x + signed.size])
        signed *= -2.0 * scale
        signed += scale
        return out


def _signed_pair(p: _Pipeline, f: BooleanFunction, key: BitString) -> list:
    """The data+control block after the flip oracle, then the target.

    The block is entangled, so it is no Kronecker product of small
    factors; it is a ``_SignedPair`` over the truth table, which
    ``state_delta`` fills one chunk at a time, so no 2**(n+1) block is
    allocated.
    """
    return [_SignedPair(f.arity + 1, f.table), StateVector(1, _kets("-")[0])]


def _pairwise_sign(
    p: _Pipeline, f: BooleanFunction, key: BitString
) -> list[StateVector]:
    """The two-register block, sign (-1)**(f(x) xor f(y)), then the target.

    Uses the exact identity (-1)**(a xor b) == (-1)**a * (-1)**b for bits,
    so the block is S (x) S 2**-n with S = 1 - 2f, and the reference
    depends on the table alone.  The high factor is S over x; the low one
    is S 2**-n over y, folded with the target.
    """
    n = f.arity
    signs = 1.0 - 2.0 * f.table.astype(np.float64)
    low = np.multiply.outer(signs / float(1 << n), *_kets("-")).reshape(-1)
    return [StateVector(n, signs), StateVector(n + 1, low)]


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
    "bva": _Pipeline(1, classical_bv_solve, "-", "-", (
        (OracleKind.STANDARD_BV, "after-oracle", (("exact", _key_phase),)),
    )),
    "ccnot-bva": _Pipeline(1, classical_bv_solve, "+-", "+-", (
        (OracleKind.TOFFOLI, "after-flip-oracle", (("exact", _signed_pair),)),
        (OracleKind.PHASE, "after-phase-oracle", (("exact", _key_phase),)),
    )),
    "pi": _Pipeline(2, classical_pi_solve, "-", "-", (
        (OracleKind.TWO_REGISTER, "after-oracle", (
            ("exact (pairwise-sign sum)", _pairwise_sign),
            ("exact (factorized product)", _key_phase),
        )),
    )),
    "single-oracle-bva": _Pipeline(1, classical_bv_solve, "+-", "--", (
        (OracleKind.SINGLE_XOR, "after-oracle", (("exact", _key_phase),)),
    )),
}


def _circuit(
    p: _Pipeline, f: BooleanFunction, spread_state: Optional[StateVector] = None
) -> Iterator[tuple[str, tuple, StateVector]]:
    """Yield (stage, forms, live state) after each layer of the circuit.

    Given spread_state, the first Hadamard layer's output is copied from
    it instead of computed; the stages and their checks are the same.
    """
    n = f.arity
    start = p.start(n)
    state = basis_state(len(start), start)
    yield "initial", (("exact", _initial),), state
    if spread_state is None:
        apply_hadamard_layer(state, range(state.qubits))
    else:
        np.copyto(state.amps, spread_state.amps)
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


def _run(
    algorithm: str,
    f: BooleanFunction,
    record_stages: bool,
    keep_states: bool,
    tol: float,
    spread_state: Optional[StateVector],
) -> RunReport:
    """Apply one record's circuit, check each stage if asked, and read out."""
    p = _PIPELINES[algorithm]
    n = f.arity
    width = len(p.start(n))
    if spread_state is not None and spread_state.qubits != width:
        raise DimensionMismatchError(
            f"spread_state has {spread_state.qubits} qubits, "
            f"{algorithm} at n={n} runs on {width}"
        )
    # An uncounted function over the same table: reading the key is no query.
    key = p.read_key(BooleanFunction._trusted(f.table)) if record_stages else None
    checks: list[StageCheck] = []
    states: dict[str, StateVector] = {}
    for stage, forms, state in _circuit(p, f, spread_state):
        if keep_states:
            states[stage] = state.copy()
        if not record_stages:
            continue
        for comparator, form in forms:
            deviation = state_delta(state, *form(p, f, key))
            checks.append(StageCheck(stage, comparator, deviation, deviation <= tol))
    middle = marginal(state, range(n, 2 * n)) if p.registers == 2 else None
    top = marginal(state, range(n), consume=True)
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
    spread_state: Optional[StateVector] = None,
) -> RunReport:
    """One-call key recovery with the flip oracle on n+1 qubits.

    Prepare |0...0 1>, spread with a full Hadamard layer, apply the flip
    oracle once, undo the layer on the data register, read the key.
    Given spread_state (see ``spread_states``), the run copies the state
    after the first layer from it instead of applying the layer; every
    run_* takes it, and one of the wrong width raises
    DimensionMismatchError before anything is allocated.
    """
    return _run("bva", f, record_stages, keep_states, tol, spread_state)


def run_ccnot_bva(
    f: BooleanFunction,
    *,
    record_stages: bool = True,
    keep_states: bool = False,
    tol: float = 1e-9,
    spread_state: Optional[StateVector] = None,
) -> RunReport:
    """Two-call key recovery built from the doubly-controlled flip oracle.

    The flip oracle entangles data with the control qubit; the phase oracle
    then turns the entanglement back into a clean sign pattern on the data
    register.  Both consultations count.  spread_state is as in run_bva.
    """
    return _run("ccnot-bva", f, record_stages, keep_states, tol, spread_state)


def run_pi(
    f: BooleanFunction,
    *,
    record_stages: bool = True,
    keep_states: bool = False,
    tol: float = 1e-9,
    spread_state: Optional[StateVector] = None,
) -> RunReport:
    """One-call key recovery for shifted-parity promises on 2n+1 qubits.

    The two-register oracle marks each pair (x, y) with the sign of
    f(x) xor f(y); for a shifted-parity table that factorizes, leaving the
    key readable on the data AND the middle register.  The final Hadamard
    layer therefore covers both registers, so either read-out yields the
    key; the report carries the middle marginal alongside the top one.
    spread_state is as in run_bva.
    """
    return _run("pi", f, record_stages, keep_states, tol, spread_state)


def run_single_oracle_bva(
    f: BooleanFunction,
    *,
    record_stages: bool = True,
    keep_states: bool = False,
    tol: float = 1e-9,
    spread_state: Optional[StateVector] = None,
) -> RunReport:
    """One-call key recovery with the control-xor flip oracle on n+2 qubits.

    The oracle xors f(x) xor control into the target, so with the target
    held in the minus state both the data register and the control pick up
    sign patterns; the control collapses to minus while the data register
    carries the key.  spread_state is as in run_bva.
    """
    return _run(
        "single-oracle-bva", f, record_stages, keep_states, tol, spread_state
    )


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
    measured = float(state.amps[slot] * np.sqrt(2.0))
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


def spread_states(n: int) -> dict[str, StateVector]:
    """Each pipeline's state after its first Hadamard layer, at key width n.

    The key enters only through the oracles, so this state is the same for
    every key, and pipelines with one register layout (registers, spread)
    share one array: ccnot-bva's is single-oracle-bva's.  ``run_all`` takes
    the dict to start every run from a copy.  Each array is read-only, so
    runs on any thread can share it.
    """
    zero = bv_function(BitString.zeros(n))
    layouts: dict[tuple[int, str], StateVector] = {}
    states = {}
    for algorithm, p in _PIPELINES.items():
        layout = (p.registers, p.spread)
        if layout not in layouts:
            layouts[layout] = _state_after(algorithm, zero, "after-h-layer")
            layouts[layout].amps.flags.writeable = False
        states[algorithm] = layouts[layout]
    return states


def run_all(
    gamma: BitString,
    *,
    record_stages: bool = True,
    tol: float = 1e-9,
    spread_states: Optional[dict[str, StateVector]] = None,
) -> list[RunReport]:
    """Run all four pipelines on the promises planted for one key.

    spread_states maps an algorithm to the spread_state its run starts
    from, as ``spread_states(len(gamma))`` builds them; an algorithm it
    does not name applies its first layer.
    """
    shared = spread_states or {}
    return [
        pipeline(
            make(gamma),
            record_stages=record_stages,
            tol=tol,
            spread_state=shared.get(name),
        )
        for name, (pipeline, make) in ALGORITHMS.items()
    ]
