"""Pipelines vs the dense reference: every stage, every key, every report."""

import ast
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

import refsim
from bvlab import oracles, pipelines, statevector
from bvlab.bitstring import BitString, all_bitstrings
from bvlab.errors import DimensionMismatchError
from bvlab.pipelines import (
    ALGORITHMS,
    analyze_bva_on_pi,
    ccnot_entanglement_spectrum,
    distribution_table,
    run_all,
    run_bva,
    run_ccnot_bva,
    run_pi,
    run_single_oracle_bva,
)
from bvlab.statevector import StateVector, basis_state, hadamard_of_key, state_delta
from bvlab.truthtable import BooleanFunction, bv_function, pi_function

EXPECTED_CALLS = {"bva": 1, "ccnot-bva": 2, "pi": 1, "single-oracle-bva": 1}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_stage_matches_dense_reference(name):
    pipeline, make = ALGORITHMS[name]
    for n in (1, 2, 3):
        for gamma in all_bitstrings(n):
            f = make(gamma)
            report = pipeline(f, keep_states=True)
            ref_stages = dict(refsim.STAGES[name](f.table))
            assert set(report.states) == set(ref_stages)
            for stage, state in report.states.items():
                delta = np.max(np.abs(state.amps - ref_stages[stage]))
                assert delta <= 1e-9, (name, str(gamma), stage, delta)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_recovery_calls_and_stage_checks(name):
    pipeline, make = ALGORITHMS[name]
    for n in (1, 2, 3):
        for gamma in all_bitstrings(n):
            report = pipeline(make(gamma))
            assert report.recovered == gamma
            assert report.failure is None
            assert report.oracle_calls == EXPECTED_CALLS[name]
            assert report.stages_ok()
            assert abs(report.top_distribution[gamma.to_int()] - 1.0) <= 1e-9


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_stages_and_references_are_float64(name):
    pipeline, make = ALGORITHMS[name]
    f = make(BitString.parse("101"))
    report = pipeline(f, keep_states=True)
    assert {st.amps.dtype for st in report.states.values()} == {np.dtype(np.float64)}
    p = pipelines._PIPELINES[name]
    key = p.read_key(f)
    # References are never folded whole; every factor they fold is float64,
    # the filled signed pair as its chunks are filled.
    for stage, forms, _ in pipelines._circuit(p, f):
        for _, form in forms:
            for factor in form(p, f, key):
                assert _amps(factor).dtype == np.float64, stage


def _amps(factor):
    """A factor's amplitudes; a filled factor is filled whole."""
    if isinstance(factor, StateVector):
        return factor.amps
    return factor.fill(0, np.empty(1 << factor.qubits))


def _kron_fold(*parts):
    amps = np.ones(1)
    for part in parts:
        amps = np.kron(amps, part)
    return amps


def _forms(p):
    """Every closed form one pipeline record checks."""
    forms = [pipelines._initial, pipelines._spread, pipelines._key_basis]
    return forms + [form for _, _, checks in p.steps for _, form in checks]


def _whole_forms(p, f, key):
    """Each closed form built whole, as one array, from its whole data block."""
    n, r = f.arity, 2.0**-0.5
    kets = {"+": np.array([r, r]), "-": np.array([r, -r])}
    basis = {"+": np.array([1.0, 0.0]), "-": np.array([0.0, 1.0])}
    m = p.registers * n
    signs = 1.0 - 2.0 * f.table.astype(np.float64)
    pair = np.empty((1 << n, 2))
    pair[:, 0], pair[:, 1] = 1.0, signs
    return {
        pipelines._initial: _kron_fold(
            basis_state(m, BitString.zeros(m)).amps, *(basis[c] for c in p.spread)
        ),
        pipelines._spread: _kron_fold(
            np.full(1 << m, 2.0 ** (-m / 2.0)), *(kets[c] for c in p.spread)
        ),
        pipelines._key_phase: _kron_fold(
            *[hadamard_of_key(n, key).amps] * p.registers, *(kets[c] for c in p.tail)
        ),
        pipelines._key_basis: _kron_fold(
            *[basis_state(n, key).amps] * p.registers, *(kets[c] for c in p.tail)
        ),
        pipelines._signed_pair: _kron_fold(
            pair.reshape(-1) * 2.0 ** (-(n + 1) / 2.0), kets["-"]
        ),
        pipelines._pairwise_sign: _kron_fold(
            np.multiply.outer(signs, signs).reshape(-1) / float(1 << n), kets["-"]
        ),
    }


@pytest.mark.parametrize("tile", [1 << 4, 1 << 5, 1 << 7, statevector._TILE])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_factored_forms_fold_to_the_whole_forms(name, tile, monkeypatch):
    # The fold of a form's high and low factors has the bits of the form
    # built whole, for any split.  At odd n pi's key phase is the exact
    # 2**-n, where the whole form squares a rounded 2**(-n/2): 1 ulp at most.
    monkeypatch.setattr(statevector, "_TILE", tile)
    make = ALGORITHMS[name][1]
    p = pipelines._PIPELINES[name]
    rng = np.random.default_rng(tile)
    for n in range(1, 9):
        f = make(BitString.of(rng.integers(0, 2, n)))
        key = p.read_key(f)
        whole = _whole_forms(p, f, key)
        for form in _forms(p):
            factors = form(p, f, key)
            assert len(factors) <= 2
            folded = _kron_fold(*(_amps(x) for x in factors))
            if name == "pi" and n % 2 and form is pipelines._key_phase:
                gap = np.abs(folded - whole[form])
                assert np.all(gap <= np.spacing(np.abs(whole[form]))), n
            else:
                assert folded.tobytes() == whole[form].tobytes(), (form, n)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_product_forms_are_two_factors_of_at_most_a_tile(name):
    # At n = 20, or n = 14 for pi (a 4 GiB state), a product form lists at
    # most 2 * _TILE amplitudes, where the whole form lists the state's
    # 2**22 or more.
    make = ALGORITHMS[name][1]
    n = 14 if name == "pi" else 20
    f = make(BitString.of(np.random.default_rng(n).integers(0, 2, n)))
    p = pipelines._PIPELINES[name]
    key = p.read_key(f)
    for form in _forms(p):
        if form is pipelines._signed_pair:
            continue  # entangled: filled per chunk, checked below
        factors = form(p, f, key)
        assert len(factors) == 2, form
        assert sum(x.amps.size for x in factors) <= 2 * statevector._TILE, form


@pytest.mark.parametrize("tile", [1 << 4, 1 << 5, 1 << 7, statevector._TILE])
def test_filled_signed_pair_compares_as_its_block(tile, monkeypatch):
    # Against the filled signed pair, state_delta gives the bits it gives
    # against the block filled whole: on dusty states, with and without a
    # NaN, whether a chunk holds a run of the pair (the target ket after
    # it) or one amplitude of it (a 7-qubit factor after it).
    monkeypatch.setattr(statevector, "_TILE", tile)
    p = pipelines._PIPELINES["ccnot-bva"]
    rng = np.random.default_rng(tile)
    for n in range(1, 9):
        f = BooleanFunction(rng.integers(0, 2, 1 << n))
        pair, target = pipelines._signed_pair(p, f, None)
        block = StateVector(n + 1, _amps(pair))
        low = StateVector(7, rng.normal(size=1 << 7))
        for tail in (target, low):
            fold = np.kron(block.amps, tail.amps)
            dust = rng.normal(size=fold.size) * 1e-16
            a = StateVector(n + 1 + tail.qubits, fold + dust)
            for spoil in (False, True):
                if spoil:
                    a.amps[rng.integers(fold.size)] = np.nan
                want = state_delta(a, block, tail).hex()
                assert state_delta(a, pair, tail).hex() == want, (n, tail.qubits)
            assert want == "nan"


def test_filled_factor_must_come_first():
    f = bv_function(BitString.parse("11"))
    pair, target = pipelines._signed_pair(pipelines._PIPELINES["ccnot-bva"], f, None)
    a = StateVector(4, np.zeros(16))
    with pytest.raises(TypeError, match="first"):
        state_delta(a, target, pair)


def test_checked_ccnot_run_holds_one_state_and_its_read_out(monkeypatch):
    # At n = 20 a checked run peaks at the 22-qubit state, the top read-out,
    # a table's worth of bytes and a few tiles per worker: the signed pair
    # checked after the flip oracle is filled per chunk, not stored as a
    # block of 2**21 amplitudes (16 MiB) next to the state.
    monkeypatch.setenv("BVLAB_THREADS", "2")
    n = 20
    f = bv_function(BitString.of(np.random.default_rng(2).integers(0, 2, n)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = run_ccnot_bva(f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.stages_ok() and report.recovered is not None
    tiles = 2 * 4 * statevector._TILE * 8
    assert peak <= 8 * (1 << (n + 2)) + 8 * (1 << n) + (1 << n) + tiles, peak


def test_split_size_run_reads_out_into_its_state(two_cpus):
    # At n = 20 bva runs on 21 qubits, the split size, and its top table is
    # half the state.  The read-out consumes the state's buffer, so after a
    # warm call (the pool, the layer's blocks) a checked run peaks at the
    # state plus its tiles and small factors, not the state plus the table.
    n = 20
    f = bv_function(BitString.of(np.random.default_rng(3).integers(0, 2, n)))
    run_bva(f)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = run_bva(f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.stages_ok() and report.recovered is not None
    assert peak <= 8 * (1 << (n + 1)) + (2 << 20), peak


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_consumed_read_out_owns_its_table(name, two_cpus):
    # Each pipeline at the split size: the top table is its own 8 << n
    # bytes, never a view that pins the state, and has the bits of the
    # plain read-out of the same final state.
    pipeline, make = ALGORITHMS[name]
    n = {"bva": 20, "pi": 10}.get(name, 19)
    f = make(BitString.of(np.random.default_rng(4).integers(0, 2, n)))
    report = pipeline(f, record_stages=False)
    top = report.top_distribution
    assert report.qubits == statevector._SPLIT.bit_length() - 1
    assert top.base is None and top.nbytes == 8 << n
    final = pipelines._state_after(name, f, "final")
    assert top.tobytes() == statevector.marginal(final, range(n)).tobytes()
    if name == "pi":
        middle = statevector.marginal(final, range(n, 2 * n))
        assert report.middle_distribution.tobytes() == middle.tobytes()


def test_pipeline_queries_leave_classical_counter_alone():
    f = bv_function(BitString.parse("110")).with_counting()
    run_ccnot_bva(f)
    assert f.query_count == 0  # oracles read the table, never evaluate


def test_recorded_run_reads_the_key_without_checking_the_table_again(monkeypatch):
    # f was checked when it was built; the key's non-counting view shares
    # its table and builds no BooleanFunction, so no table scan repeats.
    f = pi_function(BitString.parse("1011")).with_counting()

    def refuse(*args, **kwargs):
        raise AssertionError("a recorded run built a BooleanFunction")

    monkeypatch.setattr(BooleanFunction, "__init__", refuse)
    report = run_pi(f)
    assert report.recovered == BitString.parse("1011") and report.stages_ok()
    assert f.query_count == 0


def test_middle_register_collapses_to_key():
    for n in (1, 2, 3):
        for gamma in all_bitstrings(n):
            report = run_pi(pi_function(gamma))
            assert report.middle_distribution is not None
            assert abs(report.middle_distribution[gamma.to_int()] - 1.0) <= 1e-9
            ref = refsim.middle_marginal(
                dict(refsim.pi_stages(pi_function(gamma).table))["final"], n
            )
            assert np.max(np.abs(report.middle_distribution - ref)) <= 1e-12


def test_only_pi_reports_a_middle_distribution():
    gamma = BitString.parse("10")
    assert run_bva(bv_function(gamma)).middle_distribution is None
    assert run_ccnot_bva(bv_function(gamma)).middle_distribution is None
    assert run_single_oracle_bva(bv_function(gamma)).middle_distribution is None


def test_entanglement_spectrum_rank():
    for n in (2, 3, 4):
        for gamma in all_bitstrings(n):
            sv = ccnot_entanglement_spectrum(bv_function(gamma))
            assert sv.shape == (2,)
            if gamma.to_int() == 0:
                assert sv[0] == pytest.approx(1.0, abs=1e-12)
                assert sv[1] <= 1e-9
            else:
                # Balanced branch split: both singular values 1/sqrt(2).
                assert np.allclose(sv, np.sqrt(0.5), atol=1e-12)


def test_analysis_of_plain_circuit_on_shifted_parity():
    for n in (1, 2, 3, 4):
        for gamma in all_bitstrings(n):
            a = analyze_bva_on_pi(gamma)
            ref_final = dict(refsim.bva_stages(pi_function(gamma).table))["final"]
            ref_top = refsim.top_marginal(ref_final, n + 1, n)
            assert np.max(np.abs(a.top_distribution - ref_top)) <= 1e-9
            assert a.point_mass and a.peak == gamma
            predicted = -1.0 if gamma.dot(gamma) else 1.0
            assert a.predicted_phase_factor == predicted
            assert a.measured_phase_factor == pytest.approx(predicted, abs=1e-9)


def test_analysis_serialization():
    doc = analyze_bva_on_pi(BitString.parse("1")).to_dict()
    assert doc["gamma"] == "1"
    assert doc["point_mass"] is True
    assert doc["peak"] == "1"
    assert doc["measured_phase_factor"] == -1.0
    assert doc["predicted_phase_factor"] == -1.0


def test_run_all_order_and_keys():
    gamma = BitString.parse("110")
    reports = run_all(gamma)
    assert [r.algorithm for r in reports] == [
        "bva",
        "ccnot-bva",
        "pi",
        "single-oracle-bva",
    ]
    for r in reports:
        assert r.recovered == gamma


def _same_bits(a, b):
    """Two reports agree bit for bit: key, tables, deviations, kept states."""
    assert (a.recovered, a.failure) == (b.recovered, b.failure)
    assert a.top_distribution.tobytes() == b.top_distribution.tobytes()
    assert (a.middle_distribution is None) == (b.middle_distribution is None)
    if a.middle_distribution is not None:
        assert a.middle_distribution.tobytes() == b.middle_distribution.tobytes()

    def checks(report):
        return [(c.stage, c.comparator, float(c.deviation).hex(), c.ok)
                for c in report.stage_checks]

    assert checks(a) == checks(b)
    assert list(a.states) == list(b.states)
    for stage, state in a.states.items():
        assert state.amps.tobytes() == b.states[stage].amps.tobytes(), stage


@pytest.mark.parametrize("n", [1, 4, 8])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_a_shared_spread_state_gives_the_same_bits(name, n):
    pipeline, make = ALGORITHMS[name]
    shared = pipelines.spread_states(n)[name]
    assert not shared.amps.flags.writeable
    rng = np.random.default_rng(n)
    keys = list(all_bitstrings(n)) if n <= 4 else [
        BitString.of(bits) for bits in rng.integers(0, 2, size=(3, n))
    ]
    before = shared.amps.tobytes()
    for gamma in keys:
        f = make(gamma)
        for opts in ({"keep_states": True}, {"record_stages": False}):
            _same_bits(pipeline(f, **opts), pipeline(f, spread_state=shared, **opts))
    assert shared.amps.tobytes() == before


@pytest.mark.parametrize("n, arrays", [(1, 2), (8, 3)])
def test_pipelines_with_one_start_ket_share_one_spread_state(n, arrays):
    # Every record starts from |0...0 1> on its own width, so the first
    # layer depends on the width alone: at n = 1 pi's 3 qubits are
    # ccnot-bva's and single-oracle-bva's.
    states = pipelines.spread_states(n)
    assert states["ccnot-bva"] is states["single-oracle-bva"]
    assert (states["pi"] is states["ccnot-bva"]) == (n == 1)
    assert len({id(state.amps) for state in states.values()}) == arrays
    for state in states.values():
        m = state.qubits
        fresh = basis_state(m, BitString.from_int(m, 1))
        statevector.apply_hadamard_layer(fresh, range(m))
        assert fresh.amps.tobytes() == state.amps.tobytes()


def test_shared_spread_states_hold_under_thread_contention():
    # Eight threads switching every 10 us start their runs from the same
    # read-only arrays; each report matches its serial twin bit for bit.
    n = 5
    keys = list(all_bitstrings(n))
    serial = [run_all(gamma) for gamma in keys]
    shared = pipelines.spread_states(n)
    before = {name: state.amps.tobytes() for name, state in shared.items()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(run_all, gamma, spread_states=shared) for gamma in keys
            ]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for reports, twins in zip(serial, threaded):
        assert [r.algorithm for r in reports] == [r.algorithm for r in twins]
        for a, b in zip(reports, twins):
            _same_bits(a, b)
    assert {name: state.amps.tobytes() for name, state in shared.items()} == before


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_a_spread_state_of_the_wrong_width_is_refused_before_allocating(
    name, monkeypatch
):
    pipeline, make = ALGORITHMS[name]
    f = make(BitString.parse("101"))
    wrong = [pipelines.spread_states(m)[name] for m in (2, 4)]

    def refuse(*args, **kwargs):
        raise AssertionError("the run allocated its state")

    monkeypatch.setattr(pipelines, "basis_state", refuse)
    for state in wrong:
        with pytest.raises(DimensionMismatchError, match="spread_state has"):
            pipeline(f, spread_state=state)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_runner_keeps_its_name_and_refuses_unknown_options(name):
    # The tracer and the BENCH span keys ("pipelines.run_pi", ...) are
    # built from these names.
    run, make = ALGORITHMS[name]
    assert run.__module__ == "bvlab.pipelines"
    assert run.__qualname__ == "run_" + name.replace("-", "_")
    f = make(BitString.parse("10"))
    with pytest.raises(TypeError):
        run(f, tolerance=1e-9)
    with pytest.raises(TypeError):
        run(f, False)


def _kernel_called(*args, **kwargs):
    raise AssertionError("a closed form went through a gate kernel")


# Every way a circuit reaches a gate kernel: the two names the pipelines
# call and the oracle kernel underneath apply_oracle.
_GATE_KERNELS = (
    (pipelines, "apply_oracle"),
    (pipelines, "apply_hadamard_layer"),
    (oracles, "_kernel"),
)


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in sorted(ALGORITHMS) for n in (1, 2, 3, 4)] + [("pi", 12)],
)
def test_closed_forms_build_from_the_table_without_a_kernel(name, n):
    # Each stage's closed forms are built with the Hadamard layer and every
    # oracle kernel patched to raise, then compared with that stage of an
    # unpatched circuit, so a kernel bug cannot cancel out of its check.
    p = pipelines._PIPELINES[name]
    _, make = ALGORITHMS[name]
    if n <= 4:
        keys = list(all_bitstrings(n))
    else:
        keys = [BitString.of(np.random.default_rng(n).integers(0, 2, size=n))]
    for gamma in keys:
        f = make(gamma)
        for stage, forms, state in pipelines._circuit(p, f):
            with pytest.MonkeyPatch.context() as patch:
                for module, kernel in _GATE_KERNELS:
                    patch.setattr(module, kernel, _kernel_called)
                key = p.read_key(BooleanFunction._trusted(f.table))
                for comparator, form in forms:
                    deviation = state_delta(state, *form(p, f, key))
                    assert deviation <= 1e-9, (str(gamma), stage, comparator)
    # Each patch is live: a circuit run through it alone raises.
    for module, kernel in _GATE_KERNELS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, kernel, _kernel_called)
            with pytest.raises(AssertionError, match="gate kernel"):
                pipelines._state_after(name, make(BitString.zeros(1)), "final")


def test_refsim_imports_nothing_from_the_package():
    tree = ast.parse(Path(refsim.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "refsim makes a relative import"
            modules.add(node.module)
    assert "numpy" in modules
    assert not [m for m in modules if m.split(".")[0] == "bvlab"], modules


def test_constant_one_table_breaks_the_promise_not_the_run():
    # Constant 1 still collapses to the zero key; the stage checks are what
    # exposes that the table is not a planted parity.
    report = run_bva(BooleanFunction([1, 1, 1, 1]))
    assert report.recovered == BitString.parse("00")
    assert report.failure is None
    assert not report.stages_ok()


def test_non_deterministic_table_is_reported_not_hidden():
    report = run_bva(BooleanFunction([0, 0, 0, 1]))  # AND: uniform output
    assert report.recovered is None
    assert report.failure is not None
    assert np.allclose(report.top_distribution, 0.25, atol=1e-12)


def test_tight_tolerance_is_honored():
    # AND spreads the read-out evenly: 0.25 per outcome, exactly.  It is
    # certain only when 1 - tol <= 0.25, and then the first outcome wins.
    f = BooleanFunction([0, 0, 0, 1])
    strict = run_bva(f, tol=0.74)
    assert strict.recovered is None
    assert strict.failure is not None
    loose = run_bva(f, tol=0.76)
    assert loose.recovered == BitString.parse("00")
    assert loose.failure is None


def test_stage_recording_toggles():
    f = bv_function(BitString.parse("11"))
    bare = run_bva(f, record_stages=False)
    assert bare.stage_checks == ()
    assert bare.states == {}
    stages = {"initial", "after-h-layer", "after-oracle", "final"}
    kept = run_bva(f, keep_states=True)
    assert set(kept.states) == stages
    unchecked = run_bva(f, record_stages=False, keep_states=True)
    assert unchecked.stage_checks == ()
    assert set(unchecked.states) == stages
    for stage, state in unchecked.states.items():
        assert np.array_equal(state.amps, kept.states[stage].amps), stage


def test_report_serialization_shape():
    doc = run_pi(pi_function(BitString.parse("10"))).to_dict()
    assert doc["algorithm"] == "pi"
    assert doc["qubits"] == 5
    assert doc["recovered"] == "10"
    assert doc["top_distribution"] == {"10": 1.0}
    assert doc["middle_distribution"] == {"10": 1.0}
    assert "failure" not in doc
    comparators = {c["comparator"] for c in doc["stage_checks"]}
    assert "exact (pairwise-sign sum)" in comparators
    assert "exact (factorized product)" in comparators
    failed = run_bva(BooleanFunction([0, 0, 0, 1])).to_dict()
    assert failed["recovered"] is None
    assert "failure" in failed


def test_distribution_table_rounding_and_dust():
    probs = np.array([1.0 - 3e-13, 3e-13, 0.0, 0.0])
    assert distribution_table(probs, 2) == {"00": 1.0}
    assert distribution_table(np.array([0.25] * 4), 2) == {
        "00": 0.25,
        "01": 0.25,
        "10": 0.25,
        "11": 0.25,
    }


@settings(max_examples=100, deadline=None)
@given(
    st_.integers(1, 6).flatmap(
        lambda width: st_.tuples(
            st_.just(width),
            st_.lists(
                st_.sampled_from([0.0, 1e-12, np.nextafter(1e-12, 0), np.nan, 1.0])
                | st_.floats(0.0, 1.0),
                min_size=1 << width,
                max_size=1 << width,
            ),
        )
    )
)
def test_distribution_table_matches_a_scan_of_every_entry(case):
    width, values = case
    probs = np.array(values)
    scanned = {
        str(BitString.from_int(width, v)): round(float(p), 12)
        for v, p in enumerate(probs)
        if p >= 1e-12
    }
    assert list(distribution_table(probs, width).items()) == list(scanned.items())
