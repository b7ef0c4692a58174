"""Pipelines vs the dense reference: every stage, every key, every report."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

import refsim
from bvlab import pipelines, statevector
from bvlab.bitstring import BitString, all_bitstrings
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
from bvlab.statevector import basis_state, hadamard_of_key
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
    # References are never folded whole; every factor they fold is float64.
    for stage, forms, _ in pipelines._circuit(p, f):
        for _, form in forms:
            for factor in form(p, f, key):
                assert factor.amps.dtype == np.float64, stage


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
            folded = _kron_fold(*(x.amps for x in factors))
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
            continue  # entangled: a table block, checked below
        factors = form(p, f, key)
        assert len(factors) == 2, form
        assert sum(x.amps.size for x in factors) <= 2 * statevector._TILE, form


def test_signed_pair_allocates_only_its_block():
    f = bv_function(BitString.of(np.random.default_rng(2).integers(0, 2, 20)))
    p = pipelines._PIPELINES["ccnot-bva"]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        block, target = pipelines._signed_pair(p, f, p.read_key(f))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert block.amps.size == 1 << 21 and target.amps.size == 2
    assert peak <= block.amps.nbytes + 8192, peak


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
