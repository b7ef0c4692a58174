"""Tests of the benchmark itself: span arithmetic, output checks, wrapper removal.

    python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import io
import json
import tracemalloc
from contextlib import redirect_stdout

import pytest

from metrics import PER_LAYER, layer_totals, per_layer_values
from run import Pass, load_bvlab, run_op, trace_errors, traced_metrics
from tracing import Span, Tracer, _SWAPS, _owner, is_wrapped, self_times, union_length
from workloads import Op, OutputError, check_certify, check_run, check_sweep

CLI, PIPELINES = load_bvlab()


def _span(sid, parent, start, end, layer="x", tid=1, **kw):
    return Span(sid, parent, tid, f"s{sid}", layer, start, end, **kw)


def test_union_length_merges_overlaps_and_nesting():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 4), (1, 2), (3, 6)]) == 6.0


def test_self_times_subtract_union_of_concurrent_children():
    spans = [
        _span(0, None, 0.0, 10.0, layer="cli"),
        # Two worker threads run children of the root at once.
        _span(1, 0, 1.0, 4.0, layer="pipelines.run", tid=2),
        _span(2, 0, 2.0, 6.0, layer="pipelines.run", tid=3),
        _span(3, 1, 2.0, 3.0, layer="statevector.hadamard", tid=2,
              butterflies=1 << 20),
        _span(4, 1, 3.5, 4.0, layer="statevector.hadamard", tid=2,
              butterflies=1 << 20),
    ]
    assert self_times(spans) == pytest.approx({0: 5.0, 1: 1.5, 2: 4.0, 3: 1.0, 4: 0.5})
    totals = layer_totals(spans)
    assert totals["cli"]["s"] == pytest.approx(5.0)
    assert totals["pipelines.run"]["s"] == pytest.approx(5.5)
    assert totals["statevector.hadamard"]["calls"] == 2
    # 2**21 butterflies, two complex128 amplitudes in and out each.
    assert totals["statevector.hadamard"]["gb_computed"] == (2 << 20) * 64 / 1e9


def _fake_cli(text: str, code: int = 0):
    class Fake:
        @staticmethod
        def main(argv):
            print(text, end="")
            return code

    return Fake


def _doc(*argv: str) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert CLI.main(list(argv)) == 0
    return json.loads(buf.getvalue())


def test_tampered_run_document_is_a_failed_op():
    doc = _doc("run", "--algorithm", "pi", "--gamma", "101")
    assert check_run(doc, "pi", "101") == 1
    tampered = [
        dict(doc, recovered="100"),
        dict(doc, matches=False),
        dict(doc, stage_checks=[dict(c, ok=False) for c in doc["stage_checks"]]),
        dict(doc, top_distribution={"101": 0.5, "100": 0.5}),
        {k: v for k, v in doc.items() if k != "stage_checks"},
    ]
    op = Op(("run",), lambda d: check_run(d, "pi", "101"))
    for bad in tampered:
        result = run_op(_fake_cli(json.dumps(bad)), op)
        assert result.error and result.items == 0
        assert Pass([result], 0.0).failed == 1
    assert run_op(_fake_cli(json.dumps(doc), code=1), op).error
    assert run_op(_fake_cli("not json"), op).error
    assert not run_op(_fake_cli(json.dumps(doc)), op).error


def test_tampered_sweep_and_certify_documents_fail_their_checks():
    sweep = {
        "n": 8, "keys": 256, "runs": 1024, "successes": 1024, "failures": [],
        "all_passed": True,
        "per_algorithm": {a: {"successes": 256, "oracle_calls": 256}
                          for a in ("bva", "ccnot-bva", "pi", "single-oracle-bva")},
    }
    assert check_sweep(sweep) == 1024
    with pytest.raises(OutputError):
        check_sweep(dict(sweep, successes=1023))
    with pytest.raises(OutputError):
        check_sweep(dict(sweep, all_passed=False))

    certify = _doc("certify", "--n", "4", "--seed", "3")
    assert check_certify(certify) == 500
    with pytest.raises(OutputError):
        check_certify(dict(certify, functions_per_kind=99))
    broken = json.loads(json.dumps(certify))
    broken["kinds"]["phase"]["unitary_failures"] = 1
    with pytest.raises(OutputError):
        check_certify(broken)


def _call_sites():
    sites = [getattr(_owner(o, CLI, PIPELINES), a) for o, a, _, _ in _SWAPS]
    return sites + [tuple(v) for v in CLI.ALGORITHMS.values()]


def test_span_wrappers_are_removed_after_traced_run():
    before = _call_sites()
    assert not is_wrapped(CLI, PIPELINES)
    tracer = Tracer()
    with tracer.installed(CLI, PIPELINES):
        assert is_wrapped(CLI, PIPELINES)
        op = Op(("run", "--algorithm", "pi", "--gamma", "101"),
                lambda d: check_run(d, "pi", "101"))
        first = run_op(CLI, op, tracer)
        sweep = run_op(CLI, Op(("sweep", "--n", "2"), lambda d: 0), tracer)
    after = _call_sites()
    assert not is_wrapped(CLI, PIPELINES)
    assert all(a is b for a, b in zip(before, after))
    assert not first.error and not trace_errors(first)
    layers = {s.layer for s in first.spans}
    assert {"cli", "pipelines.run", "statevector.hadamard", "oracles.apply",
            "statevector.reference", "statevector.compare", "statevector.readout",
            "pipelines.serialize", "truthtable.build"} <= layers
    # Sweep workers' per-key loop is a cli span that holds that key's runs.
    assert not sweep.error and not trace_errors(sweep)
    per_key = {s.sid for s in sweep.spans if s.name == "pipelines.run_all"}
    assert len(per_key) == 4 and {s.layer for s in sweep.spans
                                  if s.sid in per_key} == {"cli"}
    runs = [s for s in sweep.spans if s.layer == "pipelines.run"]
    assert len(runs) == 16 and all(s.parent in per_key for s in runs)

    with pytest.raises(RuntimeError):
        with tracer.installed(CLI, PIPELINES):
            raise RuntimeError("op blew up")
    assert all(a is b for a, b in zip(before, _call_sites()))


def test_peak_tracking_records_peaks_and_stops_tracemalloc():
    tracer = Tracer(track_peak=True)
    op = Op(("run", "--algorithm", "ccnot-bva", "--gamma", "1011"),
            lambda d: check_run(d, "ccnot-bva", "1011"))
    with tracer.installed(CLI, PIPELINES):
        result = run_op(CLI, op, tracer)
    assert not result.error and not tracemalloc.is_tracing()
    values = per_layer_values(result.spans)
    # The layer copies half of a 6-qubit complex128 state at least.
    assert values["statevector.hadamard.peak_mb"] >= 16 * 32 / 1e6
    assert values["oracles.apply.peak_mb"] > 0


def test_exact_counts_repeat_across_traced_runs_and_seeds():
    def counts(gamma):
        tracer = Tracer()
        op = Op(("run", "--algorithm", "ccnot-bva", "--gamma", gamma),
                lambda d: check_run(d, "ccnot-bva", gamma))
        with tracer.installed(CLI, PIPELINES):
            result = run_op(CLI, op, tracer)
        assert not result.error
        values = per_layer_values(result.spans)
        return {m.name: values[m.name] for m in PER_LAYER if m.exact}

    first = counts("1011")
    assert first == counts("1011") == counts("0110")
    # Two layers of 6 and 4 qubits on a 6-qubit state.
    assert first["statevector.hadamard.butterflies"] == (6 + 4) * 32


def test_trace_overhead_is_the_median_of_paired_differences():
    untraced = [Pass([], w) for w in (5.0, 9.0, 6.0)]
    timed = [Pass([], w) for w in (5.5, 9.2, 6.1)]
    values, errors = traced_metrics(untraced, timed, Pass([], 0.0), [])
    assert not errors
    # Differences 0.5, 0.2, 0.1; a difference of medians would give 0.1.
    assert values["trace.overhead_s"] == pytest.approx(0.2)
