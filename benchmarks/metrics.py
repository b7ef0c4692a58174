"""Metric definitions and the per-pass layer arithmetic over recorded spans.

Names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root and are read from there.  This module adds only what the
file cannot say: which spans each per-layer metric sums, and which
end-to-end metrics each layer should move.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from tracing import BYTES_PER_AMPLITUDE_PER_QUBIT, Span, self_times

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

_H = "statevector.hadamard"
_REF = "statevector.reference"

# Per-layer metric -> (span layer, field summed over that layer's spans).
# trace.overhead_s has no layer: it comes from pass walls, not spans.
_FROM_SPANS = {
    f"{_H}.s": (_H, "s"),
    f"{_H}.calls": (_H, "calls"),
    f"{_H}.butterflies": (_H, "butterflies"),
    f"{_H}.gb_computed": (_H, "gb_computed"),
    f"{_H}.peak_mb": (_H, "peak_mb"),
    f"{_REF}.s": (_REF, "s"),
    f"{_REF}.peak_mb": (_REF, "peak_mb"),
    "statevector.compare.s": ("statevector.compare", "s"),
    "statevector.compare.calls": ("statevector.compare", "calls"),
    "statevector.readout.s": ("statevector.readout", "s"),
    "statevector.checks.s": ("statevector.checks", "s"),
    "statevector.checks.calls": ("statevector.checks", "calls"),
    "oracles.apply.s": ("oracles.apply", "s"),
    "oracles.apply.calls": ("oracles.apply", "calls"),
    "oracles.apply.peak_mb": ("oracles.apply", "peak_mb"),
    "oracles.dense.s": ("oracles.dense", "s"),
    "oracles.dense.calls": ("oracles.dense", "calls"),
    "truthtable.build.s": ("truthtable.build", "s"),
    "truthtable.build.calls": ("truthtable.build", "calls"),
    "pipelines.run.self_s": ("pipelines.run", "s"),
    "pipelines.run.calls": ("pipelines.run", "calls"),
    "pipelines.serialize.s": ("pipelines.serialize", "s"),
    "cli.self_s": ("cli", "s"),
    "trace.overhead_s": ("", ""),
}

# Layer -> (end-to-end metrics it should move, workloads it shows on).
LAYER_MAPPING = {
    _H: ("pass_s.p50, items_per_s, peak_rss_mb",
         "wide-verified, sweep-n8; zero on certify-n4"),
    _REF: ("pass_s.p50, peak_rss_mb",
           "wide-verified; near zero on sweep-n8 (stage checks off)"),
    "statevector.compare": ("pass_s.p50", "wide-verified only"),
    "statevector.readout": ("pass_s.p50, items_per_s", "wide-verified, sweep-n8"),
    "statevector.checks": ("pass_s.p50", "certify-n4 only"),
    "oracles.apply": ("pass_s.p50", "wide-verified, sweep-n8"),
    "oracles.dense": ("pass_s.p50, items_per_s", "certify-n4 only"),
    "truthtable.build": ("pass_s.p50 (small share)", "wide-verified"),
    "pipelines.run": ("items_per_s",
                      "sweep-n8 (1024 runs per op); small on wide-verified (2 per pass)"),
    "pipelines.serialize": ("pass_s.p50", "wide-verified"),
    "cli": ("items_per_s", "sweep-n8"),
    "trace": ("none", "all"),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    # The span layer and the field summed over its spans; empty if none.
    layer: str
    field: str

    @property
    def exact(self) -> bool:
        """Counts and computed bytes, which must repeat exactly."""
        return self.field in ("calls", "butterflies", "gb_computed")


# Name -> unit.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = tuple(
    Metric(m["name"], m["unit"], *_FROM_SPANS[m["name"]]) for m in SPEC["per_layer"]
)


# A layer's figures before its first span.
_IDLE = {"s": 0.0, "calls": 0, "butterflies": 0, "gb_computed": 0.0, "peak_mb": 0.0}


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: summed self seconds, calls, butterflies, computed GB, peak MB."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        t = out.setdefault(s.layer, dict(_IDLE))
        t["s"] += selfs[s.sid]
        t["calls"] += 1
        t["butterflies"] += s.butterflies
        t["peak_mb"] = max(t["peak_mb"], s.peak_bytes / 1e6)
    for t in out.values():
        # Each butterfly touches two amplitudes.
        t["gb_computed"] = t["butterflies"] * 2 * BYTES_PER_AMPLITUDE_PER_QUBIT / 1e9
    return out


def per_layer_values(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric that comes from spans, for one pass's spans."""
    totals = layer_totals(spans)
    return {
        m.name: totals.get(m.layer, _IDLE)[m.field]
        for m in PER_LAYER
        if m.layer
    }


def breakdown(spans: list[Span]) -> dict:
    """Self seconds and calls by span name, and Hadamard self time by caller."""
    selfs = self_times(spans)
    names = {s.sid: s.name for s in spans}
    by_name: dict[str, dict[str, float]] = {}
    hadamard_by_caller: dict[str, float] = {}
    for s in spans:
        e = by_name.setdefault(s.name, {"calls": 0, "self_s": 0.0})
        e["calls"] += 1
        e["self_s"] += selfs[s.sid]
        if s.layer == _H:
            caller = names.get(s.parent, "-")
            hadamard_by_caller[caller] = hadamard_by_caller.get(caller, 0.0) + selfs[s.sid]
    return {
        "self_s_by_span": dict(sorted(by_name.items(), key=lambda kv: -kv[1]["self_s"])),
        "hadamard_self_s_by_caller": hadamard_by_caller,
    }
