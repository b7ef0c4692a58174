"""Span tracing for the benchmark's traced run.

A traced pass swaps, for its own length, the names that bvlab's callers
look up at call time (``bvlab.pipelines.apply_hadamard_layer``,
``bvlab.cli.check_unitary``, the ``run_*`` entries of ``ALGORITHMS``, ...)
for wrappers that record one span per call.  Nothing under ``src/`` is
edited, and leaving ``Tracer.installed`` puts every original back.

Self time is a span's duration minus the part of its interval that its
direct children cover.  Children of one span may run at once on sweep
worker threads, so the covered part is the union of their intervals, not
the sum of their durations.  Spans on worker threads are thread-seconds:
two workers busy for one second report two seconds between them.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

# Bytes a Hadamard butterfly reads and writes per amplitude: one complex128
# in, one out.  Labelled "computed" because the kernel's real traffic
# (temporaries, copies) differs.
BYTES_PER_AMPLITUDE_PER_QUBIT = 32


@dataclass
class Span:
    sid: int
    parent: Optional[int]
    tid: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    butterflies: int = 0
    peak_bytes: int = 0


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its direct children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.sid, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.sid] = (s.end - s.start) - covered
    return out


def _hadamard_butterflies(state, qubits, *_args, **_kwargs) -> int:
    # One butterfly per amplitude pair per listed qubit.
    return len(qubits) << (state.qubits - 1)


def _span_name(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Records spans from wrapped calls.

    With ``track_peak`` the Hadamard, oracle and reference spans also record
    peak traced bytes.  tracemalloc slows every allocation it sees, so a
    tracer that tracks peaks is not used for timing.
    """

    def __init__(self, track_peak: bool = False) -> None:
        self.track_peak = track_peak
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._root: Optional[int] = None
        self._tracked = 0

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _open(self, name: str, layer: str, butterflies: int, peak: bool) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            sid = next(self._ids)
            # A worker thread's outermost span belongs to the op that is open
            # on the calling thread.
            parent = stack[-1].sid if stack else self._root
            if parent is None:
                self._root = sid
            base = 0
            if peak:
                if self._tracked == 0:
                    tracemalloc.start()
                self._tracked += 1
                base = tracemalloc.get_traced_memory()[0]
        span = Span(sid, parent, threading.get_ident(), name, layer, 0.0,
                    butterflies=butterflies, peak_bytes=-base)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span, peak: bool) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            if peak:
                # Peak bytes held since tracing last started, above what was
                # held when this span opened.  Exact on one thread; an upper
                # bound when another worker's tracked span overlaps.
                span.peak_bytes += tracemalloc.get_traced_memory()[1]
                self._tracked -= 1
                if self._tracked == 0:
                    tracemalloc.stop()
            if span.parent is None:
                self._root = None
            self.spans.append(span)

    def wrap(self, fn: Callable, layer: str, *, butterflies=None,
             peak: bool = False) -> Callable:
        name = _span_name(fn)
        peak = peak and self.track_peak

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = butterflies(*args, **kwargs) if butterflies else 0
            span = self._open(name, layer, work, peak)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span, peak)

        traced.span_wrapper = True
        return traced

    @contextmanager
    def installed(self, cli, pipelines) -> Iterator[None]:
        """Swap bvlab's call-site names for span wrappers; restore on exit."""
        saved: list[tuple[object, str, object]] = []
        algorithms = cli.ALGORITHMS
        saved_algorithms = dict(algorithms)
        try:
            for owner_name, attr, layer, opts in _SWAPS:
                owner = _owner(owner_name, cli, pipelines)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, layer, **opts))
            for key, (run, make) in saved_algorithms.items():
                algorithms[key] = (
                    self.wrap(run, "pipelines.run"),
                    self.wrap(make, "truthtable.build"),
                )
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            algorithms.update(saved_algorithms)


# Every call-site name a traced pass swaps: (owner, attribute, layer, options).
# The run_* and table-builder entries of ALGORITHMS are swapped as well.
# ``run_all`` is each sweep worker's call per key, so the workers' own loop
# counts in the cli layer rather than in no layer.
_SWAPS = (
    ("cli", "main", "cli", {}),
    ("cli", "run_all", "cli", {}),
    ("cli", "bv_function", "truthtable.build", {}),
    ("cli", "pi_function", "truthtable.build", {}),
    ("cli", "oracle_dense_matrix", "oracles.dense", {}),
    ("cli", "check_unitary", "statevector.checks", {}),
    ("cli", "check_hermitian", "statevector.checks", {}),
    ("cli", "check_permutation", "statevector.checks", {}),
    ("cli", "check_signed_diagonal", "statevector.checks", {}),
    ("pipelines", "apply_hadamard_layer", "statevector.hadamard",
     {"butterflies": _hadamard_butterflies, "peak": True}),
    ("pipelines", "apply_oracle", "oracles.apply", {"peak": True}),
    ("pipelines", "tensor", "statevector.reference", {"peak": True}),
    ("pipelines", "hadamard_of_key", "statevector.reference", {"peak": True}),
    ("pipelines", "basis_state", "statevector.reference", {"peak": True}),
    ("pipelines", "state_delta", "statevector.compare", {}),
    ("pipelines", "marginal", "statevector.readout", {}),
    ("pipelines", "measure_certain", "statevector.readout", {}),
    ("RunReport", "to_dict", "pipelines.serialize", {}),
)


def _owner(name: str, cli, pipelines):
    return {"cli": cli, "pipelines": pipelines, "RunReport": pipelines.RunReport}[name]


def is_wrapped(cli, pipelines) -> bool:
    """True if any name ``Tracer.installed`` swaps still holds a wrapper."""
    current = [getattr(_owner(o, cli, pipelines), a) for o, a, _, _ in _SWAPS]
    current += [fn for entry in cli.ALGORITHMS.values() for fn in entry]
    return any(getattr(fn, "span_wrapper", False) for fn in current)
