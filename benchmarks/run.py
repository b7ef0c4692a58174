"""bvlab benchmark: drive ``bvlab.cli.main`` in-process on seeded op lists.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports bvlab from ``src/`` beside this
directory and from nowhere else.  One process is one workload run: it warms
up, then repeats passes over the workload's fixed op list for about
``--seconds`` seconds, checking every output document.  A pass starts only
if a typical pass would end in time, once three passes are done.

With ``--trace 0`` set-up is also measured, in fresh child processes, and
the last stdout line is a JSON object holding the end-to-end metrics that
``BENCHMARK.json`` lists.  With ``--trace 1`` the last line holds its
per-layer metrics.  A traced run first makes one traced pass that records
peak memory under tracemalloc and warms every size up; on workloads with
fixed sizes one more runs at the next seed to show that counts do not
depend on it.  Then untraced and traced passes alternate (see
``tracing.py``), and ``trace.overhead_s`` is the median difference between
each traced pass and the untraced pass next to it.  The line before the
last, prefixed ``detail``, holds the span breakdown of the first timed
pass.  ``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.
Exit status is 1 when an output or trace check failed and 2 when the
benchmark could not set up.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, ROOT, SPEC, breakdown, per_layer_values
from tracing import Span, Tracer, is_wrapped
from workloads import LOOP, WORKLOADS, Op, OutputError, judge

SETUP_PROBES = 11
MIN_PASSES = 3
# A traced op's top-level span must cover its wall time to within this.
COVER_SLACK_S = 2e-3
COVER_SLACK_FRAC = 0.01


class SetupError(Exception):
    """The benchmark cannot run here: no sources, or a probe failed."""


def load_bvlab():
    """Import bvlab from this checkout's ``src/``; return (cli, pipelines)."""
    package = ROOT / "src" / "bvlab"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no bvlab sources at {package}")
    sys.path.insert(0, str(package.parent))
    import bvlab.cli
    import bvlab.pipelines

    if Path(bvlab.cli.__file__).resolve().parent != package:
        raise SetupError(f"bvlab imported from {bvlab.cli.__file__}, not {package}")
    return bvlab.cli, bvlab.pipelines


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported bvlab
    and generated the workload's inputs, once per probe.

    One unmeasured probe runs first so that every measured one finds the
    byte-code caches written.
    """
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SetupError(f"set-up probe exited {code} after {line!r}")
        if i:
            times.append(elapsed)
    return times


@dataclass
class OpResult:
    argv: tuple[str, ...]
    start: float
    end: float
    items: int = 0
    error: str = ""
    spans: list[Span] = field(default_factory=list)


def run_op(cli, op: Op, tracer: Tracer | None = None) -> OpResult:
    """One ``cli.main`` call, timed and checked.  Never raises for the op."""
    buf = io.StringIO()
    outcome: object
    start = time.perf_counter()
    try:
        with redirect_stdout(buf):
            outcome = cli.main(list(op.argv))
    except SystemExit as err:
        outcome = f"SystemExit({err.code!r})"
    except Exception as err:  # the op failed; the run goes on and counts it
        outcome = f"{type(err).__name__}: {err}"
    result = OpResult(op.argv, start, time.perf_counter())
    if tracer is not None:
        result.spans = tracer.take()
    if isinstance(outcome, str):
        result.error = outcome
        return result
    try:
        result.items = judge(op, outcome, buf.getvalue())
    except OutputError as err:
        result.error = str(err)
    return result


def trace_errors(result: OpResult) -> list[str]:
    """Problems with one traced op's spans: exactly one top-level span, which
    covers the op's wall time and every other span of the op."""
    roots = [s for s in result.spans if s.parent is None]
    if len(roots) != 1:
        return [f"{len(roots)} top-level spans"]
    root = roots[0]
    wall = result.end - result.start
    errors = []
    if root.start < result.start or root.end > result.end or (
        wall - (root.end - root.start) > COVER_SLACK_S + COVER_SLACK_FRAC * wall
    ):
        errors.append(f"top-level span {root.end - root.start:.6f}s vs wall {wall:.6f}s")
    if any(s.start < root.start or s.end > root.end for s in result.spans):
        errors.append("a span lies outside its op's top-level span")
    return errors


@dataclass
class Pass:
    ops: list[OpResult]
    wall: float

    @property
    def items(self) -> int:
        return sum(r.items for r in self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.ops if r.error)

    @property
    def spans(self) -> list[Span]:
        return [s for r in self.ops for s in r.spans]


def run_pass(cli, pipelines, ops: list[Op], tracer: Tracer | None = None) -> Pass:
    """One pass over the op list; its wall time includes the output checks."""
    start = time.perf_counter()
    if tracer is None:
        results = [run_op(cli, op) for op in ops]
    else:
        with tracer.installed(cli, pipelines):
            results = [run_op(cli, op, tracer) for op in ops]
    return Pass(results, time.perf_counter() - start)


def untraced_metrics(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    timed = sum(p.wall for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "pass_s.p50": statistics.median([p.wall for p in passes]),
        "items_per_s": sum(p.items for p in passes) / timed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def traced_metrics(untraced: list[Pass], timed: list[Pass], memory: Pass,
                   cross: list[Pass]) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures and any count that failed to repeat.

    Times are medians over the timed passes, peaks come from the memory
    pass, and counts must agree across all traced passes at the run's seed
    and with the passes at another seed.  ``untraced[i]`` ran next to
    ``timed[i]``.
    """
    values = [per_layer_values(p.spans) for p in timed]
    peaks = per_layer_values(memory.spans)
    cross_values = [per_layer_values(p.spans) for p in cross]
    out: dict[str, float] = {}
    errors: list[str] = []
    for m in PER_LAYER:
        if not m.layer:
            continue
        if m.exact:
            seen = {v[m.name] for v in values + [peaks]}
            seen_cross = {v[m.name] for v in cross_values}
            if len(seen) != 1:
                errors.append(f"{m.name} differs between traced passes: {sorted(seen)}")
            elif seen_cross and seen_cross != seen:
                errors.append(f"{m.name} differs between seeds: "
                              f"{sorted(seen)} vs {sorted(seen_cross)}")
            out[m.name] = peaks[m.name]
        elif m.field == "peak_mb":
            out[m.name] = peaks[m.name]
        else:
            out[m.name] = statistics.median([v[m.name] for v in values])
    out["trace.overhead_s"] = statistics.median(
        [t.wall - u.wall for u, t in zip(untraced, timed)])
    return out, errors


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    setup = [] if trace else measure_setup(workload_name, seed)
    cli, pipelines = load_bvlab()
    ops = workload.make_ops(seed)
    for argv in workload.warmup:
        run_op(cli, Op(argv, lambda doc: 0))

    untraced: list[Pass] = []
    timed: list[Pass] = []
    cross: list[Pass] = []
    start = time.perf_counter()
    if trace:
        tracer = Tracer()
        memory = run_pass(cli, pipelines, ops, Tracer(track_peak=True))
        if workload.cross_seed:
            cross.append(run_pass(cli, pipelines, workload.make_ops(seed + 1), tracer))
        # Pairs of an untraced and a traced pass, at least two so that the
        # overhead is not a single sample.  Each pair runs in the opposite
        # order to the one before, so a steady drift in machine speed
        # cancels out of the overhead rather than adding to it.
        while len(timed) < 2 or (
            time.perf_counter() - start
            + 2 * statistics.median([p.wall for p in timed]) <= seconds
        ):
            if len(timed) % 2:
                timed.append(run_pass(cli, pipelines, ops, tracer))
                untraced.append(run_pass(cli, pipelines, ops))
            else:
                untraced.append(run_pass(cli, pipelines, ops))
                timed.append(run_pass(cli, pipelines, ops, tracer))
    else:
        # Past MIN_PASSES, start a pass only if a typical one ends in time.
        while len(untraced) < MIN_PASSES or (
            time.perf_counter() - start
            + statistics.median([p.wall for p in untraced]) <= seconds
        ):
            untraced.append(run_pass(cli, pipelines, ops))

    traced = [memory] + timed + cross if trace else []
    passes = untraced + traced
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [f"op {' '.join(r.argv)}: {r.error}"
                for p in passes for r in p.ops if r.error]
    print(f"workload {workload_name}  seed {seed}  {LOOP}")
    print(f"  {workload.size}")

    if trace:
        problems += [e for p in traced for r in p.ops for e in trace_errors(r)]
        if is_wrapped(cli, pipelines):
            problems.append("span wrappers left installed after the traced run")
        metrics, count_errors = traced_metrics(untraced, timed, memory, cross)
        problems += count_errors
        units = {m.name: m.unit for m in PER_LAYER}
        print(f"  per-layer times per pass: median of {len(timed)} traced passes; "
              f"peaks from 1 pass under tracemalloc; trace.overhead_s: median of "
              f"{len(timed)} traced-minus-untraced pass pairs")
        print("detail " + json.dumps(breakdown(timed[0].spans)))
    else:
        metrics = untraced_metrics(untraced, setup)
        units = END_TO_END
        print(f"  setup_s: median of {len(setup)} fresh processes; pass_s.p50: "
              f"median of {len(untraced)} passes (too few for a higher percentile)")
        print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")
        print("  pass walls (s): " + " ".join(f"{p.wall:.3f}" for p in untraced))
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(metrics)} are not those BENCHMARK.json "
                        f"lists: {sorted(units)}")
        metrics = {k: v for k, v in metrics.items() if k in units}
    for name, value in metrics.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:<36} {shown} {units[name]}")
    for problem in problems:
        print(f"  FAIL {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            load_bvlab()
            WORKLOADS[args.workload].make_ops(args.seed)
            print("ready", flush=True)
            return 0
        return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
