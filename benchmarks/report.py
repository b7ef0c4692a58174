"""Run every workload untraced and traced, print all metrics, optionally save.

    python3 benchmarks/report.py [--write PATH]

Each workload run is its own ``run.py`` process at seed 1, so runs share no
state; each measures for ``run_seconds`` from ``BENCHMARK.json``.  The
printed table has every end-to-end metric (with ``fail_frac``, failed ops
over attempted ops) and every per-layer metric, with units.  ``--write``
saves a JSON report holding the machine facts, each workload's inputs and
reason, the layer-to-end-to-end mapping, both runs' metrics and the span
breakdown of the first traced pass.  Exit status is 1 if any run failed an
output or trace check.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from metrics import LAYER_MAPPING, SPEC
from run import load_bvlab
from workloads import LOOP, WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 1


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy wheels, if found."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cache_sizes() -> dict[str, str]:
    """Data and unified cache sizes of CPU 0, by level, as Linux reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def machine_facts() -> dict:
    import numpy

    cli, _ = load_bvlab()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "caches": _cache_sizes(),
        "sweep_workers": cli._sweep_workers(1 << 8),
        "blas_threads": _blas_threads(numpy),
    }


def run_workload(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         str(SEED), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit": proc.returncode}
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    result["problems"] = [ln.strip() for ln in lines if ln.strip().startswith("FAIL")]
    detail = [ln for ln in lines if ln.startswith("detail ")]
    if detail:
        result["detail"] = json.loads(detail[0][len("detail "):])
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    why = {w["name"]: w["why"] for w in SPEC["workloads"]}
    results = {}
    ok = True
    for name, workload in WORKLOADS.items():
        untraced = run_workload(name, 0)
        traced = run_workload(name, 1)
        ok &= untraced["correct"] and traced["correct"]
        attempted = untraced["attempted"]
        rows = [(k, v["value"], v["unit"]) for k, v in untraced["metrics"].items()]
        rows.append(("fail_frac", untraced["failed"] / max(attempted, 1), "ratio"))
        rows += [(k, v["value"], v["unit"]) for k, v in traced["metrics"].items()]
        print(f"{name}  (untraced {'ok' if untraced['correct'] else 'FAILED'}, "
              f"traced {'ok' if traced['correct'] else 'FAILED'})")
        for metric, value, unit in rows:
            shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
            print(f"  {metric:<36} {shown} {unit}")
        for problem in untraced.get("problems", []) + traced.get("problems", []):
            print(f"  {problem}")
        results[name] = {
            "why": why[name],
            "inputs": workload.size,
            "loop": LOOP,
            "ops": [" ".join(op.argv) for op in workload.make_ops(SEED)],
            "untraced": untraced,
            "traced": traced,
        }

    if args.write:
        report = {
            "seed": SEED,
            "run_seconds": SPEC["run_seconds"],
            "machine": machine_facts(),
            "layer_mapping": {layer: {"moves": moves, "on": on}
                              for layer, (moves, on) in LAYER_MAPPING.items()},
            "workloads": results,
        }
        Path(args.write).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
