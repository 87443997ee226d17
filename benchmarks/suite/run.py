"""One benchmark for the spanner stack: four workloads, every layer.

Run from the root of a checkout::

    python3 benchmarks/suite/run.py [--workload NAME|all] [--seed S]
        [--seconds T] [--trace 0|1] [--out FILE]

The workloads, metrics and units are declared in ``BENCHMARK.json``.
``--workload all`` (the default) runs each workload in a fresh
subprocess.  Every run checks the program's outputs, prints each
metric by name with its unit, and ends with one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics, or with ``--trace 1`` the per-layer ones.
``--out`` also writes the full records (workload details, output
digest, environment stamp) for ``compare.py``.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from common import error_rate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_SEED = 2002

#: Workload name -> (module, function) in this directory.
WORKLOADS = {
    "backbone-build": ("library", "backbone_build"),
    "route-batch": ("library", "route_batch"),
    "mobility": ("library", "mobility"),
    "serve-mixed": ("serving", "serve_mixed"),
}

#: One BLAS/OpenMP thread per process: the library workloads model one
#: caller, and the service runs one pool worker per core.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _commit() -> str:
    if not (ROOT / ".git").exists():  # an exported tree, not a clone
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(load_start: float, reference_ms: "float | None") -> dict:
    import numpy

    return {
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
        "reference_ms": reference_ms,
    }


def _metric_map(declared: list[dict], produced: dict, *, required: bool) -> dict:
    """The declared metrics with their measured values.

    A workload that does not exercise a layer reports nothing for it,
    which is a measured zero; an end-to-end metric must be produced.
    """
    out = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in produced and required:
            raise RuntimeError(f"workload produced no {name!r}")
        value, got_unit = produced.get(name, (0.0, unit))
        if got_unit != unit:
            raise RuntimeError(f"{name}: unit {got_unit!r}, declared {unit!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def _print_block(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")


def run_one(args: argparse.Namespace, spec: dict) -> int:
    load_start = os.getloadavg()[0]
    nproc = len(os.sched_getaffinity(0))
    if load_start > nproc:
        print(f"warning: 1-minute load {load_start:.2f} exceeds {nproc} CPUs; "
              "timings will be noisy", file=sys.stderr)
    module, function = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module), function)
    result = workload(args.seed, args.seconds, bool(args.trace))

    if args.trace:
        reported = _metric_map(spec["per_layer"], result.layers, required=False)
    else:
        reported = _metric_map(spec["end_to_end"], result.metrics, required=True)
    details = {k: {"value": v, "unit": u} for k, (v, u) in result.details.items()}
    rate = error_rate(result.attempted, result.failed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "error_rate": rate,
        "metrics": reported,
        "details": details,
        "digest": result.digest,
        "env": environment(load_start, result.reference_ms),
    }

    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"trace {args.trace} ==")
    _print_block("per-layer" if args.trace else "end-to-end", reported)
    _print_block("details", details)
    print(f"  error_rate {rate:.6g} ({result.failed} of {result.attempted} failed)")
    print(f"  digest {result.digest}")
    print(f"  env {json.dumps(record['env'], sort_keys=True)}")
    for problem in result.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps({"results": [record]}, indent=1) + "\n")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": reported,
    }))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Each workload in a fresh subprocess; one combined result."""
    records = []
    crashed = []
    for name in names:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        record = None
        for line in done.stdout.splitlines()[:-1]:
            if line.startswith("record "):
                record = json.loads(line[len("record "):])
            else:
                print(line)
        if record is None:
            print(f"error: {name} exited {done.returncode} without a result",
                  file=sys.stderr)
            crashed.append(name)
            continue
        records.append(record)
    if args.out:
        args.out.write_text(json.dumps({"results": records}, indent=1) + "\n")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": not crashed and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {
            f"{r['workload']}.{name}": metric
            for r in records for name, metric in r["metrics"].items()
        },
    }))
    return 0 if not crashed and failed == 0 else 1


def main(argv: "list[str] | None" = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # Whatever runs BENCHMARK.json's command passes its run_seconds here.
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result records here")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no package to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
