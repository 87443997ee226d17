"""Compare two sets of benchmark results, metric by metric.

    python3 benchmarks/suite/compare.py A1.json A2.json ... --vs B1.json B2.json ...

Each file is written by ``run.py --out``.  For every workload and
metric the table shows each set's median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the change of B's
median against A's in the metric's worse direction, and the metric's
bound from ``BENCHMARK.json``.  Workload details without a declared
bound (``backbone_p50_s``, ``serve_miss_p50_ms``, ...) are held to
``DETAIL_BOUND``; per-layer metrics have no bound and are shown only.

A change beyond the bound is a regression, unless A's own spread
(quartile distance over median) is already wider than the bound, which
leaves the metric unresolved.  Output digests must agree between every
run of both sets with the same workload, seed and trace setting.
Exits 1 on any regression, digest mismatch or failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Optional

from common import quartiles

ROOT = Path(__file__).resolve().parents[2]

#: Bound for workload details that BENCHMARK.json does not declare.
DETAIL_BOUND = 0.10
#: Detail units compared (timings and rates); counts are skipped.
DETAIL_UNITS = {"s": "lower", "ms": "lower", "pairs/s": "higher", "req/s": "higher"}


def load(paths: Iterable[Path]) -> list[dict]:
    records = []
    for path in paths:
        records.extend(json.loads(Path(path).read_text())["results"])
    return records


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def worse_by(a: list[float], b: list[float], better: str) -> float:
    """How much worse B's median is than A's, as a share of A's."""
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    if not median_a:
        return 0.0
    change = (median_b - median_a) / abs(median_a)
    return change if better == "lower" else -change


def verdict(a: list[float], b: list[float], better: str,
            bound: Optional[float]) -> str:
    if bound is None:
        return ""
    if worse_by(a, b, better) <= bound:
        return "ok"
    return "unresolved" if spread(a) > bound else "REGRESSION"


def _rules(spec: dict) -> dict[str, tuple[str, Optional[float]]]:
    rules: dict[str, tuple[str, Optional[float]]] = {}
    for metric in spec["end_to_end"]:
        rules[metric["name"]] = (metric["better"], metric["bound"])
    for metric in spec["per_layer"]:
        rules[metric["name"]] = (metric["better"], None)
    return rules


def _series(records: list[dict], workload: str, trace: int) -> dict[str, list[float]]:
    series: dict[str, list[float]] = {}
    for record in records:
        if record["workload"] != workload or record["trace"] != trace:
            continue
        for name, metric in record["metrics"].items():
            series.setdefault(name, []).append(metric["value"])
        for name, metric in record["details"].items():
            if metric["unit"] in DETAIL_UNITS:
                series.setdefault(name, []).append(metric["value"])
    return series


def _unit(records: list[dict], name: str) -> str:
    for record in records:
        if name in record["details"]:
            return record["details"][name]["unit"]
    raise KeyError(name)


def _fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:12.5g} [{q1:.5g}, {q3:.5g}]"


def digest_mismatches(records: list[dict]) -> list[str]:
    seen: dict[tuple, set[str]] = {}
    for record in records:
        key = (record["workload"], record["seed"], record["trace"])
        seen.setdefault(key, set()).add(record["digest"])
    return [f"{key[0]} seed {key[1]}: {len(d)} different digests"
            for key, d in sorted(seen.items()) if len(d) > 1]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", nargs="+", type=Path, help="result files of set A")
    parser.add_argument("--vs", nargs="+", type=Path, required=True,
                        help="result files of set B")
    args = parser.parse_args(argv)
    rules = _rules(json.loads((ROOT / "BENCHMARK.json").read_text()))
    set_a, set_b = load(args.a), load(args.vs)
    bad = 0
    print(f"{'workload':<15} {'metric':<40} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'worse':>8} {'bound':>6}  verdict")
    groups = sorted({(r["workload"], r["trace"]) for r in set_a + set_b})
    for workload, trace in groups:
        series_a = _series(set_a, workload, trace)
        series_b = _series(set_b, workload, trace)
        for name in sorted(set(series_a) & set(series_b)):
            a, b = series_a[name], series_b[name]
            if name in rules:
                better, bound = rules[name]
            else:
                better, bound = DETAIL_UNITS[_unit(set_a, name)], DETAIL_BOUND
            status = verdict(a, b, better, bound)
            bad += status == "REGRESSION"
            bound_text = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"{workload:<15} {name:<40} {_fmt(a):>34} {_fmt(b):>34} "
                  f"{worse_by(a, b, better):+8.3f} {bound_text}  {status}")
    for problem in digest_mismatches(set_a + set_b):
        print(f"digest mismatch: {problem}")
        bad += 1
    for label, records in (("A", set_a), ("B", set_b)):
        for record in records:
            if record["failed"]:
                print(f"failed operations in {label}: {record['workload']} seed "
                      f"{record['seed']}: {record['failed']} of {record['attempted']}")
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
