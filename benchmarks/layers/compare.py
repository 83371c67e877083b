"""Compare two result files under the bounds of BENCHMARK.json.

    python benchmarks/layers/compare.py A.json [B.json]

A and B are files written by ``run.py`` (``--repeat N`` puts N runs, one
seed each, into one file). For every workload x end-to-end metric the
medians over the runs are compared in the metric's own direction:

- ``ok``          B's median is not worse than A's by more than the bound;
- ``regressed``   it is;
- ``unresolved``  A's own run-to-run spread (distance between the first
  and third quartile over its median) exceeds the bound, so a change of
  that size cannot be told from noise.

Every ratio is printed with its base. With one file the table shows A's
medians and spreads alone — the A/A steadiness check. Exit code 1 when
any row regressed or an answer was wrong, 2 on unusable input.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per run."""
    data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in data["runs"]:
        for workload, block in run["workloads"].items():
            metrics = out.setdefault(workload, {})
            for name, metric in block["end_to_end"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return out


def spread(values: List[float]) -> Optional[float]:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return None
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(base: float, new: float, better: str) -> float:
    """By what share of *base* is *new* worse (negative: better)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a_runs = load_runs(argv[0])
    b_runs = load_runs(argv[1]) if len(argv) == 2 else None

    print(f"{'workload':20s} {'metric':16s} {'A median':>12s} {'A spread':>9s}"
          f" {'B median':>12s} {'B vs A':>9s} {'bound':>6s}  verdict")
    regressed = False
    for workload, metrics in a_runs.items():
        failed = statistics.median(metrics.get("failed_share", [0.0]))
        if b_runs is not None:
            failed = max(failed, statistics.median(
                b_runs.get(workload, {}).get("failed_share", [0.0])))
        if failed > 0:
            regressed = True
            print(f"{workload:20s} {'failed_share':16s} {failed:12.6g}"
                  f"{'':41s} regressed (absolute bound 0)")
        for declared in spec["end_to_end"]:
            name, bound = declared["name"], declared["bound"]
            values = metrics.get(name)
            if not values:
                continue
            a_median = statistics.median(values)
            a_spread = spread(values)
            row = (f"{workload:20s} {name:16s} {a_median:12.6g} "
                   f"{'-' if a_spread is None else format(a_spread, '.2%'):>9s}")
            noisy = a_spread is not None and a_spread > bound
            if b_runs is None or name not in b_runs.get(workload, {}):
                verdict = "unresolved" if noisy else "steady"
                print(f"{row} {'':12s} {'':9s} {bound:6.0%}  {verdict}")
                continue
            b_median = statistics.median(b_runs[workload][name])
            worse = worsening(a_median, b_median, declared["better"])
            if noisy:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "ok"
            print(f"{row} {b_median:12.6g} "
                  f"{(b_median - a_median) / a_median:+9.2%} {bound:6.0%}  "
                  f"{verdict} (base {a_median:.6g} {declared['unit']})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
