"""Layer-attributed wall-clock benchmark: the command line.

    python benchmarks/layers/run.py [--seed N] [--workload W]...
        [--seconds S] [--traced] [--quick] [--repeat N] [--write-expected]

runs the workloads (all five by default), each in fresh subprocesses,
prints every metric by name with its unit and sample count, checks
every answer and writes ``out/layers/result.json``. It exits non-zero
when any answer is wrong.

    python benchmarks/layers/run.py --workload W --seed N --seconds S
        --trace 0|1

is the form the benchmark driver calls (see ``BENCHMARK.json``): one
workload, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

This file never imports ``repro``; the measuring is done by
``worker.py`` in a process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / "out" / "layers"
WORKER = HERE / "worker.py"

WORKLOADS = ("service_bgp", "service_geo_select", "geo_join",
             "virtual_opendap", "materialize")
#: set-up is sampled this many times per run (fresh process each) and
#: the median reported, so one slow import does not move ``setup_s``
SETUP_SAMPLES = 3
NOISY_DRIFT = 0.05
CHILD_TIMEOUT_S = 170


def calibrate() -> float:
    """Milliseconds a fixed pure-Python job takes (best of five).

    Run in this process before and after a workload's workers: if the
    two differ by more than 5 % the machine changed speed under the
    measurement. The job mixes arithmetic, list, dict, sort and string
    work on purpose: a single tight loop runs up to 8 % faster or slower
    depending on where the heap happens to put its objects, which says
    nothing about the machine.
    """
    best = float("inf")
    for __ in range(5):
        start = perf_counter()
        x = 12345
        values = []
        for __ in range(60_000):
            x = (x * 1103515245 + 12345) % 2147483648
            values.append(x)
        position = {v: i for i, v in enumerate(values)}
        values.sort()
        acc = sum(position[v] for v in values[::3])
        acc += len(",".join(map(str, values[:20_000])).split(","))
        best = min(best, perf_counter() - start)
    return best * 1e3


def calibrated(run, *args) -> Dict[str, object]:
    """``run(*args)`` with the calibration loop on either side."""
    before = calibrate()
    result = run(*args)
    after = calibrate()
    result["calibration"] = {"loop_ms": before, "loop_after_ms": after,
                             "drift": after / before - 1.0}
    return result


def declared() -> Dict[str, Dict[str, Dict[str, object]]]:
    """Metric declarations of BENCHMARK.json, by section and name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {section: {m["name"]: m for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def child(workload: str, seed: int, seconds: float, mode: str
          ) -> Dict[str, object]:
    """Run one worker process to its end; its last line is the result."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--mode", mode],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        cwd=str(ROOT))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {workload!r} ({mode}) exited with "
                         f"code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int) -> Dict[str, object]:
    """What was measured where — and deliberately no wall-clock date."""
    return {"seed": seed, "git_commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


def measure(workload: str, seed: int, seconds: float,
            setup_samples: int) -> Dict[str, object]:
    """End-to-end metrics of one workload (tracing off)."""
    setups = [child(workload, seed, seconds, "setup")["setup"]["setup_s"]
              for __ in range(setup_samples - 1)]
    result = child(workload, seed, seconds, "measure")
    setups.append(result["setup"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    return result


def traced(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """Per-layer metrics of one workload (the traced worker)."""
    result = calibrated(child, workload, seed, seconds, "trace")
    result["metrics"]["calibration.loop_ms"] = \
        result["calibration"]["loop_ms"]
    result["metrics"]["calibration.drift"] = result["calibration"]["drift"]
    return result


def outcome(result: Dict[str, object]) -> Dict[str, object]:
    """correct / attempted / failed of one worker result."""
    failed = int(result["failed"])
    return {"correct": failed == 0 and not result["warmup_mismatches"],
            "attempted": int(result["attempted"]), "failed": failed}


def with_units(values: Dict[str, float],
               spec: Dict[str, Dict[str, object]]) -> Dict[str, Dict]:
    """Exactly the declared metrics, each with its unit."""
    missing = sorted(set(spec) - set(values))
    extra = sorted(set(values) - set(spec))
    if missing or extra:
        raise SystemExit(f"metrics do not match BENCHMARK.json: "
                         f"missing {missing}, undeclared {extra}")
    return {name: {"value": values[name], "unit": spec[name]["unit"]}
            for name in spec}


def driver_run(workload: str, seed: int, seconds: float, trace: int) -> int:
    spec = declared()
    if trace:
        result = traced(workload, seed, seconds)
        metrics = with_units(result["metrics"], spec["per_layer"])
    else:
        result = calibrated(measure, workload, seed, seconds, SETUP_SAMPLES)
        metrics = with_units(result["metrics"], spec["end_to_end"])
    report = outcome(result)
    report["metrics"] = metrics
    if abs(result["calibration"]["drift"]) > NOISY_DRIFT:
        print(f"noisy: calibration loop drifted "
              f"{result['calibration']['drift']:+.1%} over the run",
              file=sys.stderr)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def write_expected(workloads: List[str]) -> int:
    sys.path.insert(0, str(HERE))
    import oracle
    for workload in workloads:
        answers = child(workload, 0, 0, "expected")["answers"]
        path = oracle.write_expected(workload, answers)
        print(f"{workload}: {len(answers)} answers -> "
              f"{path.relative_to(ROOT)}")
    return 0


def print_table(workload: str, block: Dict[str, object]) -> None:
    print(f"\n{workload}  (seed {block['seed']}, {block['attempted']} ops "
          f"in {block['rounds']} rounds, {block['failed']} failed, work = "
          f"{block['work_unit']}, stream {block['stream_digest'][:12]}"
          f"{', NOISY' if block['noisy'] else ''})")
    for section in ("end_to_end", "per_layer"):
        for name, metric in block.get(section, {}).items():
            print(f"  {name:38s} {metric['value']:>16.6g} {metric['unit']}")


def workload_block(workload: str, seed: int, seconds: float,
                   setup_samples: int, with_layers: bool) -> Dict[str, object]:
    """Everything one workload reports in a result file."""
    spec = declared()
    result = calibrated(measure, workload, seed, seconds, setup_samples)
    block = outcome(result)
    block.update(
        seed=seed, rounds=result["rounds"], by_kind=result["by_kind"],
        work_unit=result["work_unit"],
        stream_digest=result["stream_digest"],
        calibration=result["calibration"],
        noisy=abs(result["calibration"]["drift"]) > NOISY_DRIFT,
        end_to_end=with_units(result["metrics"], spec["end_to_end"]))
    block["end_to_end"]["failed_share"] = {
        "value": block["failed"] / block["attempted"], "unit": "ratio"}
    if with_layers:
        layers = traced(workload, seed, seconds)
        block["per_layer"] = with_units(layers["metrics"], spec["per_layer"])
        checked = outcome(layers)
        block["correct"] = block["correct"] and checked["correct"]
        block["failed"] += checked["failed"]
    return block


def human_run(args) -> int:
    seconds = 0.0 if args.quick else args.seconds
    setup_samples = 1 if args.quick else SETUP_SAMPLES
    # A quick run checks plumbing, not speed: two workloads at a time
    # (nproc is 2), which also makes its calibration drift meaningless.
    width = 2 if args.quick else 1
    runs = []
    wrong = False
    for i in range(args.repeat):
        seed = args.seed + i
        with ThreadPoolExecutor(max_workers=width) as pool:
            blocks = list(pool.map(
                lambda w: workload_block(w, seed, seconds, setup_samples,
                                         args.traced), args.workload))
        for workload, block in zip(args.workload, blocks):
            wrong = wrong or not block["correct"]
            print_table(workload, block)
        runs.append({"provenance": provenance(seed),
                     "workloads": dict(zip(args.workload, blocks))})
    OUT.mkdir(parents=True, exist_ok=True)
    path = pathlib.Path(args.out) if args.out else OUT / "result.json"
    path.write_text(json.dumps({"runs": runs}, indent=1, sort_keys=True)
                    + "\n", encoding="utf-8")
    print(f"\nwrote {path}")
    if wrong:
        print("FAILED: at least one answer did not match its expected "
              "digest", file=sys.stderr)
    return 1 if wrong else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: print one JSON result line")
    parser.add_argument("--traced", action="store_true",
                        help="also run the traced pass (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="one round per pass; for the self-check")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs, with seeds seed, seed+1, ...")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected/<workload>.json")
    parser.add_argument("--out", default=None,
                        help="result file (default out/layers/result.json)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace takes exactly one --workload")
        return driver_run(args.workload[0], args.seed, args.seconds,
                          args.trace)
    args.workload = args.workload or list(WORKLOADS)
    if args.write_expected:
        return write_expected(args.workload)
    return human_run(args)


if __name__ == "__main__":
    sys.exit(main())
