"""One measurement process: set up a workload, then time it.

``run.py`` starts this file in a fresh interpreter per workload (and
per set-up sample), reads the single JSON line it prints last and never
imports it. Modes:

- ``setup``    imports, dataset build, warm-up round, ``gc.collect()``;
  reports how long that took and exits;
- ``measure``  the same set-up, then the timed pass with tracing off:
  the end-to-end numbers;
- ``trace``    the same set-up, then an untraced pass, a traced replay
  of the identical ops (boundary spans installed from outside), for
  the service workloads a third pass without the observability stack,
  and the direct probes: the per-layer numbers;
- ``expected`` runs every distinct op once and prints its answer digest.

Closed loop, one client, one thread: the next op starts when the
previous one returned.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import sys
from collections import Counter
from contextlib import nullcontext
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = ROOT / "out" / "layers"
HASH_SEED = "0"
#: ``peak_rss_mb`` is read when this many timed rounds are done (or at
#: the end of a shorter pass), so a faster program, which completes
#: more ops and so holds more open cursors and log entries, is not
#: charged for them
RSS_ROUNDS = 8


class PassResult:
    """What one pass over the op stream measured."""

    def __init__(self):
        self.latencies: List[float] = []
        self.cpu: List[float] = []
        self.kinds: List[str] = []
        self.units = 0
        self.failed = 0
        self.rounds = 0
        self.gen2 = 0
        self.first_round_ops = 0
        self.peak_rss_mb = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def by_kind(self) -> Dict[str, Dict[str, float]]:
        """Sample count and median latency of each op kind."""
        groups: Dict[str, List[float]] = {}
        for kind, latency in zip(self.kinds, self.latencies):
            groups.setdefault(kind, []).append(latency)
        return {kind: {"ops": len(lat),
                       "p50_ms": statistics.median(lat) * 1e3,
                       "max_ms": max(lat) * 1e3}
                for kind, lat in sorted(groups.items())}

    def end_to_end(self) -> Dict[str, float]:
        lat = self.latencies
        p95 = (statistics.quantiles(lat, n=20, method="inclusive")[18]
               if len(lat) > 1 else lat[0])
        return {
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p95_ms": p95 * 1e3,
            "ops_per_s": self.ops / self.busy_s,
            "work_per_s": self.units / self.busy_s,
            "cpu_ms_per_op": sum(self.cpu) / self.ops * 1e3,
        }


class Runner:
    """Drives one workload's op stream and checks every answer."""

    def __init__(self, workload, seed: int,
                 expected: Dict[str, Dict[str, object]]):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        #: key -> (answer verified, units of the verified occurrence)
        self.verified: Dict[str, tuple] = {}
        #: keys of ops that failed, warm-up included
        self.mismatches: List[str] = []

    def check(self, op, payload) -> tuple:
        """(passed, units of work) for one finished op.

        The first occurrence of a key is digested and compared with the
        committed answer (plus the workload's cross-route check); later
        ones must repeat its unit count.
        """
        ok, units = self.workload.work(op, payload)
        seen = self.verified.get(op.key)
        if seen is None:
            seen = (self.workload.answer(op, payload)
                    == self.expected.get(op.key)
                    and self.workload.cross_check(op, payload), units)
            self.verified[op.key] = seen
        passed = ok and seen[0] and seen[1] == units
        if not passed:
            self.mismatches.append(op.key)
        return passed, units

    def warm_up(self) -> float:
        """Round 0, untimed; returns the very first op's latency (ms)."""
        self.workload.begin_pass()
        first_ms = None
        for op in self.workload.round(self.seed, 0):
            self.workload.prepare(op)
            start = perf_counter()
            payload = self.workload.execute(op)
            if first_ms is None:
                first_ms = (perf_counter() - start) * 1e3
            self.check(op, payload)
        gc.collect()
        return first_ms

    def run_pass(self, seconds: float = 0.0, rounds: Optional[int] = None,
                 recorder=None, counts: Optional[Counter] = None,
                 after_first_round: Optional[Callable] = None) -> PassResult:
        """Whole rounds from round 1 on: until *seconds* have passed
        (at least one round), or exactly *rounds* of them.

        Stopping only between rounds keeps the op mix of every pass
        exactly the deck's, whatever the machine's speed.
        """
        workload = self.workload
        result = PassResult()
        gen2_before = gc.get_stats()[2]["collections"]
        untraced = nullcontext()
        op_id = 0
        started = perf_counter()
        for ops in workload.stream(self.seed, first_round=1):
            for op in ops:
                workload.prepare(op)
                before = counts["candidates"] if counts is not None else 0
                root = untraced if recorder is None \
                    else recorder.root(op_id, "harness.op")
                cpu0 = process_time()
                start = perf_counter()
                with root:
                    payload = workload.execute(op)
                end = perf_counter()
                cpu1 = process_time()
                passed, units = self.check(op, payload)
                if not passed:
                    result.failed += 1
                if counts is not None:
                    counts["units"] += units
                    if counts["candidates"] > before:
                        counts["candidate_units"] += units
                result.latencies.append(end - start)
                result.cpu.append(cpu1 - cpu0)
                result.kinds.append(op.kind)
                result.units += units
                op_id += 1
            result.rounds += 1
            if result.rounds == 1:
                result.first_round_ops = op_id
                if after_first_round is not None:
                    after_first_round()
            if result.rounds == RSS_ROUNDS:
                result.peak_rss_mb = peak_rss_mb()
            if rounds is not None:
                if result.rounds >= rounds:
                    break
            elif perf_counter() - started >= seconds:
                break
        if result.rounds < RSS_ROUNDS:
            result.peak_rss_mb = peak_rss_mb()
        result.gen2 = gc.get_stats()[2]["collections"] - gen2_before
        return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_metrics(runner: Runner, seconds: float, setup: Dict[str, float]
                  ) -> Dict[str, object]:
    """The per-layer numbers: passes A (untraced), B (traced replay),
    C (no observability stack, service workloads only), then probes."""
    import boundaries
    import probes
    from spans import NAME, OP, PARENT, Recorder, layer_shares

    workload = runner.workload
    share = 3 if workload.has_observability else 2
    service = getattr(workload, "service", None)
    latency = workload.latency

    plain = runner.run_pass(seconds=seconds / share)

    recorder = Recorder()
    counts: Counter = Counter()
    first: Dict[str, float] = {}

    def levels() -> Dict[str, float]:
        out = dict(counts)
        if service is not None:
            snap = service.plan_cache.snapshot()
            out["plan_hits"] = snap["hits"]
            out["plan_misses"] = snap["misses"]
            out["shed"] = service.stats.shed
        if latency is not None:
            out["dap_requests"] = latency.request_count
            out["dap_bytes"] = latency.bytes_served
        return out

    runner.warm_up()
    base = levels()
    boundaries.install(recorder, counts)
    try:
        traced = runner.run_pass(
            rounds=plain.rounds, recorder=recorder, counts=counts,
            after_first_round=lambda: first.update(levels()))
    finally:
        recorder.restore()
    last = levels()

    detached = None
    if workload.has_observability:
        workload.detach_observability()
        runner.warm_up()
        detached = runner.run_pass(rounds=plain.rounds)

    OUT.mkdir(parents=True, exist_ok=True)
    recorder.write(OUT / f"trace_{workload.name}.jsonl")

    totals = recorder.totals()
    ops = traced.ops
    n1 = traced.first_round_ops

    def delta(key: str, upto: Dict[str, float] = first) -> float:
        return upto.get(key, 0) - base.get(key, 0)

    def self_ms(*names: str) -> float:
        return sum(totals[n]["self_s"] for n in names if n in totals) \
            / ops * 1e3

    def busy_ms(*names: str) -> float:
        return sum(totals[n]["busy_s"] for n in names if n in totals) \
            / ops * 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def busy_rate(count_key: str, span: str, scale: float = 1.0) -> float:
        busy = totals.get(span, {}).get("busy_s", 0.0)
        return ratio(delta(count_key, last) * scale, busy)

    # virtual-table cache: a call that did not fetch was a hit
    spans = recorder.spans
    vt_calls = vt_misses = 0
    for span in spans:
        if span[OP] >= n1:
            continue
        if span[NAME] == "madis.vt_call":
            vt_calls += 1
        elif span[NAME] == "opendap.fetch" and span[PARENT] >= 0 \
                and spans[span[PARENT]][NAME] == "madis.vt_call":
            vt_misses += 1

    lookups = delta("plan_hits") + delta("plan_misses")
    parse = totals.get("sparql.parse", {"busy_s": 0.0, "calls": 0})
    all_self = sum(row["self_s"] for row in totals.values())

    metrics = {
        "service.handle_self_ms": self_ms("service.handle"),
        "service.execute_self_ms": self_ms("service.execute"),
        "service.plancache_lookup_ms": self_ms("service.plancache"),
        "service.plancache_hit_rate": ratio(delta("plan_hits"), lookups),
        "service.rows_encoded_per_op":
            delta("units") / n1 if service is not None else 0.0,
        "governance.admit_ms": busy_ms("governance.admit",
                                       "governance.release"),
        "governance.shed_count": delta("shed", last),
        "observability.observe_request_ms":
            busy_ms("observability.observe_request"),
        "observability.overhead_share":
            1.0 - detached.busy_s / plain.busy_s if detached else 0.0,
        "sparql.parse_ms": ratio(parse["busy_s"], parse["calls"]) * 1e3,
        "sparql.plan_ms": ratio(
            totals.get("sparql.plan", {}).get("self_s", 0.0),
            parse["calls"]) * 1e3,
        "sparql.exec_self_ms": self_ms("sparql.exec"),
        "sparql.federation_self_ms": self_ms("sparql.federation"),
        "sparql.rows_out_per_op": delta("rows_out") / n1,
        "sparql.rows_examined_per_row_out":
            ratio(delta("rows_examined"), delta("rows_out")),
        "sparql.replans": delta("replans"),
        "geometry.extension_self_ms": self_ms("geometry.extension"),
        "strabon.candidates_per_op": delta("candidates") / n1,
        "strabon.candidate_yield":
            ratio(delta("candidate_units"), delta("candidates")),
        "strabon.save_mb_s": busy_rate("saved_bytes", "strabon.save", 1e-6),
        "strabon.load_triples_per_s":
            busy_rate("loaded_triples", "strabon.load"),
        "strabon.disk_bytes_per_triple":
            ratio(delta("saved_bytes"), delta("saved_triples")),
        "ontop.query_self_ms": self_ms("ontop.query"),
        "madis.execute_ms": self_ms("madis.execute"),
        "madis.vt_call_ms": self_ms("madis.vt_call"),
        "madis.vt_cache_hit_rate": ratio(vt_calls - vt_misses, vt_calls),
        "opendap.fetch_ms": self_ms("opendap.fetch"),
        "opendap.server_request_ms": self_ms("opendap.server_request"),
        "opendap.server_calls_per_op": delta("dap_requests") / n1,
        "opendap.bytes_per_op": delta("dap_bytes") / n1,
        "geotriples.run_triples_per_s":
            busy_rate("mapped_triples", "geotriples.run"),
        "process.import_s": setup["import_s"],
        "process.first_op_ms": setup["first_op_ms"],
        "process.gc_gen2_collections": plain.gen2,
        "trace.overhead_ratio": traced.busy_s / plain.busy_s,
        "trace.residual_share":
            abs(traced.busy_s - all_self) / traced.busy_s,
    }
    for layer, value in layer_shares(
            totals, boundaries.SPAN_LAYERS).items():
        metrics[f"share.{layer}"] = value
    metrics.update(probes.run_all(workload))
    return {"metrics": metrics,
            "attempted": plain.ops + traced.ops
            + (detached.ops if detached else 0),
            "failed": plain.failed + traced.failed
            + (detached.failed if detached else 0),
            "trace_ops": traced.ops, "spans": len(recorder.spans)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--mode", default="measure",
                        choices=("setup", "measure", "trace", "expected"))
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # repro.vito.products seeds its rasters with hash(name), so the
        # LAI values (and every answer over them) differ from process to
        # process unless str hashing is pinned.
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))

    started = perf_counter()
    sys.path.insert(0, str(SRC))
    import repro
    if pathlib.Path(repro.__file__).resolve().parents[1] != SRC:
        print(f"imported repro from {repro.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import oracle
    import workloads
    import_s = perf_counter() - started

    workload = workloads.WORKLOADS[args.workload]()
    try:
        if args.mode == "expected":
            answers = {}
            for op in workload.all_ops():
                if op.key not in answers:
                    workload.prepare(op)
                    answers[op.key] = workload.answer(
                        op, workload.execute(op))
            print(json.dumps({"answers": answers}))
            return 0

        runner = Runner(workload, args.seed,
                        oracle.load_expected(workload.name))
        first_op_ms = runner.warm_up()
        setup = {"setup_s": perf_counter() - started, "import_s": import_s,
                 "first_op_ms": first_op_ms}
        out: Dict[str, object] = {
            "workload": workload.name, "seed": args.seed,
            "mode": args.mode, "setup": setup,
            "work_unit": workload.work_unit,
            "stream_digest": workloads.stream_digest(workload, args.seed),
        }
        if args.mode == "measure":
            timed = runner.run_pass(seconds=args.seconds)
            metrics = timed.end_to_end()
            metrics["peak_rss_mb"] = timed.peak_rss_mb
            out.update(metrics=metrics, attempted=timed.ops,
                       failed=timed.failed, rounds=timed.rounds,
                       gen2=timed.gen2, by_kind=timed.by_kind())
        elif args.mode == "trace":
            out.update(trace_metrics(runner, args.seconds, setup))
        out["warmup_mismatches"] = sorted(set(runner.mismatches))
        print(json.dumps(out))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
