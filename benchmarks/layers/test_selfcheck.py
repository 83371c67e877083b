"""Self-checks of the layers benchmark.

    PYTHONPATH=src python -m pytest benchmarks/layers -q

Tier-1 collects ``tests/`` only, so these run on request. Importing
this module is cheap (standard library only): the existing CI jobs
collect all of ``benchmarks/``. The sibling modules import by bare name:
pytest puts this directory (it has no ``__init__.py``) on ``sys.path``.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: metrics that are counts made by the program: they repeat exactly
EXACT = ("sparql.rows_examined_per_row_out", "sparql.rows_out_per_op",
         "opendap.server_calls_per_op", "opendap.bytes_per_op",
         "strabon.candidates_per_op", "strabon.candidate_yield",
         "service.plancache_hit_rate", "madis.vt_cache_hit_rate")


def run_py(*args, check=True):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600)
    if check:
        assert proc.returncode == 0, proc.stderr + proc.stdout
    return proc


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two quick traced runs of all five workloads, same seed."""
    out = []
    for i in range(2):
        path = tmp_path_factory.mktemp("layers") / f"quick{i}.json"
        run_py("--quick", "--traced", "--seed", "5", "--out", str(path))
        out.append(json.loads(path.read_text(encoding="utf-8")))
    return out


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/layers"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]] \
        + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_quick_run_emits_every_declared_metric_and_nothing_else(quick_runs):
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    blocks = quick_runs[0]["runs"][0]["workloads"]
    assert set(blocks) == {w["name"] for w in SPEC["workloads"]}
    for workload, block in blocks.items():
        assert block["correct"] and block["failed"] == 0, workload
        got = {n: m["unit"] for n, m in block["end_to_end"].items()}
        assert got == dict(end_to_end, failed_share="ratio"), workload
        got = {n: m["unit"] for n, m in block["per_layer"].items()}
        assert got == per_layer, workload
        for metric in block["end_to_end"].values():
            assert isinstance(metric["value"], (int, float))
        assert block["end_to_end"]["failed_share"]["value"] == 0


def test_every_layer_metric_is_exercised_by_some_workload(quick_runs):
    blocks = quick_runs[0]["runs"][0]["workloads"]
    never = {m["name"] for m in SPEC["per_layer"]}
    for block in blocks.values():
        never -= {n for n, m in block["per_layer"].items() if m["value"]}
    # zero at this commit by design: nothing is shed, nothing re-planned
    # (feedback is off by default), drift may round to exactly 0
    assert never <= {"governance.shed_count", "sparql.replans",
                     "calibration.drift", "process.gc_gen2_collections"}


def test_trace_sums_to_the_root(quick_runs):
    for run in quick_runs:
        for workload, block in run["runs"][0]["workloads"].items():
            layers = block["per_layer"]
            assert layers["trace.residual_share"]["value"] <= 0.01, workload
            assert layers["trace.overhead_ratio"]["value"] > 0
            shares = sum(m["value"] for n, m in layers.items()
                         if n.startswith("share."))
            assert abs(shares - 1.0) < 1e-9, workload


def test_exact_count_metrics_repeat_exactly(quick_runs):
    first, second = (run["runs"][0]["workloads"] for run in quick_runs)
    for workload in first:
        assert first[workload]["stream_digest"] \
            == second[workload]["stream_digest"]
        for name in EXACT:
            assert first[workload]["per_layer"][name]["value"] \
                == second[workload]["per_layer"][name]["value"], \
                (workload, name)


def test_stream_digest_follows_the_seed():
    def digest(seed):
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload",
             "virtual_opendap", "--seed", str(seed), "--mode", "setup"],
            capture_output=True, text=True, cwd=str(ROOT), timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])["stream_digest"]

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def test_driver_form_prints_one_result_object_last():
    proc = run_py("--workload", "virtual_opendap", "--seed", "3",
                  "--seconds", "1", "--trace", "0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["value"] > 0, name


def test_wrong_answer_is_counted_and_fails_the_command(tmp_path):
    """A corrupted expected digest must surface as failed ops."""
    expected = HERE / "expected" / "geo_join.json"
    original = expected.read_text(encoding="utf-8")
    answers = json.loads(original)
    answers["SJ2"]["sha256"] = "0" * 64
    try:
        expected.write_text(json.dumps(answers), encoding="utf-8")
        proc = run_py("--workload", "geo_join", "--quick", "--out",
                      str(tmp_path / "r.json"), check=False)
    finally:
        expected.write_text(original, encoding="utf-8")
    assert proc.returncode == 1
    block = json.loads((tmp_path / "r.json").read_text())[
        "runs"][0]["workloads"]["geo_join"]
    assert block["failed"] == 2 and not block["correct"]  # SJ2 x2 a round
    assert block["end_to_end"]["failed_share"]["value"] > 0


def test_boundary_wrappers_are_fully_restored():
    from collections import Counter

    import boundaries
    from repro.service import ServiceAPI
    from repro.sparql import evaluator, functions, prepared
    from repro.strabon import StrabonStore
    from spans import Recorder

    before = {
        "handle": ServiceAPI.__dict__["handle"],
        "load": StrabonStore.__dict__["load"],
        "eval_query": evaluator.eval_query,
        "parse_query": prepared.parse_query,
        "extensions": dict(functions.EXTENSION_FUNCTIONS),
    }
    recorder = Recorder()
    boundaries.install(recorder, Counter())
    assert ServiceAPI.__dict__["handle"] is not before["handle"]
    assert prepared.parse_query is not before["parse_query"]
    assert functions.EXTENSION_FUNCTIONS != before["extensions"]
    recorder.restore()
    assert ServiceAPI.__dict__["handle"] is before["handle"]
    assert StrabonStore.__dict__["load"] is before["load"]
    assert evaluator.eval_query is before["eval_query"]
    assert prepared.parse_query is before["parse_query"]
    for iri, fn in before["extensions"].items():
        assert functions.EXTENSION_FUNCTIONS[iri] is fn


def test_spans_time_generators_per_resume_and_fold_leaves():
    from spans import BUSY, CALLS, NAME, Recorder

    ticks = iter(range(1000))
    recorder = Recorder(clock=lambda: float(next(ticks)))

    def produce():
        yield 1
        yield 2

    leaf = recorder.wrap("leaf", lambda: None, leaf=True)
    gen = recorder.wrap("gen", produce)
    with recorder.root(0, "root"):
        stream = gen()          # creation: no work yet
        next(ticks)             # consumer time: must not count as gen's
        items = list(stream)
        leaf()
        leaf()
    assert items == [1, 2]
    totals = recorder.totals()
    # creation + two yielding resumes + the exhausting one
    assert totals["gen"]["calls"] == 4
    folded = [s for s in recorder.spans if s[NAME] == "leaf"]
    assert len(folded) == 1 and folded[0][CALLS] == 2
    root = recorder.spans[0]
    assert sum(recorder.self_times()) == pytest.approx(root[BUSY])


def test_oracle_canonical_rows():
    import oracle

    xsd_float = "http://www.w3.org/2001/XMLSchema#float"
    a = {"v": {"type": "literal", "value": "1.5557107925",
               "datatype": xsd_float}}
    b = {"v": {"type": "literal", "value": "1.55571079250001",
               "datatype": xsd_float}}
    c = {"v": {"type": "uri", "value": "http://x/1"}}
    assert oracle.answer([a, c], ordered=False) \
        == oracle.answer([c, b], ordered=False)
    assert oracle.answer([a, c], ordered=True) \
        != oracle.answer([c, a], ordered=True)


def test_compare_reports_ok_regressed_and_unresolved(tmp_path):
    def result(p50_values):
        return {"runs": [{"workloads": {"geo_join": {"end_to_end": {
            "latency_p50_ms": {"value": v, "unit": "ms"}}}}}
            for v in p50_values]}

    def compare(a, b):
        for name, data in (("a.json", a), ("b.json", b)):
            (tmp_path / name).write_text(json.dumps(data))
        return subprocess.run(
            [sys.executable, str(HERE / "compare.py"),
             str(tmp_path / "a.json"), str(tmp_path / "b.json")],
            capture_output=True, text=True)

    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    ok = compare(result(steady), result([101.0] * 5))
    assert ok.returncode == 0 and " ok " in ok.stdout
    worse = compare(result(steady), result([150.0] * 5))
    assert worse.returncode == 1 and "regressed" in worse.stdout
    assert "base 100" in worse.stdout
    noisy = compare(result([60.0, 100.0, 140.0, 80.0, 120.0]),
                    result([150.0] * 5))
    assert noisy.returncode == 0 and "unresolved" in noisy.stdout


def test_no_module_here_is_collected_as_a_benchmark():
    assert not list(HERE.glob("bench_*.py"))
