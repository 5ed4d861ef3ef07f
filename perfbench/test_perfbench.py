"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))
from reference import check_output, load_oracle, planted_errors  # noqa: E402  (needs noai on the path)
from workloads import WORKLOADS as DEFINED  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _small(name):
    workload = DEFINED[name]
    return dataclasses.replace(workload, records=workload.records // 20)


def test_benchmark_json_matches_the_metrics_printed():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert WORKLOADS == list(DEFINED)
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "dirty-validate",
         "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and set(result["metrics"]) == set(run.END_TO_END)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_metric_with_its_unit(workload, trace, tmp_path):
    args = types.SimpleNamespace(seed=3, seconds=0.2, trace=trace)
    result = run.measure(args, _small(workload), tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_output_is_counted_as_failed(monkeypatch, tmp_path):
    real = run.run_child

    def corrupting(argv, cwd, env):
        child = real(argv, cwd, env)
        out = Path(cwd) / "out.json"
        if out.exists():
            rows = json.loads(out.read_text())
            rows["rows"][0]["oa_share"] *= 1 + 1e-6
            out.write_text(json.dumps(rows))
        return child

    monkeypatch.setattr(run, "run_child", corrupting)
    args = types.SimpleNamespace(seed=4, seconds=0.1, trace=0)
    result = run.measure(args, _small("countries-indicators"), tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - run.SETUP_REPS > 0


def test_clock_scales_by_the_calibrations_around_an_operation(monkeypatch):
    calibrations = iter([0.2, 0.2, 0.05])
    monkeypatch.setattr(run, "calibrate", lambda *inputs: next(calibrations))
    clock = run.Clock()
    assert clock.scale(1.0) == pytest.approx(run.CAL_REF_S / 0.2)
    assert clock.scale(1.0) == pytest.approx(run.CAL_REF_S / 0.125)


def test_check_output_rejects_each_kind_of_corruption():
    oracle = load_oracle(run.ORACLE)
    ref = {"stats": {"records_read": 2}, "rows": {"A": {"x_total": 1.5, "n_oa_whole": 1}},
           "diagnostics": [{"record_id": "u1", "unknown_categories": ["Alchemy"]}]}
    manifest = json.dumps({"corpus_stats": ref["stats"]}).encode()
    table = {"rows": [{"actor": "A", "x_total": 1.5, "n_oa_whole": 1}]}
    indicators = DEFINED["countries-indicators"]
    assert check_output(indicators, json.dumps(table).encode(), manifest, ref, oracle) == []
    for bad in ({"rows": [{"actor": "A", "x_total": 1.5 + 1e-6, "n_oa_whole": 1}]},
                {"rows": [{"actor": "A", "x_total": 1.5, "n_oa_whole": 2}]},
                {"rows": [{"actor": "B", "x_total": 1.5, "n_oa_whole": 1}]},
                {"rows": []}):
        assert check_output(indicators, json.dumps(bad).encode(), manifest, ref, oracle)
    assert check_output(indicators, b"{", manifest, ref, oracle)
    wrong_stats = json.dumps({"corpus_stats": {"records_read": 3}}).encode()
    assert check_output(indicators, json.dumps(table).encode(), wrong_stats, ref, oracle)
    validate = DEFINED["dirty-validate"]
    good = {"diagnostics": ref["diagnostics"]}
    assert check_output(validate, json.dumps(good).encode(), manifest, ref, oracle) == []
    assert check_output(validate, b'{"diagnostics": []}', manifest, ref, oracle)


def test_reference_must_reject_what_was_planted():
    planted = {"truncated": 2, "wrong_type": 1, "empty_categories": 1,
               "unknown_category": 1, "duplicate_id": 0}
    reasons = {"malformed": 3, "empty_categories": 1, "year_filtered": 9}
    series = {"stats": {"rejection_reasons": {**reasons, "unknown_category": 1}}}
    validate = {"stats": {"rejection_reasons": reasons},
                "diagnostics": [{"record_id": "u1", "unknown_categories": ["Alchemy"]}]}
    assert planted_errors(DEFINED["dirty-series"], series, planted, ["u1"]) == []
    assert planted_errors(DEFINED["dirty-validate"], validate, planted, ["u1"]) == []
    assert planted_errors(DEFINED["dirty-validate"], validate, planted, ["u2"])
    for reason in ("malformed", "empty_categories", "unknown_category"):
        series["stats"]["rejection_reasons"][reason] += 1
        assert planted_errors(DEFINED["dirty-series"], series, planted, ["u1"])
        series["stats"]["rejection_reasons"][reason] -= 1
    series["stats"]["rejection_reasons"]["duplicate_id"] = 1
    assert planted_errors(DEFINED["dirty-series"], series, planted, ["u1"])


def test_missing_layer_names_are_reported_and_the_rest_traced():
    calls = []

    def load_registry(path):
        calls.append(path)
        return "registry"

    cli = types.ModuleType("fake_cli")
    cli.load_registry = load_registry
    tracer = tracing.Tracer()
    missing = tracer.install(cli)
    assert "Aggregator" in missing and "CorpusReader" in missing
    assert "load_registry" not in missing
    assert cli.load_registry("r.csv") == "registry" and calls == ["r.csv"]
    assert [s[0] for s in tracer.spans] == ["ingest.load_registry"]


def test_self_time_subtracts_nested_spans():
    spans = [["cli.main", 0.0, 10.0, None], ["engine.add_all", 1.0, 7.0, 0],
             ["ingest.read", 1.0, 3.0, 1], ["ingest.read", 4.0, 5.0, 1]]
    total, own = tracing.layer_times(spans)
    assert total["ingest.read"] == 3.0
    assert own["engine.add_all"] == 3.0
    assert own["cli.main"] == 4.0
