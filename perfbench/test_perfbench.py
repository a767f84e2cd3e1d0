"""Checks of the benchmark harness itself.

Run from the root of the repository with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json

import layertrace
import run
from workloads import WORKLOADS, Request

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALLEST = "exceptional"


def _run_main(capsys, monkeypatch, tmp_path, *args):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", SMALLEST, "--seconds", "1", *args]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_two_traced_runs_give_identical_work_counts(capsys, monkeypatch, tmp_path):
    _lines, first = _run_main(capsys, monkeypatch, tmp_path, "--seed", "1", "--trace", "1")
    _lines, second = _run_main(capsys, monkeypatch, tmp_path, "--seed", "2", "--trace", "1")
    counts = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["correct"] and second["correct"]
    # Transfers reach apply_diff through canonical's own binding of the name.
    transfers = first["metrics"]["canonical.transfer.calls"]["value"]
    assert transfers > 0
    assert first["metrics"]["polys.apply_diff.calls"]["value"] >= 2 * transfers
    spans = (tmp_path / f"spans-{SMALLEST}-seed1-trace1.tsv").read_text().splitlines()
    assert spans[0].split("\t")[1:] == list(layertrace.FIELDS)


def test_altered_reference_digest_counts_as_failed_request(capsys, monkeypatch, tmp_path):
    altered = "build:I2(7)"
    load = run.load_references

    def load_altered(requests):
        refs = load(requests)
        refs[altered] = "0" * 64
        return refs

    monkeypatch.setattr(run, "load_references", load_altered)
    lines, result = _run_main(capsys, monkeypatch, tmp_path, "--seed", "3", "--trace", "0")
    passes = result["attempted"] // len(WORKLOADS[SMALLEST])
    assert result["correct"] is False
    assert result["failed"] == passes
    assert f"FAILED {altered}: system digest differs from the reference" in lines


def test_every_end_to_end_metric_prints_with_name_and_unit(capsys, monkeypatch, tmp_path):
    lines, result = _run_main(capsys, monkeypatch, tmp_path, "--seed", "4", "--trace", "0")
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in BENCHMARK["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
        assert any(line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
                   for line in lines[:-1])
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    saved = json.loads((tmp_path / f"result-{SMALLEST}-seed4-trace0.json").read_text())
    assert saved["src_lines"] > 0 and saved["nproc"] >= 1 and saved["python"]


def test_request_over_its_cap_is_a_timeout_not_dropped():
    cli = run.import_canoninv()
    request = Request("build", "B6")
    outcome = run.execute(cli, request, {request.id: "unused"}, cap_s=0.05)
    assert outcome.failure == "timeout"
    assert outcome.seconds < 5


def test_nonzero_exit_is_a_failure_with_its_diagnostic(tmp_path):
    cli = run.import_canoninv()
    _stdout, failure, _seconds = run.call_cli(cli, ["verify", str(tmp_path / "none.json")], 10)
    assert failure.startswith("exit code 2: error:")


def test_tracer_restores_every_binding():
    run.import_canoninv()
    import canoninv.canonical as canonical
    import canoninv.polys as polys

    before = (canonical.apply_diff, polys.apply_diff, polys.Polynomial.__mul__)
    with layertrace.Tracer().install():
        assert canonical.apply_diff is not before[0]
        assert canonical.apply_diff is polys.apply_diff
    assert (canonical.apply_diff, polys.apply_diff, polys.Polynomial.__mul__) == before


def test_benchmark_json_matches_workloads_and_layer_table():
    layers = run.load_layers()
    keys = ("name", "unit", "better")
    assert [{k: m[k] for k in keys} for m in layers] == BENCHMARK["per_layer"]
    assert all(set(m["on"]) <= set(WORKLOADS) for m in layers)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
