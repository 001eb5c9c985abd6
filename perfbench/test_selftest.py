"""Self-tests of the benchmark on a small Burgers matrix.

    python -m pytest perfbench

They run the real CLI, so they take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import aggregate  # noqa: E402
import run as bench  # noqa: E402

SMALL = (2048, 200)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_and_untraced_runs_write_identical_files(name):
    b = bench.Bench(name, 0, 0, SMALL)
    b.dir.mkdir(parents=True)
    try:
        b.generate()
        b.prepare()
        plain = b.rep(b.dir / "plain")
        trace_dir = b.dir / "trace"
        trace_dir.mkdir()
        traced = b.rep(b.dir / "traced", trace_dir)
        assert plain.problems == [] and traced.problems == []
        assert traced.layers["linalg.svd_full_calls"] > 0
        assert bench.same_files(b.dir / "plain", b.dir / "traced")
    finally:
        shutil.rmtree(b.dir, ignore_errors=True)


def test_second_seed_changes_error_but_no_metric_name():
    first, _ = bench.run("stream-serial", 1, 0, 0, SMALL)
    second, _ = bench.run("stream-serial", 2, 0, 0, SMALL)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == list(second["metrics"])
    assert (first["metrics"]["sigma_rel_err"]["value"]
            != second["metrics"]["sigma_rel_err"]["value"])


def _run_script(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_unknown_workload_fails_with_a_clear_message():
    proc = _run_script(HERE.parent, "--workload", "nope", "--seed", "0",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "unknown workload 'nope'" in proc.stderr
    assert "apmos-sim" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = _run_script(tmp_path, "--workload", "apmos-sim", "--seed", "0",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "no parsvd sources" in proc.stderr
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    def span(name, span_id, parent, dur):
        return {"name": name, "cat": name.split(".")[0], "ph": "X", "ts": 0.0,
                "dur": dur, "pid": 0, "tid": 1,
                "args": {"id": span_id, "parent": parent}}

    events = [span("streaming.stream_incorporate", 1, 0, 10_000.0),
              span("linalg.qr_factor", 2, 1, 3_000.0),
              span("linalg.svd_full", 3, 1, 2_000.0),
              span("linalg.as_matrix", 4, 2, 500.0)]
    trace = aggregate.Trace(events)
    assert trace.self_seconds(events[0]) == pytest.approx(0.005)
    assert trace.self_seconds(events[1]) == pytest.approx(0.0025)
    assert aggregate.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert aggregate.percentile([], 90) == 0.0


def test_spec_names_the_workloads_run_py_defines():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
