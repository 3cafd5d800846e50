"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They take about two minutes: every workload runs at least its prefix
(the ops that define the simulated metrics), which for serve_overload
is one 12 s virtual session.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _prefix_run(name, seed, out_dir):
    out_dir.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](seed, out_dir)
    try:
        wl.setup()
        return run.timed_phase(wl, seconds=0.01)
    finally:
        wl.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_simulated_metrics_and_digest(name, tmp_path):
    first = _prefix_run(name, 7, tmp_path / "a")
    second = _prefix_run(name, 7, tmp_path / "b")
    assert first["failed"] == 0 and second["failed"] == 0
    assert first["outcomes"] == second["outcomes"]
    assert first["outcomes"]
    assert first["digest"] == second["digest"]
    # The run went on until the fixed tail percentile had its samples.
    tail_pct = workloads.WORKLOADS[name].tail_pct
    assert len(first["samples"]) * (1 - tail_pct / 100) >= 10
    # The host's speed was sampled, and inside serve's long sessions too.
    assert first["scale"] > 0
    if name == "serve_overload":
        assert first["speed_samples"] > first["calls"] + 1


def test_reference_kernel_is_fixed_work_and_never_stops_serve():
    assert reference.kernel() == reference.kernel()
    speed = reference.HostSpeed(every_s=0.0)
    assert speed.poll() is False and speed.poll() is False
    assert len(speed.samples_ms) == 2 and speed.spent_s > 0
    assert speed.scale == pytest.approx(
        reference.REFERENCE_MS / (sum(speed.samples_ms) / 2))
    # An op is scaled by the samples within a second of it, or else by
    # the nearest one.
    speed.times, speed.samples_ms = [0.0, 1.0, 5.0], [7.0, 14.0, 3.5]
    ref = reference.REFERENCE_MS
    assert speed.scale_at(0.5) == pytest.approx(ref / 10.5)
    assert speed.scale_at(3.2) == pytest.approx(ref / 3.5)
    assert speed.scale_at(-9.0) == pytest.approx(ref / 7.0)


def _run_cli(seed, workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_runs_clean_and_prints_every_metric(name):
    proc = _run_cli(2, name, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = _run_cli(3, "fig10_sweep", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["attributed_share"]["value"] >= 0.9


def test_tracer_restores_every_boundary():
    t = tracer.Tracer().install()
    assert not t.missing
    t.remove()
    for b in tracer.BOUNDARIES:
        owner = __import__(b.module, fromlist=["_"])
        for part in b.attr.split("."):
            owner = getattr(owner, part)
        assert not hasattr(owner, "__wrapped__"), b.name


def test_trace_replay_never_reuses_a_stream_object(tmp_path, monkeypatch):
    wl = workloads.TraceReplay(5, tmp_path)
    try:
        wl.setup()
        loaded = []
        original = workloads.traces.load_stream

        def keep(path):
            stream = original(path)
            assert not stream._cache  # nothing memoised before the decode
            loaded.append(stream)  # held, so ids stay unique
            return stream

        monkeypatch.setattr(workloads.traces, "load_stream", keep)
        for index in range(2 * len(wl.paths)):
            assert wl.check(index, wl.op(index)) == 0
    finally:
        wl.close()
    assert len({id(s) for s in loaded}) == len(loaded) == 2 * len(wl.paths)


def test_trace_replay_fails_a_reader_that_finds_no_frame(tmp_path):
    wl = workloads.TraceReplay(5, tmp_path)
    try:
        wl.setup()

        def no_frame(*args, **kwargs):
            raise workloads.PreambleNotFound("no preamble")

        wl.decoder.decode_bits = no_frame
        wl.reset()
        for index in range(wl.prefix_ops):
            assert wl.check(index, wl.op(index)) == 0
    finally:
        wl.close()
    assert wl.outcomes()["frame_miss_rate"] == 1.0
    assert wl.finish() == wl.prefix_ops


def test_serve_fails_a_session_that_delivers_nothing(tmp_path):
    wl = workloads.ServeOverload(5, tmp_path)
    report = SimpleNamespace(arrivals=300, accounted=300, delivered=0,
                             decode_failed=300, error_bits=0,
                             delivered_bits=0)
    assert wl.check(0, SimpleNamespace(report=report)) == 300


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_cli(1, "fig10_sweep", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
