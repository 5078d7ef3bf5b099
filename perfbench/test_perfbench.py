"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Counts and outputs must repeat exactly for a seed, tracing must leave
epsstream unpatched, a call's time must be scaled by the host probes
nearest it, metric names and units must match BENCHMARK.json, and the
runner must refuse to run without sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from epsstream import sampler  # noqa: E402


def _traced_counts(name: str, seed: int) -> dict:
    wl = workloads.generate(name, seed)
    tracer = tracing.Tracer()
    with tracer:
        res = workloads.run_pass(wl)
    metrics = tracer.metrics(1, 1.0)
    counts = {k: metrics[k]["value"] for k in tracing.DETERMINISTIC}
    counts["stored_points"] = sum(sr.stored for sr in res.streams)
    counts["snapshot_points"] = sum(len(sr.snapshots[-1].sample) for sr in res.streams)
    counts["digest"] = res.digest
    return counts


def _targets() -> dict:
    return {(id(owner), attr): getattr(owner, attr, None) for owner, attr, _ in tracing.TARGETS}


def test_counts_and_outputs_repeat_for_a_seed():
    first = _traced_counts("halfplane-wide", 3)
    assert first == _traced_counts("halfplane-wide", 3)
    # the wide workload takes the measurement fallback and collapses repeats
    assert first["rangesums.halfplane_fallback_calls"] > 0
    assert first["sampler.collapse_saved_points"] > 0
    assert 0 <= first["sampler.halve_accepted"] <= first["sampler.halve_calls"]
    assert 0 < first["sampler.snapshot_halve_accepted"] <= first["sampler.snapshot_halve_calls"]


def test_tracing_restores_every_target():
    before = _targets()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert all(getattr(owner, attr).__wrapped__ is before[(id(owner), attr)]
                       for owner, attr, _ in tracing.TARGETS)
            raise RuntimeError("leave the traced block early")
    assert _targets() == before


def test_missing_target_is_absent_not_zero(monkeypatch):
    monkeypatch.delattr(sampler, "_guidance_masks")
    tracer = tracing.Tracer()
    with tracer:
        pass
    metrics = tracer.metrics(1, 1.0)
    assert "sampler.guidance_s" not in metrics
    assert metrics["sampler.coloring_s"]["value"] == 0


def test_fallback_taken_inside_fast_sweep_counts_as_fallback_only():
    tracer = tracing.Tracer()
    tracer.spans = [["rangesums.halfplane_fast", 0.0, 3.0, None, ""],
                    ["rangesums.halfplane_fallback", 1.0, 3.0, 0, ""]]
    metrics = {k: v["value"] for k, v in tracer.metrics(1, 1.0).items()}
    assert metrics["rangesums.halfplane_fast_calls"] == 0
    assert metrics["rangesums.halfplane_fast_s"] == 1.0
    assert metrics["rangesums.halfplane_fallback_calls"] == 1
    assert metrics["rangesums.halfplane_fallback_s"] == 2.0


def test_calls_are_scaled_by_the_probes_nearest_them():
    speed = hostspeed.HostSpeed()
    speed.mids = [float(t) for t in range(20)]
    speed.times = [hostspeed.REF_S] * 10 + [2 * hostspeed.REF_S] * 10
    assert speed.normalise(2.0, 1.0) == 1.0
    # the host ran at half speed around t = 15.5: the call counts for half its time
    assert speed.normalise(15.0, 1.0) == 0.5
    # a probe that ran inside a call is not the call's time
    speed.starts, speed.ends = [15.2], [15.4]
    assert speed.busy(15.0, 1.0) == pytest.approx(0.8)


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "families-stats",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
