"""Self-checks of the benchmark's tracer, workloads and entry point.

    python3 -m pytest -q perfbench

Each workload runs scaled down (three episodes per phase, two fo-MAML
epochs) in this process.  The span counts must equal what the workload's
shape implies, so a wrap on a name no caller looks up reads as a wrong
count, never as zero cost; and every patched attribute must be the original
object again afterwards.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from run import END_TO_END_UNITS, TRACE_METRICS, scaled_times, unit_of  # noqa: E402
from tracer import METRIC_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

worker.import_fewbench()

from fewbench import api, fomaml, heads, pipeline, rng, sampler  # noqa: E402

EPISODES = 3
EPOCHS = 2
SEEDS = 3          # phase seeds per phase
META_BATCH = 32    # fomaml default
PTMAP_ITERS = 20   # ptmap default n_iters


def scaled(name: str):
    w = WORKLOADS[name]
    extra = tuple((k, str(EPOCHS)) if k == "method.fomaml.epochs" else (k, v)
                  for k, v in w.extra)
    return dataclasses.replace(w, phases=tuple((m, EPISODES) for m in w.methods),
                               extra=extra)


def run(name: str, workdir: Path, traced: bool) -> dict:
    workdir.mkdir()
    return worker.run_round(scaled(name), 7, str(workdir), traced, time.perf_counter())


COMMON_SPANS = {
    "pipeline.run_phase", "pipeline.load_split", "pipeline.run_ingestion",
    "pipeline.run_scoring", "api.meta_fit", "api.save_learner", "api.load_learner",
    "evaluation.evaluate_learner", "api.fit", "api.predict",
    "dataset.generate_synthetic", "dataset.split_classes", "sampler.sample_episode",
    "rng.generator",
}
CSV_SPANS = {"dataset.write_feature_dataset", "dataset.load_feature_dataset",
             "dataset.parse_feature_dataset"}
METHOD_SPANS = {
    "proto": {"heads.compute_prototypes", "heads.proto_labels"},
    "qda": {"heads.qda_fit", "heads.qda_predict"},
    "rect": {"heads.rectified_proto_predict", "heads.compute_prototypes"},
    "ptmap": {"heads.ptmap_fit_predict", "heads.power_transform", "heads.sinkhorn"},
    "linear": {"heads.linear_head_fit", "heads.linear_head_predict"},
    "fomaml": {"fomaml.meta_train", "fomaml.inner_adapt"},
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_span_counts_match_the_workload(name, tmp_path):
    w = scaled(name)
    originals = [pipeline.run_phase, pipeline.meta_fit, sampler.sample_episode,
                 heads.sinkhorn, fomaml.inner_adapt, api.LearnerState.__dict__["fit"],
                 rng.RngState.__dict__["generator"]]

    with Tracer() as tracer:
        traced = run(name, tmp_path / "traced", traced=False)
    assert tracer.leftover_patches() == []
    assert [pipeline.run_phase, pipeline.meta_fit, sampler.sample_episode,
            heads.sinkhorn, fomaml.inner_adapt, api.LearnerState.__dict__["fit"],
            rng.RngState.__dict__["generator"]] == originals
    plain = run(name, tmp_path / "plain", traced=False)
    assert traced["problems"] == [] and plain["problems"] == []
    assert traced["hashes"] == plain["hashes"], "tracing changed an output"
    assert list(plain["method_s"]) == list(w.methods)
    assert len(plain["calibration_s"]) == len(w.phases) + 1

    expected = COMMON_SPANS | (CSV_SPANS if w.csv else set())
    for method in w.methods:
        expected |= METHOD_SPANS[method]
    assert {span[0] for span in tracer.spans} == expected

    layers = tracer.layer_metrics()
    n = {m: SEEDS * EPISODES if m in w.methods else 0 for m in METHOD_SPANS}
    evaluated = sum(n.values())
    trained = SEEDS * EPOCHS * META_BATCH if n["fomaml"] else 0
    assert layers["evaluation.episodes"] == evaluated
    assert layers["api.fit_calls"] == layers["api.predict_calls"] == evaluated
    assert layers["sampler.episodes"] == evaluated + trained
    assert layers["heads.sinkhorn_calls"] == PTMAP_ITERS * n["ptmap"]
    assert layers["heads.ptmap_calls"] == n["ptmap"]
    assert layers["heads.qda_fit_calls"] == layers["heads.qda_predict_calls"] == n["qda"]
    assert layers["heads.rect_calls"] == n["rect"]
    assert layers["heads.proto_calls"] == n["proto"]
    assert layers["heads.linear_fit_calls"] == n["linear"]
    assert layers["fomaml.inner_adapt_calls"] == trained + n["fomaml"]
    assert layers["dataset.rows"] == (
        len(w.phases) * w.num_classes * w.samples_per_class if w.csv else 0)
    queries = 5 * (w.samples_per_class - w.k_shot)
    assert layers["sampler.query_rows"] == (evaluated + trained) * queries
    assert layers["heads.sinkhorn_cells"] == layers["heads.sinkhorn_iters"] * queries * 5
    assert layers["heads.sinkhorn_iters"] >= layers["heads.sinkhorn_calls"]
    assert layers["api.artifact_bytes"] > 0
    for method, episodes in n.items():
        assert (layers[f"pipeline.phase_s.{method}"] > 0) == (episodes > 0)


def test_traced_counts_repeat_exactly(tmp_path):
    """The worker's own traced path, twice."""
    first = run("small", tmp_path / "first", traced=True)
    second = run("small", tmp_path / "second", traced=True)
    for key in ("heads.sinkhorn_iters", "heads.sinkhorn_cells", "sampler.episodes",
                "fomaml.inner_adapt_calls", "rng.generator_calls"):
        assert first["layers"][key] == second["layers"][key]
    assert first["hashes"] == second["hashes"]


def test_scaling_removes_machine_speed():
    """A phase that ran at half speed, with the loops around it at half
    speed too, reads the same as at full speed."""
    fast = {"setup_s": 0.5, "method_s": {"proto": 1.0, "qda": 2.0},
            "calibration_s": [REFERENCE_S] * 3}
    slow = {"setup_s": 1.0, "method_s": {"proto": 2.0, "qda": 4.0},
            "calibration_s": [2 * REFERENCE_S] * 3}
    assert scaled_times(fast) == pytest.approx((0.5, 3.0))
    assert scaled_times(slow) == pytest.approx((0.5, 3.0))
    # each phase is scaled by the loops on either side of it
    slow["calibration_s"] = [2 * REFERENCE_S, REFERENCE_S, 3 * REFERENCE_S]
    assert scaled_times(slow)[1] == pytest.approx(2.0 / 1.5 + 4.0 / 2.0)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    names = list(METRIC_NAMES) + list(TRACE_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, unit_of(n)) for n in names]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
