"""Tiny runs of every workload: metric names and units, span nesting,
and determinism.  Run from the repository root:

    python -m pytest benchmark/tests -q
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import spans
from anomix import features, training
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = {"seed": 0}

# Small corpora and one score call per mode; fit-narrow makes
# 19 patches per ten-second clip, the 64x64 workloads 8.
TINY = {
    "fit-wide": replace(WORKLOADS["fit-wide"], train_clips=8, test_clips=2, score_reps=1),
    "fit-narrow": replace(WORKLOADS["fit-narrow"], train_clips=4, test_clips=2, score_reps=1),
    "detect-wav": replace(WORKLOADS["detect-wav"], train_clips=8, test_clips=2, stereo=1,
                          malformed_each=1, score_reps=1),
}


def tiny_run(tmp_path, name, traced, seed=3):
    return harness.run(TINY[name], seed, 0.01, traced, tmp_path, ENV)


def test_tiny_workloads_cover_every_benchmark_workload():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(tmp_path, name):
    e2e = tiny_run(tmp_path, name, False).metrics
    layers = tiny_run(tmp_path, name, True).metrics
    for metrics, kind in ((e2e, "end_to_end"), (layers, "per_layer")):
        assert {key: unit for key, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(isinstance(value, (int, float)) for value, _ in metrics.values())
    for metric in SPEC["end_to_end"]:
        assert e2e[metric["name"]][0] > 0, metric["name"]


@pytest.mark.parametrize("name", ["fit-narrow", "detect-wav"])
def test_spans_nest_and_self_times_are_nonnegative(tmp_path, name):
    tiny_run(tmp_path, name, True)
    records = json.loads((tmp_path / "traces" / f"{name}-seed3.json").read_text())["spans"]
    assert records
    child_total = [0.0] * len(records)
    for span in records:
        if span["parent"] >= 0:
            parent = records[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            child_total[span["parent"]] += span["end"] - span["start"]
    for span, children in zip(records, child_total):
        assert span["end"] - span["start"] - children >= -1e-9, span["name"]
    timed = {s["name"] for s in records if s["phase"] == "timed"}
    assert ("training.train_step" in timed) == (name != "detect-wav")


def test_tracer_restores_the_program_functions():
    step, norm, apply = training.train_step, training.compute_norm_stats, features.NormStats.apply
    with spans.Tracer().installed():
        assert training.train_step is not step
        assert training.compute_norm_stats is features.compute_norm_stats is not norm
        assert features.NormStats.apply is not apply
    assert training.train_step is step
    assert training.compute_norm_stats is features.compute_norm_stats is norm
    assert features.NormStats.apply is apply


def test_same_seed_gives_identical_aucs_and_node_counts(tmp_path):
    runs = [tiny_run(tmp_path, "fit-narrow", False).metrics for _ in range(2)]
    for key in ("auc_latent", "auc_energy"):
        assert runs[0][key] == runs[1][key]
    traced = [tiny_run(tmp_path, "fit-narrow", True).metrics for _ in range(2)]
    for key in ("autodiff.nodes_per_step", "autodiff.nodes_per_score_call.latent",
                "autodiff.nodes_per_score_call.energy"):
        assert traced[0][key] == traced[1][key]
