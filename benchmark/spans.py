"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.installed()`` replaces anomix's public functions with timing
wrappers at module-attribute level: in the defining module, in every
anomix module that imported the name, and on ``NormStats.apply``.
Callers inside anomix look these names up in module globals at call
time, so ``training.train_step`` -> ``autodiff.backward`` ->
``training.adam_update`` nest as spans without any change to the
program.  Spans (name, start, end, parent, phase) stay in memory and are
written out when the run ends.

A span's self time is its duration minus the durations of its child
spans (calls are single-threaded, so children never overlap).
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from anomix import autodiff, evaluation, features, losses, mixture, networks, training

# (module, attribute) of every traced function; config, errors and
# verify do no timed work.
TRACED = (
    (training, "fit"), (training, "train_step"), (training, "adam_update"),
    (training, "clip_global_norm"), (training, "full_dataset_mixture"),
    (autodiff, "backward"),
    (networks, "encode"), (networks, "decode"), (networks, "encode_aux"),
    (networks, "discriminate"), (networks, "membership"),
    (networks, "save_checkpoint"), (networks, "load_checkpoint"),
    (mixture, "estimate_gmm"), (mixture, "estimation_loss"), (mixture, "energy_batch"),
    (losses, "image_reconstruction_loss"), (losses, "latent_representation_loss"),
    (losses, "adversarial_losses"), (losses, "total_generator_loss"),
    (features, "decode_wav"), (features, "stft_magnitude"), (features, "mel_project"),
    (features, "mel_filterbank"), (features, "log_compress_and_frame"),
    (features, "compute_norm_stats"),
    (evaluation, "score_patchset"), (evaluation, "score_design"), (evaluation, "auc"),
)
LOSS_SPANS = (
    "losses.image_reconstruction_loss", "losses.latent_representation_loss",
    "losses.adversarial_losses", "losses.total_generator_loss",
)


def next_node_id() -> int:
    """The id the next graph node will get (creating the probe uses one)."""
    return autodiff.Tensor(0.0).node_id + 1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                 # index of the enclosing span, -1 for a root
    phase: str                  # "setup", "timed" or "check"
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = ""
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            info = {}
            if name == "evaluation.score_design":
                mode = kwargs.get("mode", args[2] if len(args) > 2 else "latent")
                span_name = f"{name}.{mode}"
            if name in ("training.train_step", "evaluation.score_design"):
                info["first_node"] = next_node_id()
            if name == "features.NormStats.apply":
                info["patches"] = int(np.prod(np.shape(args[1])[:-2], dtype=np.int64))
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            span = Span(span_name, time.perf_counter(), 0.0, parent, tracer.phase, info)
            tracer.spans.append(span)
            tracer._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
                if "first_node" in info:
                    # the probe in next_node_id itself takes one id
                    info["nodes"] = next_node_id() - info.pop("first_node") - 1
                if name == "networks.save_checkpoint":
                    info["bytes"] = os.path.getsize(args[0])

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every traced name through a span-recording wrapper."""
        replacements = {}
        for module, attr in TRACED:
            fn = getattr(module, attr)
            replacements[id(fn)] = (fn, self._wrap(f"{module.__name__.split('.')[-1]}.{attr}", fn))
        restore = []
        for module in [m for n, m in sys.modules.items() if n == "anomix" or n.startswith("anomix.")]:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    restore.append((module, attr, value))
                    setattr(module, attr, replacements[id(value)][1])
        apply = features.NormStats.apply
        features.NormStats.apply = self._wrap("features.NormStats.apply", apply)
        restore.append((features.NormStats, "apply", apply))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def _ancestor(spans: list[Span], index: int, prefix: str) -> int:
    parent = spans[index].parent
    while parent >= 0 and not spans[parent].name.startswith(prefix):
        parent = spans[parent].parent
    return parent


def layer_metrics(spans: list[Span], steps_per_round: float, param_bytes: int) -> dict:
    """Every per-layer metric, as {name: (value, unit)}.

    ``.ms`` values are self times in milliseconds, per train step for
    work inside ``train_step`` (``train_ms`` too), per call otherwise, and
    per scoring call for ``score_ms``.  The output checks make calls of
    other sizes, so their spans are left out, except for
    ``load_checkpoint``: the fit workloads call it only in the checks.
    """
    own = self_times(spans)
    step_of = [_ancestor(spans, i, "training.train_step") for i in range(len(spans))]
    score_of = [_ancestor(spans, i, "evaluation.score_design") for i in range(len(spans))]
    steps = [i for i, s in enumerate(spans) if s.name == "training.train_step"]
    n_steps = len(steps)

    def ms(seconds: float) -> float:
        return 1e3 * seconds

    def per_step(*names: str) -> float:
        return ms(sum(own[i] for i, s in enumerate(spans) if s.name in names and step_of[i] >= 0)) / n_steps

    def calls(name: str, checks: bool = False) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == name and (checks or s.phase != "check")]

    def per_call(name: str, where=None, checks: bool = False) -> float:
        picked = [own[i] for i in calls(name, checks) if where is None or where(i)]
        return ms(sum(picked)) / len(picked)

    def in_scoring(i: int) -> bool:
        return score_of[i] >= 0

    backward = {"disc": 0.0, "gen": 0.0}
    for step in steps:
        passes = [i for i in calls("autodiff.backward") if step_of[i] == step]
        if len(passes) == 2:
            backward["disc"] += own[passes[0]]
        backward["gen"] += own[passes[-1]]

    step_ms = [ms(spans[i].duration) for i in steps]
    mean_step = statistics.fmean(step_ms)
    clips = len(calls("features.mel_project"))
    filterbank = [own[i] for i in calls("features.mel_filterbank")]
    applies = calls("features.NormStats.apply")
    patches = sum(spans[i].info["patches"] for i in applies)
    saves = [s for s in spans if s.name == "networks.save_checkpoint"]
    mixture_ms = per_step("mixture.estimate_gmm", "mixture.estimation_loss", "mixture.energy_batch")
    optimizer_ms = per_step("training.adam_update", "training.clip_global_norm", "autodiff.backward")

    m = {
        "training.train_step.ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
        "training.train_step.ms_p90": (float(np.percentile(step_ms, 90)), "ms"),
        "training.train_step.self_ms": (ms(sum(own[i] for i in steps)) / n_steps, "ms"),
        "training.train_step.calls_per_round": (steps_per_round, "count"),
        "training.train_step.share.optimizer": (optimizer_ms / mean_step, "1"),
        "training.train_step.share.mixture": (mixture_ms / mean_step, "1"),
        "training.adam_update.ms": (per_step("training.adam_update"), "ms"),
        "training.clip_global_norm.ms": (per_step("training.clip_global_norm"), "ms"),
        "training.full_dataset_mixture.ms": (per_call("training.full_dataset_mixture"), "ms"),
        "training.fit_overhead.ms": (per_call("training.fit"), "ms"),
        "autodiff.backward.disc.ms": (ms(backward["disc"]) / n_steps, "ms"),
        "autodiff.backward.gen.ms": (ms(backward["gen"]) / n_steps, "ms"),
        "autodiff.nodes_per_step": (spans[steps[0]].info["nodes"], "count"),
    }
    for mode in ("latent", "energy"):
        first = calls(f"evaluation.score_design.{mode}")[0]
        m[f"autodiff.nodes_per_score_call.{mode}"] = (spans[first].info["nodes"], "count")
    for net in ("encode", "decode", "encode_aux", "discriminate", "membership"):
        m[f"networks.{net}.train_ms"] = (per_step(f"networks.{net}"), "ms")
    for net in ("encode", "decode", "encode_aux"):
        m[f"networks.{net}.score_ms"] = (per_call(f"networks.{net}", in_scoring), "ms")
    m.update({
        "networks.save_checkpoint.ms": (per_call("networks.save_checkpoint"), "ms"),
        "networks.save_checkpoint.bytes": (saves[-1].info["bytes"], "bytes"),
        "networks.load_checkpoint.ms": (per_call("networks.load_checkpoint", checks=True), "ms"),
        "networks.param_bytes": (param_bytes, "bytes"),
        "mixture.estimate_gmm.ms": (per_step("mixture.estimate_gmm"), "ms"),
        "mixture.estimation_loss.ms": (per_step("mixture.estimation_loss"), "ms"),
        "mixture.energy_batch.train_ms": (per_step("mixture.energy_batch"), "ms"),
        "mixture.energy_batch.score_ms": (per_call("mixture.energy_batch", in_scoring), "ms"),
        "losses.ms": (per_step(*LOSS_SPANS), "ms"),
        "features.decode_wav.ms": (per_call("features.decode_wav"), "ms"),
        "features.stft_magnitude.ms": (per_call("features.stft_magnitude"), "ms"),
        "features.mel_project.ms": (per_call("features.mel_project"), "ms"),
        "features.log_compress_and_frame.ms": (per_call("features.log_compress_and_frame"), "ms"),
        "features.mel_filterbank.calls_per_clip": (len(filterbank) / clips, "1/clip"),
        "features.mel_filterbank.ms": (ms(sum(filterbank)) / clips, "ms"),
        "features.NormStats.apply.calls_per_patch": (len(applies) / patches, "1/patch"),
        "features.NormStats.apply.us_per_patch": (1e6 * sum(own[i] for i in applies) / patches, "us"),
        "features.compute_norm_stats.ms": (per_call("features.compute_norm_stats"), "ms"),
        "evaluation.score_design.latent.ms": (per_call("evaluation.score_design.latent"), "ms"),
        "evaluation.score_design.energy.ms": (per_call("evaluation.score_design.energy"), "ms"),
        "evaluation.score_patchset.ms": (per_call("evaluation.score_patchset"), "ms"),
        "evaluation.auc.ms": (per_call("evaluation.auc"), "ms"),
    })
    return m
