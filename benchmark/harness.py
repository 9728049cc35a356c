"""One benchmark run: set-up, timed rounds, checks, metrics and report."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import Fixture, Ledger, Round, Workload, check_outputs, run_round, set_up


@dataclass
class Report:
    correct: bool
    attempted: int
    failures: list
    metrics: dict            # name -> (value, unit)


def param_bytes(model) -> int:
    """Bytes one Adam pass touches: parameter, gradient and both moments."""
    return 4 * sum(p.data.nbytes for p in model.all_parameters())


def tracing(tracer: spans.Tracer | None, phase: str):
    """Record spans of the given phase, or nothing without a tracer."""
    if tracer is None:
        return contextlib.nullcontext()
    tracer.phase = phase
    return tracer.installed()


@dataclass
class SetUp:
    seconds: float
    fit_samples_per_s: float | None


def timed_set_up(wl: Workload, seed: int, workdir: Path, ledger: Ledger) -> tuple[Fixture, SetUp]:
    start = time.perf_counter()
    fx = set_up(wl, seed, workdir, ledger)
    gc.collect()    # the round starts without the set-up's garbage; see workloads._score
    return fx, SetUp(time.perf_counter() - start, fx.fit_samples_per_s)


def timed_rounds(wl: Workload, seed: int, workdir: Path, seconds: float, ledger: Ledger,
                 sample: Ledger, tracer: spans.Tracer | None = None):
    """A warm-up set-up and round, then set-up and round pairs until the
    next pair would overrun ``seconds``.

    Every round gets a fresh set-up, so the set-ups that ``setup_s`` takes
    its median over spread across the whole run, as the rounds do; the
    machine's speed drifts over tens of seconds.  Set-ups write the same
    files and fit the same model each time.

    Returns the last fixture, the set-ups (warm-up included), the warm-up
    round, the timed rounds, and the peak resident MiB after the first
    timed round.  The warm-up pair's operations go to ``sample``, the
    others to ``ledger``.  With a tracer, pairs alternate untraced and
    traced, at least one of each.  Only the last round keeps its model,
    for the output checks.
    """
    fx, first = timed_set_up(wl, seed, workdir, sample)
    setups = [first]
    warmup = run_round(wl, fx, seed, sample)
    warmup.model = None
    rounds = []
    start = time.perf_counter()
    while True:
        if rounds:
            rounds[-1].model = None
        fx = None   # release the previous set-up's model before building the next
        gc.collect()
        traced = tracer is not None and len(rounds) % 2 == 1
        with tracing(tracer if traced else None, "setup"):
            fx, setup = timed_set_up(wl, seed, workdir, ledger)
        setups.append(setup)
        faults = minor_faults()
        with tracing(tracer if traced else None, "timed"):
            rounds.append(run_round(wl, fx, seed, ledger))
        rounds[-1].minor_faults = minor_faults() - faults
        rounds[-1].traced = traced
        done = len(rounds)
        if done == 1:
            # Later rounds repeat the same work; the allocator's high-water
            # mark still creeps with their count, so it is read here.
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None and done < 2:
            continue
        if (time.perf_counter() - start) * (done + 1) / done > seconds:
            return fx, setups, warmup, rounds, peak_mb


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def end_to_end(setups: list[SetUp], rounds: list[Round]) -> dict:
    med = statistics.median
    fit_rates = [r.fit_samples_per_s for r in rounds if r.fit_samples_per_s is not None]
    return {
        "setup_s": (med(s.seconds for s in setups), "s"),
        "wall_s": (med(r.wall_s for r in rounds), "s"),
        # detect-wav trains only in set-up, so its rate comes from the set-ups.
        "fit_samples_per_s": (med(fit_rates or [s.fit_samples_per_s for s in setups]), "patches/s"),
        "extract_audio_x_realtime": (med(r.extract_rate for r in rounds), "audio_s/s"),
        "score_latent_patches_per_s": (med(r.patches_per_s["latent"] for r in rounds), "patches/s"),
        "score_energy_patches_per_s": (med(r.patches_per_s["energy"] for r in rounds), "patches/s"),
        "auc_latent": (rounds[0].auc["latent"], "1"),
        "auc_energy": (rounds[0].auc["energy"], "1"),
    }


def run(wl: Workload, seed: int, seconds: float, traced: bool, work_root: Path, env: dict) -> Report:
    """Run set-up and round pairs for ``seconds`` and check the outputs.

    Untraced: end-to-end metrics.  Traced: pairs alternate untraced and
    traced; per-layer metrics, and the spans written under ``work_root``.

    ``ok_share`` is taken over a fixed set of operations, the warm-up
    set-up and round and the checks, so it does not move with the number
    of rounds.
    """
    ledger, sample = Ledger(), Ledger()
    workdir = work_root / f"{wl.name}-seed{seed}-pid{os.getpid()}"
    tracer = spans.Tracer() if traced else None
    try:
        fx, setups, warmup, rounds, peak_mb = timed_rounds(wl, seed, workdir, seconds, ledger, sample, tracer)
        with tracing(tracer, "check"):
            check_outputs(wl, fx, [warmup] + rounds, seed, sample)
        ledger.add(sample)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(setups, rounds)
        metrics["peak_rss_mb"] = (peak_mb, "MiB")
        metrics["ok_share"] = (sample.ok_share, "1")
    else:
        with_spans = [r for r in rounds if r.traced]
        without = [r for r in rounds if not r.traced]
        timed_steps = sum(1 for s in tracer.spans if s.phase == "timed" and s.name == "training.train_step")
        metrics = spans.layer_metrics(tracer.spans, timed_steps / len(with_spans),
                                      param_bytes(rounds[-1].model))
        metrics["process.minor_faults_per_round"] = (statistics.median(r.minor_faults for r in without),
                                                     "count")
        overhead = (statistics.median(r.wall_s for r in with_spans)
                    - statistics.median(r.wall_s for r in without))
        metrics["tracing_overhead_s"] = (overhead, "s")
        write_trace(work_root / "traces" / f"{wl.name}-seed{seed}.json", tracer, metrics, env)
    return Report(not ledger.failures, ledger.attempted, ledger.failures, metrics)


def write_trace(path: Path, tracer: spans.Tracer, metrics: dict, env: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    records = [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "phase": s.phase, **s.info}
        for s in tracer.spans
    ]
    with open(path, "w") as fh:
        json.dump({"env": env, "metrics": {k: v for k, (v, _) in metrics.items()}, "spans": records}, fh)


def print_report(report: Report, env: dict) -> None:
    print(json.dumps({"env": env, "failures": report.failures}))
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": len(report.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.metrics.items()},
    }))
