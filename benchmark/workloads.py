"""The benchmark's workloads: set-up, one timed round, and output checks.

Every workload starts from WAV clips that set-up writes from the seed
(``audio.py``), so the ``features`` layer runs on each of them:

* ``fit-wide``: the default ``ArchConfig`` (4096 -> 512 -> 128 -> 8, about
  7.5 M float64 parameters), batch 64, on 64x64 log-mel patches.  A round
  trains a fresh model, writes its checkpoint, extracts the held-out WAV
  files and scores them in both modes.  The step is bound by optimizer and
  gradient memory traffic; the mixture maths is negligible.
* ``fit-narrow``: 16x16 patches (256 inputs), encoder widths (64, 32),
  discriminator widths (32, 16), K=8 components, batch 32; same round.
  Per-op Python and graph overhead and the per-component mixture loops
  dominate; Adam does little.
* ``detect-wav``: the deployment path with no training in the timed part.
  Set-up fits and saves a default-arch checkpoint on normal clips; a round
  loads it, turns every test file into patches (malformed files must raise
  their documented error), scores per clip in both modes and computes AUC.

Each operation (a train step, a file extracted, a score call, a check) is
counted; a failed one is recorded by name.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import audio
from anomix import evaluation, features, mixture, networks, training
from anomix.autodiff import Tensor

MODES = ("latent", "energy")
WINDOW_LEN = 1024
HOP_LEN = 512
ENERGY_TOL = 1e-10
ORACLE_SAMPLE = 16


@dataclass(frozen=True)
class Workload:
    name: str
    arch: networks.ArchConfig
    batch_size: int
    epochs: int
    mel_bands: int
    patch_frames: int
    patch_hop: int
    train_clips: int            # normal clips to train on
    test_clips: int             # held-out clips of each label
    timed_fit: bool             # train in the timed round (else in set-up)
    stereo: int = 0             # valid two-channel normal clips among the test files
    malformed_each: int = 0     # files of each malformed kind among the test files
    score_reps: int = 3         # timed repetitions of each score call per round

    def train_config(self, seed: int) -> training.TrainConfig:
        return training.TrainConfig(epochs=self.epochs, batch_size=self.batch_size, seed=seed)


NARROW_ARCH = networks.ArchConfig(
    input_dim=256, n_components=8, encoder_widths=(64, 32), discriminator_widths=(32, 16),
)

WORKLOADS = {
    w.name: w for w in (
        Workload("fit-wide", networks.ArchConfig(), batch_size=64, epochs=1,
                 mel_bands=64, patch_frames=64, patch_hop=32,
                 train_clips=64, test_clips=32, timed_fit=True),
        Workload("fit-narrow", NARROW_ARCH, batch_size=32, epochs=3,
                 mel_bands=16, patch_frames=16, patch_hop=16,
                 train_clips=64, test_clips=32, timed_fit=True, score_reps=10),
        Workload("detect-wav", networks.ArchConfig(), batch_size=64, epochs=1,
                 mel_bands=64, patch_frames=64, patch_hop=32,
                 train_clips=32, test_clips=48, timed_fit=False, stereo=4, malformed_each=4),
    )
}


class Ledger:
    """Operations attempted, and the named failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def add(self, other: Ledger) -> None:
        self.attempted += other.attempted
        self.failures += other.failures

    @property
    def ok_share(self) -> float:
        return 1.0 - len(self.failures) / self.attempted


def extract_file(clip: audio.ClipFile, wl: Workload) -> features.PatchSet:
    wav = features.decode_wav(clip.path)
    magnitude = features.stft_magnitude(wav, WINDOW_LEN, HOP_LEN)
    mel = features.mel_project(magnitude, wav.sample_rate_hz, wl.mel_bands)
    return features.log_compress_and_frame(
        mel, patch_frames=wl.patch_frames, patch_hop=wl.patch_hop,
        source_id=clip.path.name, label=clip.label if clip.label is not None else features.LABEL_UNKNOWN,
    )


def extract_files(files: list[audio.ClipFile], wl: Workload, ledger: Ledger):
    """Patches of every good file, and the extraction rate in audio
    seconds per wall second.

    A malformed file must raise exactly the error class its kind names;
    accepting it, or rejecting a good file, is a failed operation.
    """
    sets, seconds = [], 0.0
    start = time.perf_counter()
    for clip in files:
        try:
            patches = extract_file(clip, wl)
            got = None
        except Exception as err:  # every outcome is classified and reported
            patches, got, message = None, type(err).__name__, str(err)
        expected = clip.expected_error
        ok = got == expected
        ledger.record(f"extract {clip.path.name}", ok,
                      f"expected {expected or 'success'}, got " + (f"{got} ({message})" if got else "success"))
        if ok and expected is None:
            sets.append(patches)
            seconds += clip.seconds
    rate = seconds / (time.perf_counter() - start)
    merged = features.PatchSet(
        patches=np.concatenate([s.patches for s in sets]),
        source_ids=[i for s in sets for i in s.source_ids],
        labels=np.concatenate([s.labels for s in sets]),
    )
    return merged, rate


def check_history(result: training.FitResult, ledger: Ledger) -> None:
    ledger.attempted += len(result.history)    # one per train step
    for step, losses in enumerate(result.history, start=1):
        values = np.array(list(vars(losses).values()))
        if not np.all(np.isfinite(values)):
            ledger.failures.append(f"train step {step}: non-finite loss {vars(losses)}")


@dataclass
class Fixture:
    train: features.PatchSet
    test_files: list                        # extracted in every round
    checkpoint: Path
    fitted: training.FitResult | None       # detect-wav: the set-up model
    fit_samples_per_s: float | None         # detect-wav: the set-up fit


def fit_timed(wl: Workload, seed: int, train: features.PatchSet, checkpoint: Path):
    start = time.perf_counter()
    result = training.fit(wl.train_config(seed), wl.arch, train, checkpoint_path=checkpoint)
    gc.collect()    # see _score
    return result, len(result.history) * wl.batch_size / (time.perf_counter() - start)


def set_up(wl: Workload, seed: int, workdir: Path, ledger: Ledger) -> Fixture:
    shutil.rmtree(workdir, ignore_errors=True)
    train_files = audio.write_corpus(workdir / "train", seed, wl.train_clips, 0)
    test_files = audio.write_corpus(
        workdir / "test", seed, wl.test_clips, wl.test_clips, first_index=100_000,
        malformed_each=wl.malformed_each, stereo=wl.stereo,
    )
    # Malformed files sit among the good ones, not in a block at the end.
    test_files = [test_files[i] for i in np.random.default_rng([seed, 4]).permutation(len(test_files))]
    train, _ = extract_files(train_files, wl, ledger)
    checkpoint = workdir / "model.gmgc"
    fitted, fit_rate = None, None
    if not wl.timed_fit:
        fitted, fit_rate = fit_timed(wl, seed, train, checkpoint)
        check_history(fitted, ledger)
    return Fixture(train, test_files, checkpoint, fitted, fit_rate)


@dataclass
class Round:
    wall_s: float
    scores: dict                                   # mode -> [ScoredSample]
    auc: dict                                      # mode -> AUC
    patches_per_s: dict = field(default_factory=dict)   # mode -> over the round's score calls
    fit_samples_per_s: float | None = None
    extract_rate: float = 0.0
    traced: bool = False
    minor_faults: int = 0                          # page faults the process took in the round
    model: networks.Model | None = None
    norm_stats: features.NormStats | None = None
    gmm: mixture.GmmParams | None = None


def _score(round_: Round, patches: features.PatchSet, wl: Workload, ledger: Ledger) -> None:
    # The rate is taken over all calls of a mode in a round rather than per
    # call, since the first call runs at another speed than its repeats.
    # Every call ends with a full collection inside its timing: the autodiff
    # graph's tensors form reference cycles (a node's backward closure holds
    # the node), so a call's intermediates are freed only when the cyclic
    # collector runs.  When that happens depends on the allocation history,
    # and a call that finds them still held faults in fresh pages: latent
    # scoring ran at 1600 or 2150 patches/s from run to run.  Collecting
    # after each call charges each call its garbage alike.  run_round
    # freezes the objects that exist before the round, so a collection
    # scans only what the round made, not the benchmark's own heap.
    for mode in MODES:
        start = time.perf_counter()
        for _ in range(wl.score_reps):
            samples = evaluation.score_patchset(round_.model, patches, round_.norm_stats,
                                                mode=mode, gmm=round_.gmm)
            gc.collect()
            ledger.record(f"score {mode}", True)
        round_.patches_per_s[mode] = wl.score_reps * len(patches) / (time.perf_counter() - start)
        round_.scores[mode] = samples
        round_.auc[mode] = evaluation.auc(samples).auc


def run_round(wl: Workload, fx: Fixture, seed: int, ledger: Ledger) -> Round:
    gc.freeze()     # see _score
    try:
        return _round(wl, fx, seed, ledger)
    finally:
        gc.unfreeze()


def _round(wl: Workload, fx: Fixture, seed: int, ledger: Ledger) -> Round:
    start = time.perf_counter()
    if wl.timed_fit:
        result, fit_rate = fit_timed(wl, seed, fx.train, fx.checkpoint)
        check_history(result, ledger)
        r = Round(0.0, {}, {}, fit_samples_per_s=fit_rate, model=result.model,
                  norm_stats=result.norm_stats, gmm=result.gmm)
    else:
        ckpt = networks.load_checkpoint(fx.checkpoint)
        r = Round(0.0, {}, {}, model=ckpt.model, norm_stats=ckpt.norm_stats, gmm=ckpt.gmm)
    test, r.extract_rate = extract_files(fx.test_files, wl, ledger)
    _score(r, test, wl, ledger)
    r.wall_s = time.perf_counter() - start
    return r


# ---------------------------------------------------------------------------
# checks on the outputs
# ---------------------------------------------------------------------------

def _same_scores(a: list, b: list) -> bool:
    return ([s.source_id for s in a] == [s.source_id for s in b]
            and np.array([s.score for s in a]).tobytes() == np.array([s.score for s in b]).tobytes())


def check_outputs(wl: Workload, fx: Fixture, rounds: list[Round], seed: int, ledger: Ledger) -> None:
    first, last = rounds[0], rounds[-1]
    test, _ = extract_files(fx.test_files, wl, Ledger())
    ledger.record("same scores and AUCs in every round",
                  all(r.auc == first.auc and all(_same_scores(r.scores[m], first.scores[m]) for m in MODES)
                      for r in rounds[1:]))
    # The reloaded checkpoint and the in-memory model must score bit for bit alike.
    if wl.timed_fit:
        ckpt = networks.load_checkpoint(fx.checkpoint)
        other = Round(0.0, {}, {}, model=ckpt.model, norm_stats=ckpt.norm_stats, gmm=ckpt.gmm)
    else:
        other = Round(0.0, {}, {}, model=fx.fitted.model, norm_stats=fx.fitted.norm_stats, gmm=fx.fitted.gmm)
    _score(other, test, replace(wl, score_reps=1), Ledger())
    for mode in MODES:
        ledger.record(f"reloaded checkpoint scores ({mode}) equal in-memory scores",
                      _same_scores(other.scores[mode], last.scores[mode]))
    # Energies against the plain-numpy mixture density.
    rng = np.random.default_rng([seed, 3])
    rows = rng.choice(len(test), size=min(ORACLE_SAMPLE, len(test)), replace=False)
    design = np.stack([last.norm_stats.apply(p) for p in test.patches[rows]]).reshape(len(rows), -1)
    got = evaluation.score_design(last.model, design, mode="energy", gmm=last.gmm)
    z = networks.encode(last.model, Tensor(design)).data
    want = -mixture.mixture_log_pdf(z, *last.gmm.as_arrays())
    err = float(np.max(np.abs(got - want)))
    ledger.record("energy scores match mixture_log_pdf", err <= ENERGY_TOL, f"max error {err:.3e}")
