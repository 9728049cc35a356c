"""Anomaly scoring, ROC/AUC, and the scores CSV.

The anomaly score of a patch is the Euclidean distance between its
latent and the re-encoded latent of its reconstruction; a model trained
on normal data only reproduces that round trip faithfully for normal
inputs.  An alternative mode scores by mixture energy under the
checkpointed full-dataset mixture (kept non-default: the latent
distance is the primary score).

AUC is computed twice, by the Mann-Whitney rank statistic (ties count
one half) and by trapezoidal integration of the threshold-sweep ROC
curve; the two must agree to 1e-12 or scoring aborts.  Each route is a
few numpy calls over one stable sort of the scores, with ties found as
runs of equal sorted values.

Scoring contract: a row's score is bitwise the same whether the row is
scored alone, in a chunk of any size or in the whole design, and with 1
or 2 BLAS threads.  Scores are not promised to be bitwise equal across
BLAS builds or CPUs, whose kernels may sum in another order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import mixture as mx
from . import networks as nets
from .autodiff import Tensor
from .errors import InvalidInputError, VerificationError
from .features import LABEL_ANOMALOUS, LABEL_NORMAL, LABEL_NAMES, NormStats, PatchSet

SCORE_MODES = ("latent", "energy")

SCORES_HEADER = ["source_id", "score", "label"]


@dataclass
class ScoredSample:
    source_id: str
    score: float
    label: int      # LABEL_NORMAL or LABEL_ANOMALOUS


@dataclass
class RocResult:
    auc: float
    points: list    # (fpr, tpr) from (0, 0) to (1, 1)


def _design(model: nets.Model, patchset: PatchSet, norm_stats: NormStats) -> np.ndarray:
    bands, frames = patchset.shape
    if bands != len(norm_stats.mean) or bands * frames != model.arch.input_dim:
        raise InvalidInputError(f"model expects {model.arch.input_dim} features per patch in "
                                f"{len(norm_stats.mean)} bands, got {bands}x{frames} patches")
    # In the networks' dtype, so that scoring converts nothing.
    return norm_stats.apply(patchset.patches, model.encoder.dtype).reshape(len(patchset), -1)


def score_design(model: nets.Model, design: np.ndarray, mode: str = "latent",
                 gmm: mx.GmmParams | None = None) -> np.ndarray:
    """Scores for a normalized [n x input_dim] matrix, one per row.

    A one-row design is scored as two copies of its row, because numpy
    sends a one-row product to BLAS's matrix-vector routine, whose sums
    run in another order than the matrix-matrix one that every larger
    design uses.
    """
    if mode not in SCORE_MODES:
        raise InvalidInputError(f"unknown scoring mode {mode!r}")
    rows = len(design)
    if rows == 1:
        design = np.repeat(design, 2, axis=0)
    z = nets.encode(model, Tensor(design))
    if mode == "energy":
        if gmm is None:
            raise InvalidInputError("energy scoring needs the checkpointed mixture")
        return mx.energy_batch(ad.cast(z, np.float64), gmm).data[:rows].copy()
    diff = z.data[:rows] - nets.encode_aux(model, nets.decode(model, z)).data[:rows]
    return np.sqrt((diff * diff).sum(axis=1))


def score_patchset(
    model: nets.Model,
    patchset: PatchSet,
    norm_stats: NormStats,
    mode: str = "latent",
    gmm: mx.GmmParams | None = None,
    group_by_clip: bool = True,
) -> list[ScoredSample]:
    """Score every patch; optionally group patches sharing a source id.

    ``norm_stats`` are the training set's statistics, from ``FitResult``
    or the checkpoint; a patch set of another band count or patch size
    than they and the model were fitted on raises InvalidInputError.

    A grouped clip scores as the max of its patch scores, so an anomaly
    anywhere in the clip flags the whole clip.  It is anomalous if any
    of its patches is labeled so, and otherwise takes its first patch's
    label.  Clips come in the order of their first patch.
    """
    if len(patchset) == 0:
        raise InvalidInputError("nothing to score")
    design = _design(model, patchset, norm_stats)
    scores = score_design(model, design, mode=mode, gmm=gmm)
    if not group_by_clip:
        return [
            ScoredSample(sid, float(s), int(lab))
            for sid, s, lab in zip(patchset.source_ids, scores, patchset.labels)
        ]
    # codes[i] numbers patch i's clip in order of first appearance; a
    # stable sort puts each clip's patches together, its first one first.
    index = {sid: i for i, sid in enumerate(dict.fromkeys(patchset.source_ids))}
    codes = np.fromiter(map(index.__getitem__, patchset.source_ids), dtype=np.intp, count=len(patchset))
    order = np.argsort(codes, kind="stable")
    starts = np.searchsorted(codes[order], np.arange(len(index)))
    clip_scores = np.maximum.reduceat(scores[order], starts)
    anomalous = np.logical_or.reduceat(patchset.labels[order] == LABEL_ANOMALOUS, starts)
    labels = np.where(anomalous, LABEL_ANOMALOUS, patchset.labels[order[starts]])
    return [ScoredSample(sid, float(s), int(lab)) for sid, s, lab in zip(index, clip_scores, labels)]


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC: average ranks, ties contribute exactly one half."""
    n_anom = int((labels == LABEL_ANOMALOUS).sum())
    n_norm = int((labels == LABEL_NORMAL).sum())
    order = np.argsort(scores, kind="stable")
    # A run of c tied scores starting at sorted index i shares rank i + (c + 1) / 2.
    # NaNs stay untied, as in _roc_points.
    _, first, counts = np.unique(scores[order], return_index=True, return_counts=True, equal_nan=False)
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(first + (counts - 1) / 2.0 + 1.0, counts)
    rank_sum = float(ranks[labels == LABEL_ANOMALOUS].sum())
    u = rank_sum - n_anom * (n_anom + 1) / 2.0
    return u / (n_anom * n_norm)


def _roc_points(scores: np.ndarray, labels: np.ndarray) -> list[tuple[float, float]]:
    """Threshold sweep over unique scores, descending; higher = more anomalous."""
    n_anom = int((labels == LABEL_ANOMALOUS).sum())
    n_norm = int((labels == LABEL_NORMAL).sum())
    order = np.argsort(-scores, kind="stable")
    swept = scores[order]
    tp = np.cumsum(labels[order] == LABEL_ANOMALOUS)
    fp = np.arange(1, len(scores) + 1) - tp
    # One point after the last sample of each run of tied scores.
    last = np.flatnonzero(np.append(swept[1:] != swept[:-1], True))
    return [(0.0, 0.0), *zip((fp[last] / n_norm).tolist(), (tp[last] / n_anom).tolist())]


def auc(samples: list[ScoredSample]) -> RocResult:
    """AUC of anomaly scores; raises unless every score is finite and
    both labels are present."""
    if not samples:
        raise InvalidInputError("no samples to evaluate")
    scores = np.array([s.score for s in samples], dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        sample = samples[bad[0]]
        raise InvalidInputError(
            f"{bad.size} non-finite score(s), the first {sample.score!r} for {sample.source_id!r}"
        )
    labels = np.array([s.label for s in samples])
    if not np.all(np.isin(labels, (LABEL_NORMAL, LABEL_ANOMALOUS))):
        raise InvalidInputError("evaluation labels must be normal or anomalous")
    if (labels == LABEL_ANOMALOUS).all() or (labels == LABEL_NORMAL).all():
        raise InvalidInputError("AUC needs at least one normal and one anomalous sample")

    value = _rank_auc(scores, labels)
    points = _roc_points(scores, labels)
    trapezoid = sum(
        (x1 - x0) * (y0 + y1) / 2.0
        for (x0, y0), (x1, y1) in zip(points, points[1:])
    )
    if abs(trapezoid - value) > 1e-12:
        raise VerificationError(
            f"rank AUC {value!r} and ROC-sweep AUC {trapezoid!r} disagree"
        )
    return RocResult(auc=value, points=points)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def write_scores_csv(path, samples: list[ScoredSample]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_HEADER)
        for s in samples:
            writer.writerow([s.source_id, repr(s.score), LABEL_NAMES[s.label]])
