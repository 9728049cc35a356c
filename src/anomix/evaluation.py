"""Anomaly scoring, ROC/AUC, and the scores CSV.

The anomaly score of a patch is the Euclidean distance between its
latent and the re-encoded latent of its reconstruction; a model trained
on normal data only reproduces that round trip faithfully for normal
inputs.  An alternative mode scores by mixture energy under the
checkpointed full-dataset mixture (kept non-default: the latent
distance is the primary score).

AUC is computed twice, by the Mann-Whitney rank statistic (ties count
one half) and by trapezoidal integration of the threshold-sweep ROC
curve; the two must agree to 1e-12 or scoring aborts.
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
from .features import LABEL_ANOMALOUS, LABEL_NORMAL, LABEL_NAMES, PatchSet

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


def _design(model: nets.Model, patchset: PatchSet, norm_stats) -> np.ndarray:
    stats = norm_stats or patchset.norm_stats
    if stats is None:
        raise InvalidInputError("no normalization statistics available for scoring")
    flat = stats.apply(patchset.patches).reshape(len(patchset), -1)
    if flat.shape[1] != model.arch.input_dim:
        raise InvalidInputError(
            f"model expects {model.arch.input_dim} features per patch, got {flat.shape[1]}"
        )
    return flat


def score_design(model: nets.Model, design: np.ndarray, mode: str = "latent",
                 gmm: mx.GmmParams | None = None) -> np.ndarray:
    """Scores for a normalized [n x input_dim] matrix, one per row."""
    if mode not in SCORE_MODES:
        raise InvalidInputError(f"unknown scoring mode {mode!r}")
    x = Tensor(design)
    z = nets.encode(model, x)
    if mode == "energy":
        if gmm is None:
            raise InvalidInputError("energy scoring needs the checkpointed mixture")
        return mx.energy_batch(ad.cast(z, np.float64), gmm).data.copy()
    z_rec = nets.encode_aux(model, nets.decode(model, z))
    return ad.l2_norm_rows(ad.sub(z, z_rec)).data.copy()


def score_patchset(
    model: nets.Model,
    patchset: PatchSet,
    norm_stats=None,
    mode: str = "latent",
    gmm: mx.GmmParams | None = None,
    group_by_clip: bool = True,
) -> list[ScoredSample]:
    """Score every patch; optionally group patches sharing a source id.

    A grouped clip scores as the max of its patch scores, so an anomaly
    anywhere in the clip flags the whole clip, and it is anomalous if
    any of its patches is labeled so.
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
    order: list[str] = []
    grouped: dict[str, list[int]] = {}
    for i, sid in enumerate(patchset.source_ids):
        if sid not in grouped:
            grouped[sid] = []
            order.append(sid)
        grouped[sid].append(i)
    out = []
    for sid in order:
        idx = grouped[sid]
        label = LABEL_ANOMALOUS if np.any(patchset.labels[idx] == LABEL_ANOMALOUS) else int(patchset.labels[idx[0]])
        out.append(ScoredSample(sid, float(scores[idx].max()), label))
    return out


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC: average ranks, ties contribute exactly one half."""
    n_anom = int((labels == LABEL_ANOMALOUS).sum())
    n_norm = int((labels == LABEL_NORMAL).sum())
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(len(scores))
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0   # average rank, half-integer
        i = j + 1
    rank_sum = float(ranks[labels == LABEL_ANOMALOUS].sum())
    u = rank_sum - n_anom * (n_anom + 1) / 2.0
    return u / (n_anom * n_norm)


def _roc_points(scores: np.ndarray, labels: np.ndarray) -> list[tuple[float, float]]:
    """Threshold sweep over unique scores, descending; higher = more anomalous."""
    n_anom = int((labels == LABEL_ANOMALOUS).sum())
    n_norm = int((labels == LABEL_NORMAL).sum())
    order = np.argsort(-scores, kind="stable")
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in range(i, j + 1):
            if labels[order[k]] == LABEL_ANOMALOUS:
                tp += 1
            else:
                fp += 1
        points.append((fp / n_norm, tp / n_anom))
        i = j + 1
    return points


def auc(samples: list[ScoredSample]) -> RocResult:
    """AUC of anomaly scores; raises unless both labels are present."""
    if not samples:
        raise InvalidInputError("no samples to evaluate")
    scores = np.array([s.score for s in samples], dtype=np.float64)
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
