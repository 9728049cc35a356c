"""Scoring semantics and AUC vs the pairwise brute-force oracle."""

import csv

import numpy as np
import pytest

from anomix import evaluation as ev
from anomix import networks as nets
from anomix.errors import InvalidInputError
from anomix.features import (
    LABEL_ANOMALOUS,
    LABEL_NORMAL,
    NormStats,
    PatchSet,
    gen_synthetic_dataset,
)

ARCH = nets.ArchConfig(
    input_dim=64, latent_dim=3, n_components=2,
    encoder_widths=(16,), discriminator_widths=(8,), estimator_widths=(4,),
)


def make_samples(scores, labels):
    lab = [LABEL_ANOMALOUS if l == "a" else LABEL_NORMAL for l in labels]
    return [ev.ScoredSample(f"s{i}", s, l) for i, (s, l) in enumerate(zip(scores, lab))]


def pairwise_auc(samples):
    """O(n^2) oracle: fraction of (anomalous, normal) pairs ranked correctly,
    ties counted one half."""
    anom = [s.score for s in samples if s.label == LABEL_ANOMALOUS]
    norm = [s.score for s in samples if s.label == LABEL_NORMAL]
    wins = 0.0
    for a in anom:
        for n in norm:
            if a > n:
                wins += 1.0
            elif a == n:
                wins += 0.5
    return wins / (len(anom) * len(norm))


class TestAuc:
    def test_perfect_separation(self):
        samples = make_samples([0.9, 0.8, 0.2, 0.1], "aann")
        assert ev.auc(samples).auc == 1.0

    def test_all_ties(self):
        samples = make_samples([0.5] * 6, "aannnn")
        assert ev.auc(samples).auc == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(InvalidInputError):
            ev.auc(make_samples([0.1, 0.2], "aa"))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pairwise_oracle_exactly(self, seed):
        rng = np.random.default_rng(1300 + seed)
        n = int(rng.integers(5, 200))
        scores = np.round(rng.uniform(0, 1, n), 2)  # duplicates force ties
        labels = rng.choice(["a", "n"], size=n)
        if (labels == "a").all() or (labels == "n").all():
            labels[0] = "a"
            labels[1] = "n"
        samples = make_samples(scores, labels)
        assert ev.auc(samples).auc == pairwise_auc(samples)

    @pytest.mark.parametrize("transform", [np.exp, lambda s: 3.5 * s + 11.0])
    def test_invariant_under_monotone_transforms(self, transform):
        rng = np.random.default_rng(77)
        samples = make_samples(rng.uniform(0, 1, 60), rng.choice(["a", "n"], 60))
        base = ev.auc(samples).auc
        mapped = [ev.ScoredSample(s.source_id, float(transform(s.score)), s.label) for s in samples]
        assert abs(ev.auc(mapped).auc - base) <= 1e-12

    def test_label_reversal_complements_auc(self):
        rng = np.random.default_rng(78)
        scores = rng.standard_normal(50)  # continuous: no ties
        labels = rng.choice(["a", "n"], 50)
        samples = make_samples(scores, labels)
        flipped = [
            ev.ScoredSample(s.source_id, s.score,
                            LABEL_NORMAL if s.label == LABEL_ANOMALOUS else LABEL_ANOMALOUS)
            for s in samples
        ]
        assert ev.auc(flipped).auc == pytest.approx(1.0 - ev.auc(samples).auc, abs=1e-12)

    def test_roc_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(79)
        samples = make_samples(np.round(rng.uniform(0, 1, 40), 1), rng.choice(["a", "n"], 40))
        points = ev.auc(samples).points
        assert points[0] == (0.0, 0.0) and points[-1] == (1.0, 1.0)
        assert all(x1 >= x0 and y1 >= y0 for (x0, y0), (x1, y1) in zip(points, points[1:]))


class TestScoring:
    def _model_and_data(self, seed=0):
        model = nets.init_model(ARCH, seed)
        data = gen_synthetic_dataset(seed, 12, 6, shape=(8, 8))
        stats = NormStats(mean=np.zeros(8), std=np.ones(8))
        return model, data, stats

    def test_scores_nonnegative(self):
        model, data, stats = self._model_and_data()
        samples = ev.score_patchset(model, data, stats, group_by_clip=False)
        assert all(s.score >= 0.0 for s in samples)

    def test_latent_identity_roundtrip_scores_zero(self):
        # Aux encoder configured as the exact inverse of the decoder path:
        # with zero weights everywhere, latents and re-encoded latents are
        # both zero, so the distance is exactly 0.
        model, data, stats = self._model_and_data()
        for net in (model.encoder, model.aux_encoder):
            for w, b in zip(net.weights, net.biases):
                w.data[...] = 0.0
                b.data[...] = 0.0
        samples = ev.score_patchset(model, data, stats, group_by_clip=False)
        assert all(s.score == 0.0 for s in samples)

    def test_single_patch_clip_equals_patch_score(self):
        model, data, stats = self._model_and_data()
        per_patch = ev.score_patchset(model, data, stats, group_by_clip=False)
        per_clip = ev.score_patchset(model, data, stats, group_by_clip=True)
        assert len(per_clip) == len(per_patch)  # synthetic ids are unique
        for a, b in zip(per_patch, per_clip):
            assert a.score == b.score

    def test_grouping_aggregates_by_source_id(self):
        model, data, stats = self._model_and_data()
        data = PatchSet(
            patches=data.patches,
            source_ids=["clip-a"] * 9 + ["clip-b"] * 9,
            labels=data.labels,
        )
        per_patch = ev.score_patchset(model, data, stats, group_by_clip=False)
        grouped = ev.score_patchset(model, data, stats, group_by_clip=True)
        assert [g.source_id for g in grouped] == ["clip-a", "clip-b"]
        assert grouped[0].score == max(s.score for s in per_patch[:9])
        assert grouped[1].score == max(s.score for s in per_patch[9:])
        assert grouped[1].label == LABEL_ANOMALOUS  # contains anomalous patches

    def test_energy_mode_needs_mixture(self):
        model, data, stats = self._model_and_data()
        with pytest.raises(InvalidInputError):
            ev.score_patchset(model, data, stats, mode="energy")

    def test_scoring_is_read_only(self):
        model, data, stats = self._model_and_data()
        before = [p.data.copy() for p in model.all_parameters()]
        ev.score_patchset(model, data, stats)
        for b, p in zip(before, model.all_parameters()):
            np.testing.assert_array_equal(b, p.data)


class TestExports:
    def test_scores_csv(self, tmp_path):
        path = tmp_path / "scores.csv"
        ev.write_scores_csv(path, make_samples([0.25, 0.5], "an"))
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ev.SCORES_HEADER
        assert rows[1] == ["s0", "0.25", "anomalous"]
        assert rows[2] == ["s1", "0.5", "normal"]
