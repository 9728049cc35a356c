"""Scoring semantics, and AUC and ROC points vs brute-force oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anomix import evaluation as ev
from anomix import mixture as mx
from anomix import networks as nets
from anomix.errors import InvalidInputError, NumericError
from anomix.features import (
    LABEL_ANOMALOUS,
    LABEL_NORMAL,
    LABEL_UNKNOWN,
    NormStats,
    PatchSet,
    compute_norm_stats,
)
from synthetic import gen_synthetic_dataset

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


def sweep_roc(samples):
    """O(n^2) oracle: one (fpr, tpr) point per distinct score, from the
    highest down, counting the samples scored at or above it."""
    anom = [s.score for s in samples if s.label == LABEL_ANOMALOUS]
    norm = [s.score for s in samples if s.label == LABEL_NORMAL]
    points = [(0.0, 0.0)]
    for t in sorted({s.score for s in samples}, reverse=True):
        points.append((sum(n >= t for n in norm) / len(norm), sum(a >= t for a in anom) / len(anom)))
    return points


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, value):
        # Unchecked, a NaN reaches both AUC routes, which then disagree
        # and blame the cross-check with a VerificationError.
        samples = make_samples([0.9, value, 0.2, 0.1], "aann")
        with pytest.raises(InvalidInputError, match="non-finite score.*'s1'"):
            ev.auc(samples)

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
        result = ev.auc(samples)
        assert result.auc == pairwise_auc(samples)
        assert result.points == sweep_roc(samples)

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


def per_patch_scores(model, data, stats, mode="latent", gmm=None):
    """Each patch's score from ``score_design`` on the normalized design,
    as a sample of the patch's own id and label."""
    design = stats.apply(data.patches, model.encoder.dtype).reshape(len(data), -1)
    scores = ev.score_design(model, design, mode, gmm)
    return [ev.ScoredSample(sid, float(s), int(lab)) for sid, s, lab in zip(data.source_ids, scores, data.labels)]


def group_by_clip_oracle(per_patch):
    """The per-clip loop: clips in order of first appearance, max patch
    score, anomalous if any patch is and else the first patch's label."""
    order, grouped = [], {}
    for i, s in enumerate(per_patch):
        if s.source_id not in grouped:
            grouped[s.source_id] = []
            order.append(s.source_id)
        grouped[s.source_id].append(i)
    scores = np.array([s.score for s in per_patch])
    labels = np.array([s.label for s in per_patch])
    out = []
    for sid in order:
        idx = grouped[sid]
        label = LABEL_ANOMALOUS if np.any(labels[idx] == LABEL_ANOMALOUS) else int(labels[idx[0]])
        out.append(ev.ScoredSample(sid, float(scores[idx].max()), label))
    return out


class TestScoring:
    def _model_and_data(self, seed=0):
        model = nets.init_model(ARCH, seed)
        data = gen_synthetic_dataset(seed, 12, 6, shape=(8, 8))
        stats = NormStats(mean=np.zeros(8), std=np.ones(8))
        return model, data, stats

    def test_scores_nonnegative(self):
        model, data, stats = self._model_and_data()
        samples = ev.score_patchset(model, data, stats)
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
        samples = ev.score_patchset(model, data, stats)
        assert all(s.score == 0.0 for s in samples)

    def test_single_patch_clip_equals_patch_score(self):
        model, data, stats = self._model_and_data()
        assert len(set(data.source_ids)) == len(data)   # synthetic ids are unique
        assert ev.score_patchset(model, data, stats) == per_patch_scores(model, data, stats)

    def test_grouping_aggregates_by_source_id(self):
        model, data, stats = self._model_and_data()
        data = PatchSet(
            patches=data.patches,
            source_ids=["clip-a"] * 9 + ["clip-b"] * 9,
            labels=data.labels,
        )
        per_patch = per_patch_scores(model, data, stats)
        grouped = ev.score_patchset(model, data, stats)
        assert [g.source_id for g in grouped] == ["clip-a", "clip-b"]
        assert grouped[0].score == max(s.score for s in per_patch[:9])
        assert grouped[1].score == max(s.score for s in per_patch[9:])
        assert grouped[1].label == LABEL_ANOMALOUS  # contains anomalous patches

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("mode", ["latent", "energy"])
    def test_grouping_equals_the_loop_oracle(self, seed, mode):
        # Clips interleaved at random, some of one patch, with every label kind.
        model, data, stats = self._model_and_data(seed)
        rng = np.random.default_rng(seed)
        data = PatchSet(
            patches=data.patches,
            source_ids=[f"clip-{k}" for k in rng.integers(0, 7, len(data))],
            labels=rng.choice([LABEL_NORMAL, LABEL_ANOMALOUS, LABEL_UNKNOWN], len(data), p=[0.6, 0.1, 0.3]),
        )
        gmm = mx.GmmParams.from_arrays(np.full(2, 0.5), np.zeros((2, 3)), np.stack([np.eye(3)] * 2))
        per_patch = per_patch_scores(model, data, stats, mode, gmm)
        assert ev.score_patchset(model, data, stats, mode=mode, gmm=gmm) == group_by_clip_oracle(per_patch)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["latent", "energy"])
    def test_grouping_does_not_depend_on_patch_order_within_a_clip(self, seed, mode):
        # Each clip's patches are permuted among the clip's own positions,
        # so the clips keep their order of first appearance.  Clip 0 mixes
        # labels, which makes its label depend on its first patch.
        model, data, stats = self._model_and_data(seed)
        rng = np.random.default_rng(seed)
        clips = rng.integers(0, 5, len(data))
        labels = rng.choice([LABEL_NORMAL, LABEL_ANOMALOUS, LABEL_UNKNOWN], 5)[clips]
        labels[clips == 0] = rng.choice([LABEL_NORMAL, LABEL_UNKNOWN], (clips == 0).sum())
        order = np.arange(len(data))
        for k in range(5):
            order[clips == k] = rng.permutation(order[clips == k])
        gmm = mx.GmmParams.from_arrays(np.full(2, 0.5), np.zeros((2, 3)), np.stack([np.eye(3)] * 2))
        ids = [f"clip-{k}" for k in clips]
        before, after = (ev.score_patchset(model, PatchSet(patches=data.patches[o], source_ids=ids, labels=labels[o]),
                                           stats, mode=mode, gmm=gmm)
                         for o in (np.arange(len(data)), order))
        assert [s.source_id for s in after] == [s.source_id for s in before]
        assert [s.score for s in after] == [s.score for s in before]
        uniform = {f"clip-{k}" for k in range(1, 5)}
        assert [s.label for s in after if s.source_id in uniform] == [s.label for s in before if s.source_id in uniform]

    @pytest.mark.parametrize("shape", [(8, 2), (2, 8), (4, 8)])
    def test_patch_shape_other_than_fitted_raises_before_normalizing(self, monkeypatch, shape):
        arch = nets.ArchConfig(input_dim=16, latent_dim=2, n_components=2, encoder_widths=(8,),
                               discriminator_widths=(4,), estimator_widths=(4,))
        model = nets.init_model(arch, 0)
        stats = compute_norm_stats(gen_synthetic_dataset(0, 8, 0, shape=(4, 4)).patches)
        data = gen_synthetic_dataset(1, 4, 4, shape=shape)
        applied = []
        monkeypatch.setattr(NormStats, "apply", lambda *args, **kwargs: applied.append(args))
        with pytest.raises(InvalidInputError, match=f"16 features per patch in 4 bands, got {shape[0]}x{shape[1]}"):
            ev.score_patchset(model, data, stats)
        assert applied == []

    def test_energy_mode_needs_mixture(self):
        model, data, stats = self._model_and_data()
        with pytest.raises(InvalidInputError):
            ev.score_patchset(model, data, stats, mode="energy")

    @pytest.mark.parametrize("mode", ["latent", "energy"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e300])
    def test_non_finite_patch_value_raises(self, mode, value):
        # 1e300 is finite in float64 but beyond float32, the networks' dtype.
        model, data, stats = self._model_and_data()
        data.patches[3, 2, 5] = value
        gmm = mx.GmmParams.from_arrays(np.full(2, 0.5), np.zeros((2, 3)), np.stack([np.eye(3)] * 2))
        with pytest.raises(NumericError):
            ev.score_patchset(model, data, stats, mode=mode, gmm=gmm)

    # Each chunk ends at a cut; a cut of 0 is the design's end.  The
    # narrow arch is the fit-narrow benchmark workload's.  At 40 rows or
    # fewer each of its products (the widest is 256×64) is at most 1e6
    # multiply-adds, so the whole design and every chunk take OpenBLAS's
    # one small-matrix kernel.  The default arch's 512×128 and 128×8
    # layers cross that switch, and a chunk there may differ in the last
    # bits (see the ``evaluation`` docstring).
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(rows=st.integers(1, 40), cuts=st.lists(st.integers(0, 40), max_size=8), seed=st.integers(0, 2**16),
           dtype=st.sampled_from(["float32", "float64"]), mode=st.sampled_from(["latent", "energy"]))
    @example(rows=5, cuts=[1, 2, 3, 4], seed=0, dtype="float32", mode="latent")
    @example(rows=5, cuts=[1, 2, 3, 4], seed=0, dtype="float32", mode="energy")
    @example(rows=1, cuts=[], seed=1, dtype="float64", mode="energy")
    def test_chunked_scores_equal_the_whole_design_bitwise(self, rows, cuts, seed, dtype, mode):
        arch = nets.ArchConfig(input_dim=256, n_components=8, encoder_widths=(64, 32),
                               discriminator_widths=(32, 16))
        model = nets.init_model(arch, seed, dtype=np.dtype(dtype))
        rng = np.random.default_rng(seed)
        design = rng.standard_normal((rows, arch.input_dim)).astype(dtype)
        gmm = mx.GmmParams.from_arrays(np.full(8, 1 / 8), rng.standard_normal((8, arch.latent_dim)),
                                       np.stack([np.eye(arch.latent_dim)] * 8))
        whole = ev.score_design(model, design, mode, gmm)
        bounds = sorted({c % rows for c in cuts} | {0, rows})
        chunks = [ev.score_design(model, design[a:b], mode, gmm) for a, b in zip(bounds, bounds[1:])]
        assert np.concatenate(chunks).tobytes() == whole.tobytes()

    def test_scoring_is_read_only(self):
        model, data, stats = self._model_and_data()
        before = [p.data.copy() for p in model.all_parameters()]
        ev.score_patchset(model, data, stats)
        for b, p in zip(before, model.all_parameters()):
            np.testing.assert_array_equal(b, p.data)
