"""Optimizer math, step isolation, determinism, and the training loop."""

import csv
import hashlib

import numpy as np
import pytest

from anomix import autodiff as ad
from anomix import evaluation as ev
from anomix import networks as nets
from anomix import training as tr
from anomix.errors import DataError, InvalidConfigError, InvalidInputError, NumericError
from anomix.features import LABEL_ANOMALOUS, PatchSet, gen_synthetic_dataset
from anomix.losses import LossWeights
from anomix.autodiff import Tensor

TINY_ARCH = nets.ArchConfig(
    input_dim=256, latent_dim=4, n_components=3,
    encoder_widths=(32, 16), discriminator_widths=(16,), estimator_widths=(8,),
)
TINY_CONFIG = tr.TrainConfig(epochs=2, batch_size=16, seed=0, checkpoint_every=10)
# The fit-narrow benchmark workload's arch.
NARROW_ARCH = nets.ArchConfig(
    input_dim=256, n_components=8, encoder_widths=(64, 32), discriminator_widths=(32, 16),
)


def tiny_data(seed=0, n=64):
    return gen_synthetic_dataset(seed, n, 0, shape=(16, 16))


def param_digest(params):
    h = hashlib.sha256()
    for p in params:
        h.update(p.data.tobytes())
    return h.hexdigest()


class TestAdam:
    def test_zero_gradient_zero_update(self):
        p = Tensor(np.array([1.0, -2.0]))
        state = tr.AdamState([p], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        tr.adam_update([p], [np.zeros(2)], state)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert not state.m[0].any() and not state.v[0].any()

    def test_first_step_hand_computed(self):
        # g=1, lr=1e-3, betas=(0.9, 0.999): bias correction gives
        # m_hat = 1, v_hat = 1, so the step is -lr/(1 + eps).
        p = Tensor(np.array([0.0]))
        state = tr.AdamState([p], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        tr.adam_update([p], [np.ones(1)], state)
        assert p.data[0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-12)

    def test_constant_gradient_update_approaches_lr(self):
        p = Tensor(np.array([0.0]))
        state = tr.AdamState([p], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        prev = p.data[0]
        for _ in range(2000):
            prev = p.data[0]
            tr.adam_update([p], [np.full(1, 0.37)], state)
        assert abs(p.data[0] - prev) == pytest.approx(1e-3, rel=1e-3)

    def test_blocked_update_is_bitwise_the_textbook_formula(self):
        # One tensor over two full blocks and a ragged tail, one 1-element tensor.
        self._check_bitwise_textbook([((2 * tr.ADAM_BLOCK // 64 + 1, 64), np.float64), ((1,), np.float64)])

    def test_mixed_dtype_group_updates_each_in_its_own_dtype(self):
        # As in a generator group: float32 networks beside the float64 estimator.
        self._check_bitwise_textbook([((tr.ADAM_BLOCK + 3,), np.float32), ((7, 5), np.float64),
                                      ((2 * tr.ADAM_BLOCK,), np.float64), ((3,), np.float32)])

    @staticmethod
    def _check_bitwise_textbook(layout):
        rng = np.random.default_rng(11)
        params = [Tensor(rng.standard_normal(s).astype(dtype)) for s, dtype in layout]
        lr, b1, b2, eps = 1e-3, 0.5, 0.999, 1e-8
        state = tr.AdamState(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros(s, dtype) for s, dtype in layout]
        ref_v = [np.zeros(s, dtype) for s, dtype in layout]
        for t in range(1, 6):
            grads = [(rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)).astype(dtype) for s, dtype in layout]
            for p, g, m, v in zip(ref_p, grads, ref_m, ref_v):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
            tr.adam_update(params, [g.copy() for g in grads], state)
            for got, want in zip(params, ref_p):
                assert got.data.tobytes() == want.tobytes()
            for got, want in zip(state.m + state.v, ref_m + ref_v):
                assert got.tobytes() == want.tobytes()

    def test_non_finite_parameter_in_last_block_raises(self):
        n = 2 * tr.ADAM_BLOCK + 5
        p = Tensor(np.zeros(n))
        state = tr.AdamState([p], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        g = np.ones(n)
        g[-1] = np.inf      # m / sqrt(v) = inf / inf: only the last element turns NaN
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            tr.adam_update([p], [g], state)

    def test_global_norm_clipping(self):
        grads = [np.array([3.0, 0.0]), np.array([0.0, 4.0])]
        tr.clip_global_norm(grads, 1.0)
        total = np.sqrt(sum((g * g).sum() for g in grads))
        assert total == pytest.approx(1.0)
        np.testing.assert_allclose(grads[0], [0.6, 0.0])


class TestTrainStep:
    def _state_and_batch(self, seed=0):
        state = tr.make_train_state(TINY_ARCH, tr.TrainConfig(seed=seed, batch_size=8))
        rng = np.random.default_rng(seed)
        return state, rng.standard_normal((8, 256))

    def test_deterministic(self):
        s1, batch = self._state_and_batch()
        s2, _ = self._state_and_batch()
        cfg = tr.TrainConfig(batch_size=8)
        b1 = tr.train_step(s1, batch, cfg)
        b2 = tr.train_step(s2, batch, cfg)
        assert param_digest(s1.model.all_parameters()) == param_digest(s2.model.all_parameters())
        assert b1 == b2

    def test_zero_weights_leave_parameters_unchanged(self):
        state, batch = self._state_and_batch()
        cfg = tr.TrainConfig(batch_size=8, weights=LossWeights(0.0, 0.0, 0.0, 0.0))
        before = param_digest(state.model.all_parameters())
        tr.train_step(state, batch, cfg)
        assert param_digest(state.model.all_parameters()) == before
        assert not any(m.any() for m in state.adam_generator.m)
        assert not any(m.any() for m in state.adam_discriminator.m)

    def test_discriminator_step_freezes_generator_and_vice_versa(self):
        state, batch = self._state_and_batch(3)
        cfg = tr.TrainConfig(batch_size=8, weights=LossWeights(w_image=1.0, w_adversarial=0.0,
                                                               w_latent=1.0, w_estimation=0.05))
        d_before = param_digest(state.model.discriminator_parameters())
        tr.train_step(state, batch, cfg)
        # adversarial weight 0: discriminator untouched, generator trained
        assert param_digest(state.model.discriminator_parameters()) == d_before

        cfg_full = tr.TrainConfig(batch_size=8)
        g_before = param_digest(state.model.generator_parameters())
        d_before = param_digest(state.model.discriminator_parameters())
        tr.train_step(state, batch, cfg_full)
        assert param_digest(state.model.generator_parameters()) != g_before
        assert param_digest(state.model.discriminator_parameters()) != d_before

    def test_composition_identity_every_step(self):
        state, batch = self._state_and_batch(7)
        cfg = tr.TrainConfig(batch_size=8)
        for _ in range(5):
            bd = tr.train_step(state, batch, cfg)
            assert abs(bd.total - bd.composed(cfg.weights)) < 1e-12

    def test_batch_of_one_rejected(self):
        state, batch = self._state_and_batch()
        with pytest.raises(InvalidInputError):
            tr.train_step(state, batch[:1], tr.TrainConfig(batch_size=8))

    def test_parameters_moments_and_gradients_after_one_step(self, monkeypatch):
        # float32 for the four big networks, float64 for the estimator.
        state, batch = self._state_and_batch()
        grad_dtypes = {}
        backward = ad.backward

        def recording_backward(loss, wrt):
            grads = backward(loss, wrt)
            grad_dtypes.update((id(t), g.dtype) for t, g in zip(wrt, grads))
            return grads

        monkeypatch.setattr(ad, "backward", recording_backward)
        tr.train_step(state, batch, tr.TrainConfig(batch_size=8))
        model = state.model
        moments = {}
        for adam, params in ((state.adam_generator, model.generator_parameters()),
                             (state.adam_discriminator, model.discriminator_parameters())):
            moments.update((id(p), (m.dtype, v.dtype)) for p, m, v in zip(params, adam.m, adam.v))
        for name in nets.NETWORK_NAMES:
            want = np.float64 if name == "estimator" else np.float32
            for p in model.network(name).parameters():
                assert (p.data.dtype, grad_dtypes[id(p)], *moments[id(p)]) == (want,) * 4, name

    def test_no_large_float64_array_in_a_step(self, monkeypatch):
        # Watches every tensor the step builds and every cotangent passed
        # to a node, before it is cast to the node's dtype.  The float64
        # mixture side works on arrays of up to [K x n x d] elements.
        state, batch = self._state_and_batch()
        tensors, cotangents = [], []
        init, accum = ad.Tensor.__init__, ad.Tensor._accum_cot

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            tensors.append((self._op, self.data.dtype, self.data.size, {p.data.dtype for p in self._parents}))

        def recording_accum(self, g):
            cotangents.append((self._op, g.dtype, np.size(g)))
            accum(self, g)

        monkeypatch.setattr(ad.Tensor, "__init__", recording_init)
        monkeypatch.setattr(ad.Tensor, "_accum_cot", recording_accum)
        tr.train_step(state, batch, tr.TrainConfig(batch_size=8))
        limit = len(batch) * TINY_ARCH.n_components * TINY_ARCH.latent_dim
        assert [t[:3] for t in tensors if t[1] == np.float64 and t[2] > limit] == []
        assert [c for c in cotangents if c[1] == np.float64 and c[2] > limit] == []
        # The latent is cast once, and the mixture ops see only float64.
        assert [t[0] for t in tensors].count("cast") == 1
        mixture_ops = ("mixture_means", "mixture_covariances", "gaussian_log_densities")
        assert all(t[3] == {np.dtype(np.float64)} for t in tensors if t[0] in mixture_ops)

    @pytest.mark.slow
    def test_loss_decreases_on_synthetic_data(self):
        # Median generator total over steps 90-100 must drop below the
        # median over steps 0-10, for 5 independent seeds.
        wins = 0
        for seed in range(5):
            data = gen_synthetic_dataset(seed, 220, 0, shape=(16, 16))
            cfg = tr.TrainConfig(epochs=8, batch_size=16, seed=seed)
            result = tr.fit(cfg, TINY_ARCH, data)
            totals = [b.total for b in result.history]
            assert len(totals) >= 100
            early = np.median(totals[0:10])
            late = np.median(totals[90:100])
            if late < early:
                wins += 1
        assert wins == 5


class TestFit:
    def test_zero_epochs_returns_initialized_state(self):
        data = tiny_data()
        cfg = tr.TrainConfig(epochs=0, batch_size=16, seed=5)
        result = tr.fit(cfg, TINY_ARCH, data)
        fresh = nets.init_model(TINY_ARCH, 5)
        assert param_digest(result.model.all_parameters()) == param_digest(fresh.all_parameters())
        assert result.history == []

    def test_metrics_csv_rows_match_steps(self, tmp_path):
        data = tiny_data()
        metrics = tmp_path / "metrics.csv"
        cfg = tr.TrainConfig(epochs=2, batch_size=16, seed=1)
        result = tr.fit(cfg, TINY_ARCH, data, metrics_path=metrics)
        with metrics.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == tr.METRICS_HEADER
        assert len(rows) - 1 == len(result.history) == 2 * (64 // 16)
        for row, bd in zip(rows[1:], result.history):
            assert float(row[7]) == bd.total

    def test_checkpoints_byte_identical_across_runs(self, tmp_path):
        data = tiny_data()
        cfg = tr.TrainConfig(epochs=1, batch_size=16, seed=9)
        p1, p2 = tmp_path / "a.gmgc", tmp_path / "b.gmgc"
        tr.fit(cfg, TINY_ARCH, data, checkpoint_path=p1)
        tr.fit(cfg, TINY_ARCH, data, checkpoint_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("mode", ["latent", "energy"])
    def test_reloaded_checkpoint_scores_bit_equal(self, tmp_path, mode):
        path = tmp_path / "model.gmgc"
        result = tr.fit(TINY_CONFIG, TINY_ARCH, tiny_data(), checkpoint_path=path)
        ckpt = nets.load_checkpoint(path)
        test = gen_synthetic_dataset(1, 8, 8, shape=(16, 16))
        scores = [ev.score_patchset(m, test, stats, mode=mode, gmm=gmm, group_by_clip=False)
                  for m, stats, gmm in ((result.model, result.norm_stats, result.gmm),
                                        (ckpt.model, ckpt.norm_stats, ckpt.gmm))]
        assert [s.score for s in scores[0]] == [s.score for s in scores[1]]

    def test_rejects_anomalous_training_data(self):
        data = gen_synthetic_dataset(0, 30, 5, shape=(16, 16))
        assert np.any(data.labels == LABEL_ANOMALOUS)
        with pytest.raises(DataError):
            tr.fit(TINY_CONFIG, TINY_ARCH, data)

    def test_rejects_empty_dataset(self):
        data = PatchSet(patches=np.zeros((0, 16, 16)))
        with pytest.raises(InvalidInputError):
            tr.fit(TINY_CONFIG, TINY_ARCH, data)

    def test_rejects_fewer_patches_than_batch(self, tmp_path):
        metrics = tmp_path / "metrics.csv"
        with pytest.raises(InvalidInputError):
            tr.fit(tr.TrainConfig(batch_size=64), TINY_ARCH, tiny_data(n=10), metrics_path=metrics)
        assert not metrics.exists()

    def test_rejects_invalid_arch_before_any_state(self, tmp_path):
        metrics = tmp_path / "metrics.csv"
        arch = nets.ArchConfig(input_dim=256, latent_dim=0)
        with pytest.raises(InvalidConfigError, match="latent_dim"):
            tr.fit(TINY_CONFIG, arch, tiny_data(), metrics_path=metrics)
        assert not metrics.exists()

    def test_rejects_mismatched_arch(self):
        with pytest.raises(InvalidConfigError):
            tr.fit(TINY_CONFIG, nets.ArchConfig(input_dim=100), tiny_data())

    def test_final_mixture_satisfies_invariants(self):
        result = tr.fit(TINY_CONFIG, TINY_ARCH, tiny_data())
        result.gmm.validate()
        alpha, _, _ = result.gmm.as_arrays()
        assert abs(alpha.sum() - 1.0) < 1e-9


def test_training_beats_untrained_model():
    # The detection gate: an untrained model (random weights plus the
    # full-dataset mixture) already separates these patches, so a change
    # that stops training from helping must show as a smaller AUC gain.
    # Train on 256 normal patches, score 128 held-out normal and 128
    # anomalous ones patch by patch.
    aucs = {0: [], 3: []}
    for seed in range(5):
        data = gen_synthetic_dataset(seed, 384, 128, shape=(16, 16), shift=4.0)
        train = PatchSet(patches=data.patches[:256], labels=data.labels[:256])
        test = PatchSet(patches=data.patches[256:], labels=data.labels[256:])
        for epochs in aucs:
            result = tr.fit(tr.TrainConfig(epochs=epochs, batch_size=32, seed=seed), NARROW_ARCH, train)
            scores = ev.score_patchset(result.model, test, result.norm_stats, group_by_clip=False)
            aucs[epochs].append(ev.auc(scores).auc)
    assert np.mean(aucs[3]) >= np.mean(aucs[0]) + 0.05, aucs


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(epochs=-1),
        dict(batch_size=1),
        dict(lr_generator=0.0),
        dict(adam_beta1=1.0),
        dict(checkpoint_every=0),
        dict(epochs=float("nan")),
        dict(batch_size=float("nan")),
        dict(checkpoint_every=float("nan")),
        dict(lr_generator=float("nan")),
        dict(lr_discriminator=float("inf")),
        dict(adam_eps=0.0),
        dict(adam_eps=float("nan")),
        dict(grad_clip=0.0),
        dict(grad_clip=-1.0),
        dict(grad_clip=float("nan")),
        dict(grad_clip=float("inf")),
        dict(cov_eps=-1e-6),
        dict(cov_eps=float("nan")),
        dict(lambda1=-0.1),
        dict(lambda1=float("nan")),
        dict(lambda2=float("inf")),
        dict(weights=LossWeights(w_image=-1.0)),
        dict(weights=LossWeights(w_adversarial=float("nan"))),
        dict(weights=LossWeights(w_latent=float("inf"))),
        dict(weights=LossWeights(w_estimation=float("nan"))),
    ])
    def test_invalid_configs_rejected(self, bad):
        cfg = tr.TrainConfig(**bad)
        with pytest.raises(InvalidConfigError):
            cfg.validate()

    def test_zero_loss_weights_and_cov_eps_are_valid(self):
        tr.TrainConfig(weights=LossWeights(0.0, 0.0, 0.0, 0.0), cov_eps=0.0, lambda1=0.0).validate()
