"""Optimizer math, step isolation, determinism, and the training loop."""

import csv
import hashlib

import numpy as np
import pytest

from anomix import networks as nets
from anomix import training as tr
from anomix.errors import DataError, InvalidConfigError, InvalidInputError
from anomix.features import LABEL_ANOMALOUS, gen_synthetic_dataset
from anomix.losses import LossWeights
from anomix.autodiff import Tensor

TINY_ARCH = nets.ArchConfig(
    input_dim=256, latent_dim=4, n_components=3,
    encoder_widths=(32, 16), discriminator_widths=(16,), estimator_widths=(8,),
)
TINY_CONFIG = tr.TrainConfig(epochs=2, batch_size=16, seed=0, checkpoint_every=10)


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
        rows = list(csv.reader(metrics.open()))
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

    def test_rejects_anomalous_training_data(self):
        data = gen_synthetic_dataset(0, 30, 5, shape=(16, 16))
        assert np.any(data.labels == LABEL_ANOMALOUS)
        with pytest.raises(DataError):
            tr.fit(TINY_CONFIG, TINY_ARCH, data)

    def test_rejects_empty_dataset(self):
        data = tiny_data().subset(np.array([], dtype=int))
        with pytest.raises(InvalidInputError):
            tr.fit(TINY_CONFIG, TINY_ARCH, data)

    def test_rejects_fewer_patches_than_batch(self, tmp_path):
        metrics = tmp_path / "metrics.csv"
        with pytest.raises(InvalidInputError):
            tr.fit(tr.TrainConfig(batch_size=64), TINY_ARCH, tiny_data(n=10), metrics_path=metrics)
        assert not metrics.exists()

    def test_rejects_mismatched_arch(self):
        with pytest.raises(InvalidConfigError):
            tr.fit(TINY_CONFIG, nets.ArchConfig(input_dim=100), tiny_data())

    def test_final_mixture_satisfies_invariants(self):
        result = tr.fit(TINY_CONFIG, TINY_ARCH, tiny_data())
        result.gmm.validate()
        alpha, _, _ = result.gmm.as_arrays()
        assert abs(alpha.sum() - 1.0) < 1e-9


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(epochs=-1),
        dict(batch_size=1),
        dict(lr_generator=0.0),
        dict(adam_beta1=1.0),
        dict(checkpoint_every=0),
    ])
    def test_invalid_configs_rejected(self, bad):
        cfg = tr.TrainConfig(**bad)
        with pytest.raises(InvalidConfigError):
            cfg.validate()
