"""Optimizer math, step isolation, determinism, and the training loop."""

import csv
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import anomix
from anomix import autodiff as ad
from anomix import evaluation as ev
from anomix import networks as nets
from anomix import training as tr
from anomix.errors import DataError, InvalidConfigError, InvalidInputError, NumericError
from anomix.features import LABEL_ANOMALOUS, NormStats, PatchSet, compute_norm_stats
from anomix.losses import LossWeights
from anomix.autodiff import Tensor
from synthetic import gen_synthetic_dataset

TINY_ARCH = nets.ArchConfig(
    input_dim=256, latent_dim=4, n_components=3,
    encoder_widths=(32, 16), discriminator_widths=(16,), estimator_widths=(8,),
)
TINY_CONFIG = tr.TrainConfig(epochs=2, batch_size=16, seed=0)
# The fit-narrow benchmark workload's arch.
NARROW_ARCH = nets.ArchConfig(
    input_dim=256, n_components=8, encoder_widths=(64, 32), discriminator_widths=(32, 16),
)


def oracle_clip(grads, max_norm):
    """The clip factor from one dot product per whole gradient array, or
    None when the group's norm is within max_norm."""
    norm = math.sqrt(sum(float(np.dot(g.ravel(), g.ravel())) for g in grads))
    return max_norm / norm if norm > max_norm else None


def oracle_adam(state, grads, scale=None):
    """Whole-array Adam in the efficient form of Kingma & Ba (end of
    section 2) on the gradients times ``scale``.  Every coefficient is a
    Python float: a float64 one would compute a float32 array in float64
    and change its bits."""
    state.step_count += 1
    t, b1, b2 = state.step_count, state.beta1, state.beta2
    alpha = state.lr * math.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
    eps_hat = state.eps * math.sqrt(1.0 - b2 ** t)
    k1 = (1.0 - b1) * (1.0 if scale is None else scale)
    for p, g, m, v in zip(state.params, grads, state.m, state.v):
        mg = g * k1
        m *= b1
        m += mg
        v *= b2
        v += mg * mg * ((1.0 - b2) / (1.0 - b1) ** 2)
        p.data -= m / (np.sqrt(v) + eps_hat) * alpha


def textbook_adam_step(p, g, m, v, t, lr, b1, b2, eps):
    """Step t of textbook Adam (Kingma & Ba, Algorithm 1) on whole arrays, in place."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    p -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)


def exact_norm(grads):
    """The group's norm from the correctly rounded float64 sum of squares."""
    return math.sqrt(math.fsum(np.concatenate([np.square(g, dtype=np.float64).ravel() for g in grads])))


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
        tr.adam_update(state, [np.zeros(2)])
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert not state.m[0].any() and not state.v[0].any()

    def test_first_step_hand_computed(self):
        # g=1, lr=1e-3, betas=(0.9, 0.999): bias correction gives
        # m_hat = 1, v_hat = 1, so the step is -lr/(1 + eps).
        p = Tensor(np.array([0.0]))
        state = tr.AdamState([p], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        tr.adam_update(state, [np.ones(1)])
        assert p.data[0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-12)

    def test_constant_gradient_update_approaches_lr(self):
        p = Tensor(np.array([0.0]))
        state = tr.AdamState([p], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        prev = p.data[0]
        for _ in range(2000):
            prev = p.data[0]
            tr.adam_update(state, [np.full(1, 0.37)])
        assert abs(p.data[0] - prev) == pytest.approx(1e-3, rel=1e-3)

    def test_float32_zero_gradient_leaves_parameters_unchanged(self):
        p = Tensor(np.array([1.0, -2.0, 3e-7], np.float32))
        before = p.data.tobytes()
        state = tr.AdamState([p], lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        for _ in range(3):
            g = np.zeros(3, np.float32)
            tr.adam_update(state, [g], tr.clip_global_norm([g], 1.0))
        assert p.data.tobytes() == before
        assert not state.m[0].any() and not state.v[0].any()

    def test_blocked_update_is_bitwise_the_whole_array_formula(self):
        # One tensor over two full blocks and a ragged tail, one 1-element tensor.
        self._check_bitwise_efficient_form([((2 * tr.ADAM_BLOCK // 64 + 1, 64), np.float64), ((1,), np.float64)])

    def test_mixed_dtype_group_updates_each_in_its_own_dtype(self):
        # As in a generator group: float32 networks beside the float64 estimator.
        self._check_bitwise_efficient_form([((tr.ADAM_BLOCK + 3,), np.float32), ((7, 5), np.float64),
                                            ((2 * tr.ADAM_BLOCK,), np.float64), ((3,), np.float32)])

    def test_many_small_parameters_span_several_packs(self):
        # Sizes from 1 to just under a block, 2-D and 1-D, about five packs' worth.
        rng = np.random.default_rng(3)
        layout = [((int(n),), np.float32) for n in rng.integers(1, tr.ADAM_BLOCK // 6, 30)]
        layout += [((3, 17), np.float32), ((tr.ADAM_BLOCK - 1,), np.float32), ((1,), np.float32)]
        state = self._check_bitwise_efficient_form(layout)
        assert sum(len(parts) > 1 for parts, *_ in state.plan) >= 3

    def test_large_parameter_between_small_ones(self):
        self._check_bitwise_efficient_form([((5, 7), np.float32), ((11,), np.float32),
                                            ((tr.ADAM_BLOCK // 8 + 1, 16), np.float32),
                                            ((13,), np.float32), ((tr.ADAM_BLOCK,), np.float32), ((2, 3), np.float32)])

    def test_interleaved_dtypes_pack_per_dtype(self):
        self._check_bitwise_efficient_form([((40, 9), np.float32), ((9,), np.float64), ((9, 4), np.float64),
                                            ((4,), np.float32), ((tr.ADAM_BLOCK + 9,), np.float64),
                                            ((700,), np.float32), ((1,), np.float64)])

    @staticmethod
    def _check_bitwise_efficient_form(layout):
        """Five steps of the production clip and Adam against whole-array
        updates in the same form (``oracle_adam``), once with the clip
        firing on every step and once with it never firing."""
        for max_norm in (1e-9, 1e12):
            rng = np.random.default_rng(11)
            params = [Tensor(rng.standard_normal(s).astype(dtype)) for s, dtype in layout]
            ref_params = [Tensor(p.data.copy()) for p in params]
            state, ref_state = (tr.AdamState(ps, lr=1e-3, beta1=0.5, beta2=0.999, eps=1e-8)
                                for ps in (params, ref_params))
            for _ in range(5):
                grads = [(rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)).astype(dtype)
                         for s, dtype in layout]
                scale = tr.clip_global_norm(grads, max_norm)
                assert (scale is None) == (max_norm > 1.0)
                if scale is not None:
                    assert type(scale) is float
                    assert scale == pytest.approx(max_norm / exact_norm(grads), rel=1e-6)
                oracle_adam(ref_state, grads, scale)
                tr.adam_update(state, grads, scale)
                for got, want in zip(params, ref_params):
                    assert got.data.tobytes() == want.data.tobytes()
                for got, want in zip(state.m + state.v, ref_state.m + ref_state.v):
                    assert got.tobytes() == want.tobytes()
        return state

    @pytest.mark.parametrize("max_norm", [1e-3, 1e12], ids=["clipped", "unclipped"])
    def test_efficient_form_matches_textbook_adam(self, max_norm):
        # float64, five steps, the clip firing on each (1e-3) or never
        # (1e12).  Gradient magnitudes run down to 1e-9, where
        # sqrt(v_hat) is of the order of eps, so the step is only right
        # with eps * sqrt(1 - b2^t) in place of eps.  Parameters start at
        # zero and each element's gradient keeps its sign, so the
        # parameters are sums of same-signed steps and compare relatively.
        rng = np.random.default_rng(15)
        shapes = [(tr.ADAM_BLOCK + 40,), (30, 7), (5,)]
        lr, b1, b2, eps = 1e-3, 0.5, 0.999, 1e-8
        base = [rng.choice([-1.0, 1.0], s) * 10.0 ** rng.uniform(-9, 1, s) for s in shapes]
        params = [Tensor(np.zeros(s)) for s in shapes]
        state = tr.AdamState(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        ref_p, ref_m, ref_v = ([np.zeros(s) for s in shapes] for _ in range(3))
        for t in range(1, 6):
            grads = [b * rng.uniform(0.5, 2.0, b.shape) for b in base]
            norm = exact_norm(grads)
            assert (norm > max_norm) == (max_norm < 1.0)
            clipped = [g * min(1.0, max_norm / norm) for g in grads]
            tr.adam_update(state, grads, tr.clip_global_norm(grads, max_norm))
            for p, g, m, v in zip(ref_p, clipped, ref_m, ref_v):
                textbook_adam_step(p, g, m, v, t, lr, b1, b2, eps)
            for got, want in zip([p.data for p in params] + state.m + state.v, ref_p + ref_m + ref_v):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)], ids=["float32", "float64"])
    def test_norm_is_within_rounding_of_the_exact_sum(self, dtype, rtol):
        # Read back from the factor, as max_norm / factor, for each array
        # alone and for all of them as one group.
        rng = np.random.default_rng(12)
        sizes = [*range(1, 20), *range(120, 137)]
        for edge in (tr.ADAM_BLOCK, 2 * tr.ADAM_BLOCK, 5 * tr.ADAM_BLOCK):
            sizes += [edge + d for d in (-9, -8, -7, -1, 0, 1, 7, 8, 9, 16, 17)]
        grads = [(rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3)).astype(dtype) for n in sizes]
        max_norm = 1e-30
        for group in [[g] for g in grads] + [grads]:
            norm = max_norm / tr.clip_global_norm(group, max_norm)
            assert norm == pytest.approx(exact_norm(group), rel=rtol), len(group[0])

    def test_float32_group_with_a_norm_near_1e18_updates_as_float64(self):
        # A clip factor of ~5e-18 on float32 gradients of ~1e15-1e16: the
        # step must neither underflow nor lose precision.  The oracle is
        # textbook Adam in float64 on the same gradients.
        rng = np.random.default_rng(16)
        shapes = [(tr.ADAM_BLOCK + 3,), (7, 5)]
        lr, b1, b2, eps = 1e-3, 0.5, 0.999, 1e-8
        base = [rng.choice([-1.0, 1.0], s) * rng.uniform(0.5, 2.0, s) for s in shapes]
        params = [Tensor(np.zeros(s, np.float32)) for s in shapes]
        state = tr.AdamState(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
        ref_p, ref_m, ref_v = ([np.zeros(s) for s in shapes] for _ in range(3))
        for t in range(1, 6):
            grads = [(b * rng.uniform(0.5, 2.0, b.shape)).astype(np.float32) for b in base]
            to_1e18 = np.float32(1e18 / exact_norm(grads))
            grads = [g * to_1e18 for g in grads]
            scale = tr.clip_global_norm(grads, 5.0)
            assert scale == pytest.approx(5e-18, rel=1e-5)
            clipped = [g.astype(np.float64) * (5.0 / exact_norm(grads)) for g in grads]
            tr.adam_update(state, grads, scale)
            for p, g, m, v in zip(ref_p, clipped, ref_m, ref_v):
                textbook_adam_step(p, g, m, v, t, lr, b1, b2, eps)
        for got, want in zip(params, ref_p):
            np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=0)

    def test_update_only_reads_the_gradients(self):
        # A parameter over several blocks, small ones sharing a block, two
        # dtypes; the clip firing and not.
        rng = np.random.default_rng(18)
        layout = [((tr.ADAM_BLOCK + 5,), np.float32), ((3, 4), np.float32), ((6,), np.float64),
                  ((2 * tr.ADAM_BLOCK // 7, 7), np.float64)]
        params = [Tensor(rng.standard_normal(s).astype(dtype)) for s, dtype in layout]
        state = tr.AdamState(params, lr=1e-3, beta1=0.5, beta2=0.999, eps=1e-8)
        for max_norm in (1e-3, 1e12):
            grads = [rng.standard_normal(s).astype(dtype) for s, dtype in layout]
            before = [g.tobytes() for g in grads]
            tr.adam_update(state, grads, tr.clip_global_norm(grads, max_norm))
            assert [g.tobytes() for g in grads] == before

    def test_construction_keeps_every_value_shape_and_dtype(self):
        # A 0-d, a Fortran-ordered and a multi-block parameter, -0.0 and a
        # subnormal among the values.
        rng = np.random.default_rng(19)
        arrays = [rng.standard_normal(()), np.asfortranarray(rng.standard_normal((3, 5)).astype(np.float32)),
                  rng.standard_normal((tr.ADAM_BLOCK + 3,)).astype(np.float32), rng.standard_normal((5, 2))]
        arrays[1][0, :2] = [-0.0, np.finfo(np.float32).smallest_subnormal]
        params = [Tensor(a) for a in arrays]
        before = [(p.data.tobytes(), p.data.shape, p.data.dtype) for p in params]
        state = tr.AdamState(params, lr=1e-3, beta1=0.5, beta2=0.999, eps=1e-8)
        assert [(p.data.tobytes(), p.data.shape, p.data.dtype) for p in params] == before
        assert state.params == params

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(sizes=st.lists(st.one_of(st.integers(1, 40),
                                    st.integers(tr.ADAM_BLOCK - 40, tr.ADAM_BLOCK + 40),
                                    st.integers(2 * tr.ADAM_BLOCK - 20, 2 * tr.ADAM_BLOCK + 20)),
                          min_size=1, max_size=6),
           dtypes=st.lists(st.sampled_from(["float32", "float64"]), min_size=6, max_size=6))
    # A small parameter straddling a block edge, in one dtype and in each of two.
    @example(sizes=[tr.ADAM_BLOCK - 3, 7, tr.ADAM_BLOCK + 1, 2], dtypes=["float32"] * 6)
    @example(sizes=[tr.ADAM_BLOCK - 1, tr.ADAM_BLOCK - 5, 3, 9, 1], dtypes=["float32", "float64"] * 3)
    def test_plan_tiles_the_buffers_and_covers_every_gradient_element_once(self, sizes, dtypes):
        # Each element's value is its index in the group, so a part whose
        # values match its parameter's slice is that slice.
        firsts = np.cumsum([0, *sizes])
        params = [Tensor((first + np.arange(n)).astype(dtype)) for first, n, dtype in zip(firsts, sizes, dtypes)]
        state = tr.AdamState(params, lr=1e-3, beta1=0.5, beta2=0.999, eps=1e-8)
        covered = [np.zeros(n, int) for n in sizes]
        tiled = {}      # dtype -> elements of its buffers the blocks so far tile
        for parts, *buffers in state.plan:
            values = buffers[0]
            assert 1 <= values.size <= tr.ADAM_BLOCK
            assert {(b.size, b.dtype) for b in buffers} == {(values.size, values.dtype)}
            lo = tiled.get(values.dtype, 0)
            for flat in buffers[:3]:
                assert (flat.ctypes.data - flat.base.ctypes.data) // flat.itemsize == lo
            tiled[values.dtype] = lo + values.size
            in_block = np.zeros(values.size, int)
            for i, source, target in parts:
                value_part = params[i].data.reshape(-1)[source]
                assert np.shares_memory(values[target], value_part)
                assert values[target].tobytes() == value_part.tobytes()
                covered[i][source] += 1
                in_block[target] += 1
            assert (in_block == 1).all()
        totals = {}
        for n, dtype in zip(sizes, dtypes):
            totals[np.dtype(dtype)] = totals.get(np.dtype(dtype), 0) + n
        assert tiled == totals
        assert all((c == 1).all() for c in covered)

    def test_update_keeps_every_parameter_array(self):
        rng = np.random.default_rng(13)
        shapes = [(tr.ADAM_BLOCK + 5,), (3, 4), (6,), (tr.ADAM_BLOCK // 2 + 1,)]
        params = [Tensor(rng.standard_normal(s).astype(np.float32)) for s in shapes]
        state = tr.AdamState(params, lr=1e-3, beta1=0.5, beta2=0.999, eps=1e-8)
        arrays = [p.data for p in params]
        for _ in range(3):
            grads = [rng.standard_normal(s).astype(np.float32) for s in shapes]
            tr.adam_update(state, grads, tr.clip_global_norm(grads, 1.0))
        assert all(p.data is a for p, a in zip(params, arrays))

    def test_clip_and_update_allocate_no_full_size_temporary(self):
        # A 4-block parameter: a full-size float64 temporary would be 1 MiB.
        rng = np.random.default_rng(14)
        shapes = [(4 * tr.ADAM_BLOCK,), (100,), (7, 9)]
        params = [Tensor(rng.standard_normal(s)) for s in shapes]
        state = tr.AdamState(params, lr=1e-3, beta1=0.5, beta2=0.999, eps=1e-8)
        grads = [rng.standard_normal(s) for s in shapes]
        tracemalloc.start()
        try:
            tr.adam_update(state, grads, tr.clip_global_norm(grads, 1e-3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * tr.ADAM_BLOCK * 8, peak

    def test_non_finite_parameter_in_last_block_raises(self):
        n = 2 * tr.ADAM_BLOCK + 5
        p = Tensor(np.zeros(n))
        state = tr.AdamState([p], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        g = np.ones(n)
        g[-1] = np.inf      # m / sqrt(v) = inf / inf: only the last element turns NaN
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            tr.adam_update(state, [g])

    def test_infinite_gradient_with_the_clip_firing_raises(self):
        # The norm is inf, so the factor is 0, and inf * 0 is NaN.
        rng = np.random.default_rng(17)
        params = [Tensor(rng.standard_normal(s).astype(np.float32)) for s in ((tr.ADAM_BLOCK + 1,), (9,))]
        state = tr.AdamState(params, lr=1e-3, beta1=0.5, beta2=0.999, eps=1e-8)
        grads = [rng.standard_normal(p.shape).astype(np.float32) for p in params]
        grads[1][4] = np.inf
        scale = tr.clip_global_norm(grads, 1.0)
        assert scale == 0.0
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            tr.adam_update(state, grads, scale)

    def test_float32_squared_norm_overflow_still_clips(self):
        # Each 1e20 squares past float32's ~3.4e38, but the norm, 2e20,
        # is finite: the dots are taken again in float64, so the factor
        # is the true one and the step moves the parameters.
        p = Tensor(np.zeros(4, np.float32))
        state = tr.AdamState([p], lr=1e-3, beta1=0.5, beta2=0.999, eps=1e-8)
        g = np.full(4, 1e20, np.float32)
        scale = tr.clip_global_norm([g], 5.0)
        assert scale == pytest.approx(5.0 / 2e20, rel=1e-6)
        tr.adam_update(state, [g], scale)
        np.testing.assert_allclose(p.data, -1e-3, rtol=1e-4)

    def test_global_norm_clipping(self):
        # The joint norm is 5: the factor scales it to 1 and leaves the
        # gradients as they are; within max_norm there is no factor.  The
        # factor is a Python float in either dtype.
        for dtype in (np.float64, np.float32):
            grads = [np.array([3.0, 0.0], dtype), np.array([0.0, 4.0], dtype)]
            scale = tr.clip_global_norm(grads, 1.0)
            assert type(scale) is float and scale == 1.0 / 5.0
            np.testing.assert_array_equal(grads[0], [3.0, 0.0])
            np.testing.assert_array_equal(grads[1], [0.0, 4.0])
            scaled = [g * scale for g in grads]
            assert all(g.dtype == dtype for g in scaled)
            assert np.sqrt(sum((g * g).sum() for g in scaled)) == pytest.approx(1.0)
            np.testing.assert_allclose(scaled[0], [0.6, 0.0])
            assert tr.clip_global_norm(grads, 5.0) is None


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

    @pytest.mark.parametrize("name, value", [
        ("LR_GENERATOR", 2e-3), ("LR_DISCRIMINATOR", 2e-4), ("ADAM_BETA1", 0.9),
        ("ADAM_BETA2", 0.9), ("ADAM_EPS", 1e-2), ("GRAD_CLIP", 1e-3),
        ("LAMBDA1", 1.0), ("LAMBDA2", 0.5),
    ])
    def test_each_training_constant_reaches_the_update(self, name, value, monkeypatch):
        # Two steps: on the first, bias-corrected Adam's update does not
        # depend on the betas, and a clip factor only scales m and v.
        def two_steps():
            state, _ = self._state_and_batch()
            rng = np.random.default_rng(1)
            for _ in range(2):
                tr.train_step(state, rng.standard_normal((8, 256)), tr.TrainConfig(batch_size=8))
            return [p.data.copy() for p in state.model.all_parameters()]

        base = two_steps()
        monkeypatch.setattr(tr, name, value)
        moved = two_steps()
        # Far above float32 rounding of these parameters.
        assert max(float(np.max(np.abs(a - b))) for a, b in zip(moved, base)) > 1e-5

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
            w = cfg.weights
            composed = (w.w_image * bd.image_reconstruction + w.w_adversarial * bd.adversarial_generator
                        + w.w_latent * bd.latent_reconstruction + w.w_estimation * bd.estimation)
            assert abs(bd.total - composed) < 1e-12

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
        # to a node.  The float64
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

    def test_two_steps_equal_the_whole_array_oracle(self, monkeypatch):
        # The oracle clip takes one dot per whole gradient array (every
        # TINY_ARCH array fits one leaf, so the factor is the same); the
        # oracle Adam then updates whole arrays.
        states = []
        fired = []

        def recording_clip(grads, max_norm):
            scale = oracle_clip(grads, max_norm)
            fired.append(scale is not None)
            return scale

        for use_oracle in (False, True):
            state, batch = self._state_and_batch(5)
            with monkeypatch.context() as patch:
                if use_oracle:
                    patch.setattr(tr, "clip_global_norm", recording_clip)
                    patch.setattr(tr, "adam_update", oracle_adam)
                for _ in range(2):
                    tr.train_step(state, batch, tr.TrainConfig(batch_size=8))
            states.append(state)
        # discriminator, generator per step: the clip fires on the generator
        assert fired == [False, True, False, True]
        assert param_digest(states[0].model.all_parameters()) == param_digest(states[1].model.all_parameters())
        for group in ("adam_generator", "adam_discriminator"):
            got, want = getattr(states[0], group), getattr(states[1], group)
            assert [a.tobytes() for a in got.m + got.v] == [a.tobytes() for a in want.m + want.v]

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


def nodes_made_by(fn) -> int:
    """How many graph nodes ``fn()`` creates (each probe takes an id too)."""
    first = Tensor(0.0).node_id
    fn()
    return Tensor(0.0).node_id - first - 1


class TestGraphSize:
    """Exact node counts on TINY_ARCH: a network layer split back into
    several nodes, or a constant made a node again, changes them."""

    def _state_and_design(self):
        state = tr.make_train_state(TINY_ARCH, TINY_CONFIG)
        return state, np.random.default_rng(7).standard_normal((16, 256)).astype(np.float32)

    def test_one_train_step(self):
        state, design = self._state_and_design()
        # One dense node per layer: encoder 3, decoder 3, discriminator
        # 2 three times, auxiliary encoder 3, estimator 2.  The other 19:
        # the input, the decoder's output scale (a weighted_sum), the
        # latent cast, the membership softmax; the discriminator loss's
        # two cross-entropies and their sum; the image, latent and
        # generator-adversarial terms; the mixture weights, means and
        # covariances; the estimation loss's log densities, energy,
        # energy sum, penalty and weighted sum; and the total.
        assert nodes_made_by(lambda: tr.train_step(state, design, TINY_CONFIG)) == 17 + 19

    @pytest.mark.parametrize("mode, layers, others", [
        # input and output scale; the distance is plain numpy
        ("latent", 9, 2),
        # input, latent cast, log densities and energy
        ("energy", 3, 4),
    ])
    def test_one_score_design_call(self, mode, layers, others):
        state, design = self._state_and_design()
        gmm = tr.full_dataset_mixture(state.model, design, TINY_CONFIG.cov_eps)
        assert nodes_made_by(lambda: ev.score_design(state.model, design, mode, gmm)) == layers + others


# A default-arch fit and its scores in both modes, printed as two digests:
# the checkpoint file's and the scores'.  argv[1] is the checkpoint path.
FIT_AND_SCORE = """
import hashlib, sys
import numpy as np
from anomix import evaluation as ev, networks as nets, training as tr
from synthetic import gen_synthetic_dataset
result = tr.fit(tr.TrainConfig(epochs=1, batch_size=32, seed=3), nets.ArchConfig(),
                gen_synthetic_dataset(3, 64, 0), checkpoint_path=sys.argv[1])
test = gen_synthetic_dataset(4, 16, 16)
scores = [s.score for mode in ev.SCORE_MODES for s in ev.score_patchset(
    result.model, test, result.norm_stats, mode=mode, gmm=result.gmm, group_by_clip=False)]
with open(sys.argv[1], "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest(), hashlib.sha256(np.array(scores).tobytes()).hexdigest())
"""


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
        assert all(len(row) == len(tr.METRICS_HEADER) for row in rows)
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

    def test_checkpoint_and_scores_do_not_depend_on_blas_threads(self, tmp_path):
        src = str(Path(anomix.__file__).resolve().parent.parent)
        tests = str(Path(__file__).resolve().parent)
        digests = []
        for threads in (1, 2):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))}
            run = subprocess.run([sys.executable, "-c", FIT_AND_SCORE, str(tmp_path / f"{threads}.gmgc")],
                                 env=env, capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout.split())
        assert digests[0] == digests[1]

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

    def test_fit_stats_are_the_training_patches_own_and_are_checkpointed(self, tmp_path):
        data, path = tiny_data(), tmp_path / "model.gmgc"
        result = tr.fit(tr.TrainConfig(epochs=0, batch_size=16), TINY_ARCH, data, checkpoint_path=path)
        want = compute_norm_stats(data.patches)
        for stats in (result.norm_stats, nets.load_checkpoint(path).norm_stats):
            np.testing.assert_array_equal(stats.mean, want.mean)
            np.testing.assert_array_equal(stats.std, want.std)

    def test_fit_and_scoring_normalize_into_the_networks_dtype(self, monkeypatch):
        dtypes = []
        apply = NormStats.apply

        def recording_apply(self, patches, dtype=np.float64):
            dtypes.append(dtype)
            return apply(self, patches, dtype)

        monkeypatch.setattr(NormStats, "apply", recording_apply)
        result = tr.fit(tr.TrainConfig(epochs=0, batch_size=16), TINY_ARCH, tiny_data())
        ev.score_patchset(result.model, tiny_data(1, 8), result.norm_stats)
        assert dtypes == [np.float32, np.float32]

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
        for bad in (dict(latent_dim=0), dict(latent_dim=2.5), dict(encoder_widths=(8.0,)),
                    dict(n_components=3.0), dict(input_dim="256"), dict(leaky_slope="0.2"),
                    dict(output_scale=None), dict(encoder_widths=[32, 16]),
                    dict(estimator_widths=[8]), dict(latent_dim=True), dict(output_scale=True),
                    dict(estimator_widths=(True,)), dict(leaky_slope=False)):
            arch = nets.ArchConfig(**{**dict(input_dim=256), **bad})
            with pytest.raises(InvalidConfigError, match=next(iter(bad))):
                tr.fit(TINY_CONFIG, arch, tiny_data(), metrics_path=metrics)
            assert not metrics.exists()

    def test_rejects_mismatched_arch(self):
        with pytest.raises(InvalidConfigError):
            tr.fit(TINY_CONFIG, nets.ArchConfig(input_dim=100), tiny_data())

    def test_fit_result_keeps_no_graph_and_no_design(self):
        # A mixture that kept the graph computing it would keep the
        # normalized training design (2 MiB of float32 here) alive.
        cfg = tr.TrainConfig(epochs=0, batch_size=16)
        tr.fit(cfg, TINY_ARCH, tiny_data())     # first-call allocations, untraced
        data = tiny_data(n=2048)
        tracemalloc.start()
        try:
            result = tr.fit(cfg, TINY_ARCH, data)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert all(t._parents == () for t in (result.gmm.alpha, result.gmm.means, result.gmm.covariances))
        held = sum(p.data.nbytes for p in result.model.all_parameters())
        held += result.norm_stats.mean.nbytes + result.norm_stats.std.nbytes
        assert live <= held + 64 * 1024, (live, held)

    def test_abort_leaves_the_last_periodic_checkpoint(self, tmp_path, monkeypatch):
        # 4 steps an epoch; a checkpoint after steps 2 and 4, then step 5 fails.
        path = tmp_path / "model.gmgc"
        train_step = tr.train_step
        after_step_4 = []

        def failing_step(state, batch, config):
            if state.step == 4:
                raise NumericError("injected failure in step 5")
            breakdown = train_step(state, batch, config)
            if state.step == 4:
                after_step_4.extend(p.data.copy() for p in state.model.all_parameters())
            return breakdown

        monkeypatch.setattr(tr, "train_step", failing_step)
        cfg = tr.TrainConfig(epochs=2, batch_size=16, seed=0, checkpoint_every=2)
        with pytest.raises(NumericError, match="step 5"):
            tr.fit(cfg, TINY_ARCH, tiny_data(), checkpoint_path=path)
        ckpt = nets.load_checkpoint(path)
        assert ckpt.gmm is None
        saved = [p.data for p in ckpt.model.all_parameters()]
        assert len(saved) == len(after_step_4)
        for got, want in zip(saved, after_step_4):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

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
        dict(checkpoint_every=0),
        dict(epochs=float("nan")),
        dict(batch_size=float("nan")),
        dict(seed=-1),
        dict(checkpoint_every=float("nan")),
        dict(cov_eps=-1e-6),
        dict(cov_eps=float("nan")),
        dict(weights=LossWeights(w_image=-1.0)),
        dict(weights=LossWeights(w_adversarial=float("nan"))),
        dict(weights=LossWeights(w_latent=float("inf"))),
        dict(weights=LossWeights(w_estimation=float("nan"))),
        dict(batch_size=16.5),
        dict(epochs=1.5),
        dict(seed=1.5),
        dict(checkpoint_every=2.5),
        dict(epochs=2.0),
        dict(weights=LossWeights(w_image="1")),
        dict(epochs=True),
        dict(seed=False),
        dict(checkpoint_every=True),
        dict(cov_eps=True),
        dict(weights=LossWeights(w_image=True)),
    ])
    def test_invalid_configs_rejected(self, bad):
        cfg = tr.TrainConfig(**bad)
        with pytest.raises(InvalidConfigError):
            cfg.validate()

    def test_train_state_rejects_invalid_config(self):
        # Not numpy's own ValueError for the seed.
        with pytest.raises(InvalidConfigError, match="seed"):
            tr.make_train_state(TINY_ARCH, tr.TrainConfig(seed=-1))

    def test_train_state_rejects_invalid_arch(self):
        with pytest.raises(InvalidConfigError, match="input_dim"):
            tr.make_train_state(nets.ArchConfig(input_dim=0), tr.TrainConfig())

    def test_numpy_integers_are_valid(self):
        tr.TrainConfig(epochs=np.int64(2), batch_size=np.int32(8), seed=np.uint8(3),
                       checkpoint_every=np.int64(5)).validate()

    def test_zero_loss_weights_and_cov_eps_are_valid(self):
        tr.TrainConfig(weights=LossWeights(0.0, 0.0, 0.0, 0.0), cov_eps=0.0).validate()
