"""Tensor op semantics, gradients vs central finite differences, graph rules."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

from anomix import autodiff as ad
from anomix import verify
from anomix.errors import NumericError, ShapeError


def _activate(x, activation):
    """``activation`` applied to each entry of a matrix: a ``dense``
    layer with an identity weight and a zero bias, which add nothing."""
    n = x.shape[1]
    return ad.dense(x, ad.Tensor(np.eye(n)), ad.Tensor(np.zeros(n)), activation)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        x = ad.Tensor([[0.0]])
        y = ad.tensor_sum(_activate(x, "sigmoid"))
        assert y.item() == pytest.approx(0.5, abs=1e-15)
        (grad,) = ad.backward(y, [x])
        assert grad[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_sigmoid_extreme_inputs_do_not_overflow(self):
        x = ad.Tensor([[-1000.0, 1000.0]])
        y = _activate(x, "sigmoid")
        np.testing.assert_allclose(y.data, [[0.0, 1.0]], atol=1e-12)

    def test_leaky_relu_values(self):
        x = ad.Tensor([[-2.0, 3.0]])
        np.testing.assert_allclose(_activate(x, "leaky_relu").data, [[-0.4, 3.0]])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.mul(ad.Tensor([1.0, 2.0]), ad.Tensor([1.0, 2.0, 3.0]))

    def test_scalar_operand_raises(self):
        # Nothing broadcasts, a 0-d operand included, on either side.
        with pytest.raises(ShapeError):
            ad.mul(ad.Tensor([1.0, 2.0]), ad.Tensor(2.0))
        with pytest.raises(ShapeError):
            ad.mul(ad.Tensor(3.0), ad.Tensor([1.0, 2.0]))

    def test_nonfinite_forward_raises(self):
        x = ad.Tensor([1e200])
        with pytest.raises(NumericError):
            ad.mul(x, x)


def _multi_operand_ops():
    """Every op with several tensor operands, as (call, float64 operand
    arrays) that the call accepts."""
    rng = np.random.default_rng(70)
    x, y = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    g = rng.uniform(0.1, 1.0, size=(4, 2))
    m = rng.standard_normal((2, 3, 3))
    return {
        "mul": (ad.mul, [x, y]),
        "weighted_sum": (lambda a, b: ad.weighted_sum([a, b], [1.0, 2.0]), [x, y]),
        "l1_distance": (ad.l1_distance, [x, y]),
        "l2_distance": (ad.l2_distance, [x, y]),
        "dense": (lambda a, w, b: ad.dense(a, w, b, "tanh"), [x, rng.standard_normal((3, 2)), np.zeros(2)]),
        "mixture_moments": (lambda z, gamma: ad.mixture_moments(z, gamma, 1e-3),
                            [x, g / g.sum(axis=1, keepdims=True)]),
        "gaussian_log_densities": (ad.gaussian_log_densities,
                                   [x, rng.standard_normal((2, 3)), m @ m.transpose(0, 2, 1) + np.eye(3)]),
        "mixture_energy": (ad.mixture_energy, [rng.standard_normal((4, 2)), np.array([0.4, 0.6])]),
    }


MULTI_OPERAND_OPS = _multi_operand_ops()


def _sigmoid_oracle(h):
    # The two-branch form through fancy indexing.
    out = np.empty_like(h)
    pos = h >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-h[pos]))
    e = np.exp(h[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _numpy_dense(x, w, b, c, activation):
    """act(x @ w + b) and the gradients (dx, dw, db) of
    sum(act(x @ w + b) * c), op by op in plain numpy."""
    h = x @ w + b[None, :]
    if activation == "leaky_relu":
        slope = ad.LEAKY_SLOPE
        y, gh = np.where(h > 0.0, h, slope * h), np.where(h > 0.0, c, slope * c)
    elif activation == "tanh":
        y = np.tanh(h)
        gh = c * (1.0 - y * y)
    elif activation == "sigmoid":
        y = _sigmoid_oracle(h)
        gh = c * y * (1.0 - y)
    else:
        y, gh = h, c
    return y, gh @ w.T, x.T @ gh, gh.sum(axis=0)


def _dense_and_grads(x, w, b, c, activation):
    tx, tw, tb = ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)
    y = ad.dense(tx, tw, tb, activation)
    return [y.data, *ad.backward(ad.tensor_sum(ad.mul(y, ad.Tensor(c))), [tx, tw, tb])]


class TestDense:
    @staticmethod
    def _operands(dtype, seed=50):
        rng = np.random.default_rng(seed)
        x, w, c = (rng.standard_normal(shape).astype(dtype) for shape in ((33, 7), (7, 5), (33, 5)))
        # Biases far out on both sides saturate tanh and both sigmoid branches.
        b = np.array([0.0, -40.0, 40.0, -1000.0, 0.5], dtype=dtype)
        return x, w, b, c

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", ad.ACTIVATIONS)
    def test_value_and_cotangents_are_bitwise_the_numpy_composition(self, activation, dtype):
        operands = self._operands(dtype)
        got = _dense_and_grads(*operands, activation)
        for g, want in zip(got, _numpy_dense(*operands, activation)):
            assert g.dtype == dtype and g.shape == want.shape
            assert g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype, tiny", [(np.float32, 1e-30), (np.float64, 1e-200)])
    def test_leaky_relu_is_exact_at_signed_zeros(self, tiny, dtype):
        # Row 0 is zero, so columns 0 and 1 read +0 + -0 = +0.  Row 1's
        # products there underflow to -0, and a -0 bias keeps that sign
        # (an FMA kernel keeps the sign of an underflowed product).
        x, w, _, c = self._operands(dtype, seed=52)
        x[0], x[1] = 0.0, tiny
        w[:, :2] = -tiny
        b = np.array([-0.0, -0.0, 0.0, 0.3, -0.3], dtype=dtype)
        zeros = (x @ w + b)[:2, :2]
        assert (zeros == 0.0).all() and np.signbit(zeros[1]).all() and not np.signbit(zeros[0]).any()
        got = _dense_and_grads(x, w, b, c, "leaky_relu")
        for g, want in zip(got, _numpy_dense(x, w, b, c, "leaky_relu")):
            assert g.dtype == dtype and g.tobytes() == want.tobytes()

    def test_leaky_relu_node_keeps_a_mask_not_a_float_factor(self):
        # The node outlives its forward; a float factor kept for the
        # backward would hold a second output-sized array as long.
        rng = np.random.default_rng(53)
        x = ad.Tensor(rng.standard_normal((832, 4096), dtype=np.float32))
        w = ad.Tensor(rng.standard_normal((4096, 512), dtype=np.float32) * np.float32(0.02))
        b = ad.Tensor(np.zeros(512, dtype=np.float32))
        tracemalloc.start()
        try:
            out = ad.dense(x, w, b, "leaky_relu")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # The output, one byte per element of mask, and 64 KiB for small
        # objects; a float32 factor would add 1.6 MiB.
        assert held <= out.data.nbytes + out.data.size + 64 * 1024, held

    def test_one_node_per_layer(self):
        x, w, b = (ad.Tensor(a) for a in self._operands(np.float64)[:3])
        assert ad.dense(x, w, b, "sigmoid")._parents == (x, w, b)

    @pytest.mark.parametrize("activation", ad.ACTIVATIONS)
    def test_overflow_raises_even_where_the_activation_saturates(self, activation):
        # 1e30 * 1e30 overflows float32; tanh and sigmoid would map the inf to 1.
        x = ad.Tensor(np.full((1, 2), 1e30, dtype=np.float32))
        w = ad.Tensor(np.full((2, 1), 1e30, dtype=np.float32))
        with pytest.raises(NumericError):
            ad.dense(x, w, ad.Tensor(np.zeros(1, dtype=np.float32)), activation)

    def test_rejects_bad_shapes_and_unknown_activation(self):
        x, w, b = (ad.Tensor(a) for a in self._operands(np.float64)[:3])
        with pytest.raises(ShapeError):
            ad.dense(x, w, ad.Tensor(np.zeros(4)))
        with pytest.raises(ShapeError):
            ad.dense(x, ad.Tensor(np.ones((6, 5))), b)
        with pytest.raises(ValueError):
            ad.dense(x, w, b, "relu")


class TestDtypeRule:
    def test_float32_kept_everything_else_float64(self):
        assert ad.Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
        for data in ([1, 2], np.ones(2, dtype=np.float16), np.ones(2, dtype=np.int64), 3.0):
            assert ad.Tensor(data).data.dtype == np.float64

    def test_python_scalar_takes_partner_dtype(self):
        # A weight scales float32 terms in float32: rounded to float32 first.
        x = ad.Tensor(np.array([1.0, 2.0], dtype=np.float32))
        y = ad.weighted_sum([x], [0.1])
        assert y.data.dtype == np.float32
        assert y.data.tobytes() == (x.data * np.float32(0.1)).tobytes()

    def test_python_scalar_is_a_constant_not_a_node(self):
        x = ad.Tensor([1.0, 2.0])
        assert ad.weighted_sum([x], [2.0])._parents == (x,)
        (g,) = ad.backward(ad.tensor_sum(ad.weighted_sum([ad.mul(x, x)], [-1.5])), [x])
        np.testing.assert_array_equal(g, [-3.0, -6.0])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e39])
    def test_non_finite_scalar_raises(self, value):
        # 1e39 is finite as a Python float, but not as float32.  The
        # weight is refused before the op runs, whatever its result.
        x = ad.Tensor(np.array([0.0, 2.0], dtype=np.float32))
        with pytest.raises(NumericError, match="not all finite as float32"):
            ad.weighted_sum([x], [value])

    @pytest.mark.parametrize("op, wide", [
        (op, i) for op, (_, arrays) in MULTI_OPERAND_OPS.items() for i in range(len(arrays))
    ])
    def test_every_multi_operand_op_rejects_mixed_dtypes(self, op, wide):
        # Operand ``wide`` float64, the others float32.
        fn, arrays = MULTI_OPERAND_OPS[op]
        fn(*(ad.Tensor(a) for a in arrays))     # one dtype: accepted
        with pytest.raises(ShapeError, match="operands of dtypes"):
            fn(*(ad.Tensor(a if i == wide else a.astype(np.float32)) for i, a in enumerate(arrays)))

    @pytest.mark.parametrize("op", ["mixture_moments", "gaussian_log_densities", "mixture_energy"])
    def test_mixture_ops_take_float64_only(self, op):
        fn, arrays = MULTI_OPERAND_OPS[op]
        with pytest.raises(ShapeError, match="not all float64"):
            fn(*(ad.Tensor(a.astype(np.float32)) for a in arrays))

    def test_mixed_dtype_cases_cover_every_multi_operand_op(self):
        # A public function returning tensors, with two Tensor parameters
        # or a sequence of them.
        ops = set()
        for name, fn in vars(ad).items():
            if inspect.isfunction(fn) and fn.__module__ == ad.__name__ and not name.startswith("_"):
                sig = inspect.signature(fn)
                operands = [str(p.annotation) for p in sig.parameters.values() if "Tensor" in str(p.annotation)]
                if "Tensor" in str(sig.return_annotation) and (len(operands) >= 2 or "Sequence[Tensor]" in operands):
                    ops.add(name)
        assert ops == set(MULTI_OPERAND_OPS)

    def test_cotangent_of_another_dtype_raises(self):
        # Only cast's backward converts; an op that handed a node a
        # cotangent of another dtype would be caught here.
        x = ad.Tensor(np.zeros(2, dtype=np.float32))
        with pytest.raises(ShapeError):
            x._accum_cot(np.zeros(2))

    def test_scalar_reductions_accumulate_in_float64(self):
        # 2**24 + 1 is not a float32 value, so a float32 sum would drop the 1.
        x = ad.Tensor(np.array([2.0 ** 24, 1.0], dtype=np.float32))
        assert ad.tensor_sum(x).item() == 2.0 ** 24 + 1.0
        # The same two values as the rows' distances from zero: each is a
        # float32 value, and only a float64 mean keeps their odd sum.
        rows = ad.Tensor(np.array([[2.0 ** 24], [1.0]], dtype=np.float32))
        zeros = ad.Tensor(np.zeros((2, 1), dtype=np.float32))
        for loss in (ad.l1_distance(rows, zeros), ad.l2_distance(rows, zeros)):
            assert loss.data.dtype == np.float64 and loss.item() == (2.0 ** 24 + 1.0) / 2.0
            (g,) = ad.backward(loss, [rows])
            assert g.dtype == np.float32

    def test_cast(self):
        x = ad.Tensor(np.array([1.5, -2.0]))
        assert ad.cast(x, np.float64) is x
        y = ad.cast(x, np.float32)
        assert y.data.dtype == np.float32
        (g,) = ad.backward(ad.tensor_sum(ad.weighted_sum([y], [3.0])), [x])
        assert g.dtype == np.float64
        np.testing.assert_array_equal(g, [3.0, 3.0])

    def test_cast_out_of_float32_range_raises(self):
        with pytest.raises(NumericError):
            ad.cast(ad.Tensor([1e39]), np.float32)


class TestMatmul:
    """The product inside ``dense``, with a zero bias and no activation."""

    def test_identity(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal((3, 3)))
        eye = ad.Tensor(np.eye(3))
        np.testing.assert_array_equal(ad.dense(eye, x, ad.Tensor(np.zeros(3))).data, x.data)

    def test_hand_example(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(ad.dense(a, b, ad.Tensor(np.zeros(2))).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ad.dense(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))), ad.Tensor(np.zeros(3)))


class TestSoftmax:
    def test_uniform_on_zero_row(self):
        y = ad.softmax_rows(ad.Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(y.data, 0.25)

    def test_large_inputs_stable(self):
        y = ad.softmax_rows(ad.Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(y.data, 0.5)

    def test_rows_sum_to_one_within_1e12(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1e3, 1e3, size=(50, 6))
        y = ad.softmax_rows(ad.Tensor(x))
        np.testing.assert_allclose(y.data.sum(axis=1), 1.0, atol=1e-12)


class TestDistances:
    def test_zero_when_equal(self):
        rng = np.random.default_rng(1)
        a = ad.Tensor(rng.standard_normal((4, 3)))
        b = ad.Tensor(a.data.copy())
        assert ad.l1_distance(a, b).item() == 0.0
        assert ad.l2_distance(a, b).item() == 0.0

    def test_three_four_five(self):
        a = ad.Tensor([[3.0, 4.0]])
        b = ad.Tensor([[0.0, 0.0]])
        assert ad.l1_distance(a, b).item() == pytest.approx(7.0)
        assert ad.l2_distance(a, b).item() == pytest.approx(5.0)

    def test_l2_subgradient_zero_at_coincidence(self):
        a = ad.Tensor([[1.0, 2.0]])
        b = ad.Tensor([[1.0, 2.0]])
        (grad,) = ad.backward(ad.l2_distance(a, b), [a])
        np.testing.assert_array_equal(grad, [[0.0, 0.0]])


class TestFusedOps:
    """Each fused op against its composite formula, written here in plain
    float64 numpy, including the points where only a subgradient exists:
    zero differences, zero-distance rows, probabilities at and beyond the
    clamp, and a zero mixture weight."""

    @staticmethod
    def _pair(seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((5, 3))
        b[1, 2] = a[1, 2]       # one zero difference
        b[3] = a[3]             # one zero-distance row
        return a, b

    def test_l1_distance(self):
        a, b = self._pair(60)
        ta, tb = ad.Tensor(a), ad.Tensor(b)
        loss = ad.l1_distance(ta, tb)
        ga, gb = ad.backward(loss, [ta, tb])
        np.testing.assert_allclose(loss.item(), np.abs(a - b).sum(axis=1).mean(), rtol=1e-15)
        want = np.sign(a - b) / 5
        np.testing.assert_array_equal(ga, want)
        np.testing.assert_array_equal(gb, -want)
        assert ga[1, 2] == 0.0 and not ga[3].any()

    def test_l2_distance_with_a_zero_distance_row(self):
        a, b = self._pair(61)
        ta, tb = ad.Tensor(a), ad.Tensor(b)
        loss = ad.l2_distance(ta, tb)
        ga, gb = ad.backward(loss, [ta, tb])
        r = np.sqrt(((a - b) ** 2).sum(axis=1))
        np.testing.assert_allclose(loss.item(), r.mean(), rtol=1e-15)
        want = np.zeros_like(a)
        want[r > 0] = (a - b)[r > 0] / r[r > 0, None] / 5
        np.testing.assert_allclose(ga, want, rtol=1e-14, atol=0)
        np.testing.assert_allclose(gb, -want, rtol=1e-14, atol=0)
        assert not ga[3].any()

    @pytest.mark.parametrize("label", [0, 1])
    def test_binary_cross_entropy_at_and_beyond_the_clamp(self, label):
        lo, hi = ad.PROB_CLAMP, 1.0 - ad.PROB_CLAMP
        p = np.array([[0.0], [1e-9], [lo], [0.3], [0.5], [0.8], [hi], [1.0]])
        tp = ad.Tensor(p)
        loss = ad.binary_cross_entropy(tp, label)
        (grad,) = ad.backward(loss, [tp])
        q = np.clip(p, lo, hi)
        inside = (p > lo) & (p < hi)
        if label == 1:
            value, want = -np.log(q).mean(), -1.0 * inside / (p.size * q)
        else:
            value, want = -np.log(1.0 - q).mean(), inside / (p.size * (1.0 - q))
        np.testing.assert_allclose(loss.item(), value, rtol=1e-14)
        np.testing.assert_allclose(grad, want, rtol=1e-14, atol=0)
        # At the clamp's ends and beyond it, the subgradient is 0.
        np.testing.assert_array_equal(grad[[0, 1, 2, 6, 7]], 0.0)
        with pytest.raises(ValueError):
            ad.binary_cross_entropy(tp, 2)

    def test_weighted_sum(self):
        s, t = ad.Tensor(2.0), ad.Tensor(-3.0)
        total = ad.weighted_sum([s, t, s], [0.5, 4.0, -1.5])
        assert total.item() == 0.5 * 2.0 + 4.0 * -3.0 - 1.5 * 2.0
        assert total._parents == (s, t, s)
        gs, gt = ad.backward(total, [s, t])
        assert gs == 0.5 - 1.5 and gt == 4.0
        with pytest.raises(ShapeError):
            ad.weighted_sum([s, ad.Tensor([1.0, 2.0])], [1.0, 1.0])
        with pytest.raises(ShapeError):
            ad.weighted_sum([s, t], [1.0])
        with pytest.raises(NumericError):
            ad.weighted_sum([s, t], [1.0, np.inf])

    def test_weighted_sum_of_tensors(self):
        x, y = ad.Tensor([[1.0, -2.0]]), ad.Tensor([[0.5, 3.0]])
        total = ad.weighted_sum([x, y, x], [2.0, -1.0, 0.25])
        np.testing.assert_array_equal(total.data, x.data * 2.0 + y.data * -1.0 + x.data * 0.25)
        gx, gy = ad.backward(ad.tensor_sum(ad.mul(total, ad.Tensor([[1.0, 2.0]]))), [x, y])
        np.testing.assert_array_equal(gx, [[2.25, 4.5]])
        np.testing.assert_array_equal(gy, [[-1.0, -2.0]])

    def test_mixture_energy_with_a_zero_weight(self):
        rng = np.random.default_rng(62)
        log_dens = rng.uniform(-8.0, 2.0, size=(6, 3))
        weights = np.array([0.3, 0.0, 0.7])
        c = rng.standard_normal(6)
        tl, tw = ad.Tensor(log_dens), ad.Tensor(weights)
        energy = ad.mixture_energy(tl, tw)
        gl, gw = ad.backward(ad.tensor_sum(ad.mul(energy, ad.Tensor(c))), [tl, tw])
        dens = weights * np.exp(log_dens)                   # [n x K]
        total = dens.sum(axis=1)
        np.testing.assert_allclose(energy.data, -np.log(total), rtol=1e-14)
        # The floor leaves a zero weight's column ~1e-300, as the chain did.
        np.testing.assert_allclose(gl, -c[:, None] * dens / total[:, None], rtol=1e-12, atol=1e-290)
        kept = weights > 0
        want_w = -(c[:, None] * np.exp(log_dens) / total[:, None]).sum(axis=0)
        np.testing.assert_allclose(gw[kept], want_w[kept], rtol=1e-12)
        assert gw[1] == 0.0     # the zero weight's subgradient
        with pytest.raises(ShapeError):
            ad.mixture_energy(tl, ad.Tensor(weights[:2]))

    def test_inverse_diagonal_sum(self):
        rng = np.random.default_rng(63)
        m = rng.standard_normal((3, 4, 4))
        covs = m @ m.transpose(0, 2, 1) + np.eye(4)
        tc = ad.Tensor(covs)
        penalty = ad.inverse_diagonal_sum(tc)
        (grad,) = ad.backward(penalty, [tc])
        diag = np.diagonal(covs, axis1=1, axis2=2)
        np.testing.assert_allclose(penalty.item(), (1.0 / diag).sum(), rtol=1e-14)
        want = np.zeros_like(covs)
        for k in range(3):
            want[k] = np.diag(-1.0 / diag[k] ** 2)
        np.testing.assert_allclose(grad, want, rtol=1e-14, atol=0)
        with pytest.raises(ShapeError):
            ad.inverse_diagonal_sum(ad.Tensor(np.ones((2, 3, 4))))

    def test_mixture_weights(self):
        rng = np.random.default_rng(64)
        g = rng.uniform(0.1, 1.0, size=(5, 3))
        gamma = ad.Tensor(g / g.sum(axis=1, keepdims=True))
        c = rng.standard_normal(3)
        weights, _, _ = ad.mixture_moments(ad.Tensor(rng.standard_normal((5, 2))), gamma, 1e-3)
        (grad,) = ad.backward(ad.tensor_sum(ad.mul(weights, ad.Tensor(c))), [gamma])
        np.testing.assert_allclose(weights.data, gamma.data.sum(axis=0) / 5, rtol=1e-15)
        np.testing.assert_allclose(grad, np.tile(c / 5, (5, 1)), rtol=1e-15)


def _moments_with_a_light_component():
    # Component 2 holds mass 1e-13, all on sample 0: at DEGENERATE_MASS
    # it is reset to the batch mean, above it its mean is sample 0.
    z = ad.Tensor(np.random.default_rng(65).standard_normal((5, 2)))
    gamma = ad.Tensor(np.array([[0.5, 0.5 - 1e-13, 1e-13]] + [[0.5, 0.5, 0.0]] * 4))
    return ad.mixture_moments(z, gamma, 1e-3)


@pytest.mark.parametrize("name, value, op", [
    pytest.param("LEAKY_SLOPE", 0.1, lambda: [_activate(ad.Tensor([[-2.0]]), "leaky_relu")], id="LEAKY_SLOPE"),
    pytest.param("PROB_CLAMP", 1e-3, lambda: [ad.binary_cross_entropy(ad.Tensor([[0.0]]), 1)], id="PROB_CLAMP"),
    pytest.param("DEGENERATE_MASS", 1e-14, _moments_with_a_light_component, id="DEGENERATE_MASS"),
])
def test_each_autodiff_constant_reaches_its_op(name, value, op, monkeypatch):
    # Each op on an input where its constant decides the output.
    def output():
        return b"".join(t.data.tobytes() for t in op())

    base = output()
    monkeypatch.setattr(ad, name, value)
    assert output() != base


class TestGraph:
    def test_diamond_accumulates_both_paths(self):
        for v in [-3.0, 0.0, 1.0, 7.0]:
            x = ad.Tensor([v])
            (grad,) = ad.backward(ad.tensor_sum(ad.mul(x, x)), [x])
            assert grad[0] == 2.0 * v  # exact for integer-valued x

    def test_backward_requires_scalar(self):
        x = ad.Tensor([1.0, 2.0])
        with pytest.raises(ShapeError):
            ad.backward(ad.mul(x, x), [x])

    def test_forward_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 8))

        def run():
            t = ad.Tensor(x)
            return ad.softmax_rows(ad.dense(t, t, ad.Tensor(np.zeros(8)), "tanh")).data.tobytes()

        assert run() == run()


def _graph(rng):
    """A loss over two leaves through a shared subgraph, and a third
    leaf feeding a branch the loss never reaches."""
    a = ad.Tensor(rng.standard_normal((4, 3)))
    b = ad.Tensor(rng.standard_normal((3, 5)))
    unused = ad.Tensor(rng.standard_normal((4, 5)))
    shared = ad.dense(a, b, ad.Tensor(np.zeros(5)), "tanh")
    ad.mul(shared, unused)
    w = ad.Tensor(rng.standard_normal((4, 5)))
    loss = ad.weighted_sum([ad.tensor_sum(ad.mul(shared, shared)),
                            ad.tensor_sum(ad.mul(ad.softmax_rows(shared), w))], [1.0, 1.0])
    return loss, a, b, unused


def _nodes_below(loss):
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node.node_id not in nodes:
            nodes[node.node_id] = node
            stack.extend(node._parents)
    return list(nodes.values())


class TestBackwardContract:
    def test_unreached_tensor_gets_zeros(self):
        loss, a, _, unused = _graph(np.random.default_rng(30))
        grad_a, grad_unused = ad.backward(loss, [a, unused])
        assert grad_a.any()
        np.testing.assert_array_equal(grad_unused, np.zeros((4, 5)))

    def test_no_node_keeps_a_cotangent(self):
        loss, a, _, _ = _graph(np.random.default_rng(31))
        ad.backward(loss, [a])      # b is a leaf on the path that is not asked for
        for node in _nodes_below(loss):
            assert node._cot is None and not node._needed, node

    def test_repeated_calls_are_equal_and_independent(self):
        loss, a, b, _ = _graph(np.random.default_rng(32))
        first = ad.backward(loss, [a, b])
        second = ad.backward(loss, [a, b])
        for g1, g2 in zip(first, second):
            np.testing.assert_array_equal(g1, g2)
            assert not np.shares_memory(g1, g2)

    def test_two_leaves_at_once_equal_one_at_a_time(self):
        loss, a, b, _ = _graph(np.random.default_rng(33))
        grad_a, grad_b = ad.backward(loss, [a, b])
        np.testing.assert_array_equal(grad_a, ad.backward(loss, [a])[0])
        np.testing.assert_array_equal(grad_b, ad.backward(loss, [b])[0])


def _assert_gradients_owned(loss, wrt):
    """Every returned gradient is a fresh array (not a view), and writing
    into one changes no other one and no later ``backward`` result."""
    grads = ad.backward(loss, wrt)
    assert all(isinstance(g, np.ndarray) and g.base is None for g in grads)
    expected = [g.copy() for g in grads]
    for i, g in enumerate(grads):
        g.fill(-7.5)
        for other, want in zip(grads[i + 1:], expected[i + 1:]):
            np.testing.assert_array_equal(other, want)
    for again, want in zip(ad.backward(loss, wrt), expected):
        np.testing.assert_array_equal(again, want)


class TestGradientOwnership:
    def test_add_with_both_operands_wanted(self):
        rng = np.random.default_rng(40)
        a, b, w = (ad.Tensor(rng.standard_normal((3, 4))) for _ in range(3))
        _assert_gradients_owned(ad.tensor_sum(ad.mul(ad.weighted_sum([a, b], [1.0, 1.0]), w)), [a, b, w])

    def test_shared_cotangent_not_written_by_a_later_one(self):
        # The mixture weights hand gamma a read-only broadcast view of
        # their own cotangent; gamma's second contribution, through mul,
        # must be added out of place.
        rng = np.random.default_rng(43)
        g = rng.uniform(0.1, 1.0, size=(5, 3))
        gamma = ad.Tensor(g / g.sum(axis=1, keepdims=True))
        c, w2 = rng.standard_normal(3), ad.Tensor(rng.standard_normal((5, 3)))
        weights, _, _ = ad.mixture_moments(ad.Tensor(rng.standard_normal((5, 2))), gamma, 1e-3)
        loss = ad.weighted_sum([ad.tensor_sum(ad.mul(weights, ad.Tensor(c))),
                                ad.tensor_sum(ad.mul(gamma, w2))], [1.0, 1.0])
        (grad,) = ad.backward(loss, [gamma])
        np.testing.assert_array_equal(grad, c * (1.0 / 5) + w2.data)

    def test_add_of_a_tensor_to_itself(self):
        a = ad.Tensor(np.random.default_rng(41).standard_normal((3, 4)))
        loss = ad.tensor_sum(ad.mul(ad.weighted_sum([a, a], [1.0, 1.0]), a))
        _assert_gradients_owned(loss, [a])
        _assert_gradients_owned(loss, [a, a])

    def test_leaf_reached_only_through_reshape(self):
        # The view case: reached only through the covariances,
        # mixture_moments hands gamma a transposed view as its cotangent.
        rng = np.random.default_rng(42)
        z = ad.Tensor(rng.standard_normal((5, 2)))
        g = rng.uniform(0.1, 1.0, size=(5, 3))
        gamma = ad.Tensor(g / g.sum(axis=1, keepdims=True))
        _, _, covs = ad.mixture_moments(z, gamma, 1e-3)
        loss = ad.tensor_sum(ad.mul(covs, ad.Tensor(rng.standard_normal((3, 2, 2)))))
        _assert_gradients_owned(loss, [gamma])
        _assert_gradients_owned(loss, [covs, gamma, z])

    def test_scalar_leaf(self):
        s = ad.Tensor(1.5)
        _assert_gradients_owned(ad.weighted_sum([s, s], [-1.0, -1.0]), [s])


class TestStructuredOps:
    def test_gaussian_log_densities_match_naive(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((5, 3))
        means = rng.standard_normal((2, 3))
        m = rng.standard_normal((2, 3, 3))
        covs = m @ m.transpose(0, 2, 1) + np.eye(3)
        got = ad.gaussian_log_densities(ad.Tensor(z), ad.Tensor(means), ad.Tensor(covs)).data
        for k in range(2):
            diff = z - means[k]
            quad = np.einsum("id,de,ie->i", diff, np.linalg.inv(covs[k]), diff)
            want = -0.5 * (quad + np.log(np.linalg.det(2.0 * math.pi * covs[k])))
            np.testing.assert_allclose(got[:, k], want, rtol=1e-12)

    def test_gaussian_log_densities_diagonal_value(self):
        covs = ad.Tensor(np.diag([1.0, 4.0, 9.0])[None])
        got = ad.gaussian_log_densities(ad.Tensor(np.zeros((1, 3))), ad.Tensor(np.zeros((1, 3))), covs)
        assert got.item() == pytest.approx(-0.5 * (3.0 * math.log(2.0 * math.pi) + math.log(36.0)), rel=1e-12)

    def test_gaussian_log_densities_read_the_symmetric_part(self):
        rng = np.random.default_rng(8)
        z = ad.Tensor(rng.standard_normal((4, 2)))
        means = ad.Tensor(np.zeros((1, 2)))
        skew = np.array([[[0.0, 0.3], [-0.3, 0.0]]])
        plain = ad.gaussian_log_densities(z, means, ad.Tensor(np.eye(2)[None])).data
        skewed = ad.gaussian_log_densities(z, means, ad.Tensor(np.eye(2)[None] + skew)).data
        np.testing.assert_array_equal(plain, skewed)

    def test_gaussian_log_densities_backward_matches_explicit_inverse(self):
        # The backward takes cov⁻¹ and r from one solve for L⁻¹; here they
        # come from np.linalg.inv.
        rng = np.random.default_rng(9)
        z, means = rng.standard_normal((5, 3)), rng.standard_normal((2, 3))
        m = rng.standard_normal((2, 3, 3))
        covs = m @ m.transpose(0, 2, 1) + np.eye(3)
        c = rng.standard_normal((5, 2))
        tz, tm, tc = ad.Tensor(z), ad.Tensor(means), ad.Tensor(covs)
        out = ad.gaussian_log_densities(tz, tm, tc)
        gz, gm, gc = ad.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(c))), [tz, tm, tc])
        inv = np.linalg.inv(covs)
        r = np.einsum("kde,kie->kid", inv, z[None] - means[:, None])     # [K x n x d]
        cr = c.T[:, :, None] * r
        np.testing.assert_allclose(gz, -cr.sum(axis=0), rtol=1e-10)
        np.testing.assert_allclose(gm, cr.sum(axis=1), rtol=1e-10)
        want = 0.5 * (np.einsum("kid,kie->kde", cr, r) - c.sum(axis=0)[:, None, None] * inv)
        np.testing.assert_allclose(gc, want, rtol=1e-10)

    def test_gaussian_log_densities_solve_once_per_node(self, monkeypatch):
        # The forward solves for L⁻¹ once; the backward reuses it.
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(ad.np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
        z, means, m = MULTI_OPERAND_OPS["gaussian_log_densities"][1]
        tz, tm, tc = ad.Tensor(z), ad.Tensor(means), ad.Tensor(m)
        ad.backward(ad.tensor_sum(ad.gaussian_log_densities(tz, tm, tc)), [tz, tm, tc])
        assert len(calls) == 1

    def test_gaussian_log_densities_reject_indefinite(self):
        covs = ad.Tensor(np.stack([np.eye(2), np.diag([1.0, -1.0])]))
        with pytest.raises(NumericError):
            ad.gaussian_log_densities(ad.Tensor(np.zeros((1, 2))), ad.Tensor(np.zeros((2, 2))), covs)


@pytest.mark.parametrize("trial", range(10))
def test_every_op_gradient_vs_finite_differences(trial):
    """Runs verify's one list of gradient cases at fresh random inputs."""
    rng = np.random.default_rng(100 + trial)
    for name, f, wrt, tol in verify.gradient_cases(rng):
        err = ad.gradient_check(f, wrt)
        assert err <= tol, f"{name}: max rel grad error {err:.3e}"
