"""Tensor op semantics, gradients vs central finite differences, graph rules."""

import math

import numpy as np
import pytest

from anomix import autodiff as ad
from anomix import verify
from anomix.errors import NumericError, ShapeError

REL_TOL = 1e-5


def rand(rng, *shape):
    return ad.Tensor(rng.standard_normal(shape), requires_grad=True)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        x = ad.Tensor([0.0], requires_grad=True)
        y = ad.tensor_sum(ad.sigmoid(x))
        assert y.item() == pytest.approx(0.5, abs=1e-15)
        ad.backward(y)
        assert x.grad[0] == pytest.approx(0.25, abs=1e-15)

    def test_sigmoid_extreme_inputs_do_not_overflow(self):
        x = ad.Tensor([-1000.0, 1000.0])
        y = ad.sigmoid(x)
        np.testing.assert_allclose(y.data, [0.0, 1.0], atol=1e-12)

    def test_leaky_relu_values(self):
        x = ad.Tensor([-2.0, 3.0])
        np.testing.assert_allclose(ad.leaky_relu(x, 0.2).data, [-0.4, 3.0])

    def test_log_of_nonpositive_raises(self):
        with pytest.raises(NumericError):
            ad.log(ad.Tensor([1.0, 0.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.add(ad.Tensor([1.0, 2.0]), ad.Tensor([1.0, 2.0, 3.0]))

    def test_scalar_broadcast_allowed(self):
        x = ad.Tensor([1.0, 2.0])
        np.testing.assert_allclose((x * 2.0).data, [2.0, 4.0])
        np.testing.assert_allclose((3.0 - x).data, [2.0, 1.0])

    def test_nonfinite_forward_raises(self):
        x = ad.Tensor([1e200])
        with pytest.raises(NumericError):
            ad.mul(x, x)


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal((3, 3)))
        eye = ad.Tensor(np.eye(3))
        np.testing.assert_array_equal(ad.matmul(eye, x).data, x.data)

    def test_hand_example(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        a = rand(rng, 7, 3)
        b = rand(rng, 3, 4)
        assert ad.gradient_check(lambda: ad.tensor_sum(ad.matmul(a, b)), a) < 1e-6
        assert ad.gradient_check(lambda: ad.tensor_sum(ad.matmul(a, b)), b) < 1e-6


class TestReductions:
    def test_mean_value(self):
        assert ad.mean(ad.Tensor([1.0, 2.0, 3.0])).item() == 2.0

    def test_sum_axis_one_hot(self):
        m = np.zeros((4, 3))
        m[0, 1] = m[2, 1] = m[3, 0] = 1.0
        np.testing.assert_array_equal(ad.sum_axis(ad.Tensor(m), 0).data, [1.0, 2.0, 0.0])

    def test_sum_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.sum_axis(ad.Tensor(np.ones((2, 2))), 2)

    def test_mean_gradient_is_uniform(self):
        x = ad.Tensor([4.0, 5.0, 6.0], requires_grad=True)
        ad.backward(ad.mean(x))
        np.testing.assert_array_equal(x.grad, [1 / 3, 1 / 3, 1 / 3])


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

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rand(rng, 3, 5)
        w = ad.Tensor(rng.standard_normal((3, 5)))  # random cotangent
        err = ad.gradient_check(lambda: ad.tensor_sum(ad.mul(ad.softmax_rows(x), w)), x)
        assert err < REL_TOL


class TestDistances:
    def test_zero_when_equal(self):
        rng = np.random.default_rng(1)
        a = ad.Tensor(rng.standard_normal((4, 3)))
        b = ad.Tensor(a.data.copy())
        assert ad.l1_distance(a, b).item() == 0.0
        assert ad.l2_distance(a, b).item() == 0.0

    def test_three_four_five(self):
        a = ad.Tensor([3.0, 4.0])
        b = ad.Tensor([0.0, 0.0])
        assert ad.l1_distance(a, b).item() == pytest.approx(7.0)
        assert ad.l2_distance(a, b).item() == pytest.approx(5.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        a = rand(rng, 6, 4)
        b = ad.Tensor(rng.standard_normal((6, 4)))
        assert ad.gradient_check(lambda: ad.l1_distance(a, b), a) < REL_TOL
        assert ad.gradient_check(lambda: ad.l2_distance(a, b), a) < REL_TOL

    def test_l2_subgradient_zero_at_coincidence(self):
        a = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        b = ad.Tensor([[1.0, 2.0]])
        ad.backward(ad.l2_distance(a, b))
        np.testing.assert_array_equal(a.grad, [[0.0, 0.0]])


class TestGraph:
    def test_diamond_accumulates_both_paths(self):
        for v in [-3.0, 0.0, 1.0, 7.0]:
            x = ad.Tensor([v], requires_grad=True)
            y = ad.tensor_sum(ad.mul(x, x))
            ad.backward(y)
            assert x.grad[0] == 2.0 * v  # exact for integer-valued x

    def test_backward_requires_scalar(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            ad.backward(ad.neg(x))

    def test_repeated_backward_accumulates(self):
        x = ad.Tensor([2.0], requires_grad=True)
        y = ad.tensor_sum(ad.mul(x, x))
        ad.backward(y)
        ad.backward(y)
        assert x.grad[0] == 8.0

    def test_forward_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 8))

        def run():
            t = ad.Tensor(x)
            return ad.softmax_rows(ad.matmul(ad.tanh(t), t)).data.tobytes()

        assert run() == run()

    def test_detach_blocks_gradient(self):
        x = ad.Tensor([3.0], requires_grad=True)
        y = ad.tensor_sum(ad.mul(x.detach(), x))
        ad.backward(y)
        assert x.grad[0] == 3.0


class TestStructuredOps:
    def test_add_rowvec(self):
        x = ad.Tensor(np.zeros((2, 3)))
        v = ad.Tensor([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ad.add_rowvec(x, v).data, [[1, 2, 3], [1, 2, 3]])

    def test_logsumexp_rows_matches_naive(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-5, 5, size=(10, 3))
        got = ad.logsumexp_rows(ad.Tensor(x)).data
        np.testing.assert_allclose(got, np.log(np.exp(x).sum(axis=1)), rtol=1e-12)

    def test_diag_part_of_stack(self):
        stack = ad.Tensor(np.arange(18.0).reshape(2, 3, 3))
        np.testing.assert_array_equal(ad.diag_part(stack).data, [[0, 4, 8], [9, 13, 17]])

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
