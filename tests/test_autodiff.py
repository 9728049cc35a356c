"""Tensor op semantics, gradients vs central finite differences, graph rules."""

import math

import numpy as np
import pytest

from anomix import autodiff as ad
from anomix import verify
from anomix.errors import NumericError, ShapeError


class TestElementwise:
    def test_sigmoid_at_zero(self):
        x = ad.Tensor([0.0])
        y = ad.tensor_sum(ad.sigmoid(x))
        assert y.item() == pytest.approx(0.5, abs=1e-15)
        (grad,) = ad.backward(y, [x])
        assert grad[0] == pytest.approx(0.25, abs=1e-15)

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
        x = ad.Tensor([4.0, 5.0, 6.0])
        (grad,) = ad.backward(ad.mean(x), [x])
        np.testing.assert_array_equal(grad, [1 / 3, 1 / 3, 1 / 3])


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
        a = ad.Tensor([3.0, 4.0])
        b = ad.Tensor([0.0, 0.0])
        assert ad.l1_distance(a, b).item() == pytest.approx(7.0)
        assert ad.l2_distance(a, b).item() == pytest.approx(5.0)

    def test_l2_subgradient_zero_at_coincidence(self):
        a = ad.Tensor([[1.0, 2.0]])
        b = ad.Tensor([[1.0, 2.0]])
        (grad,) = ad.backward(ad.l2_distance(a, b), [a])
        np.testing.assert_array_equal(grad, [[0.0, 0.0]])


class TestGraph:
    def test_diamond_accumulates_both_paths(self):
        for v in [-3.0, 0.0, 1.0, 7.0]:
            x = ad.Tensor([v])
            (grad,) = ad.backward(ad.tensor_sum(ad.mul(x, x)), [x])
            assert grad[0] == 2.0 * v  # exact for integer-valued x

    def test_backward_requires_scalar(self):
        x = ad.Tensor([1.0, 2.0])
        with pytest.raises(ShapeError):
            ad.backward(ad.neg(x), [x])

    def test_forward_deterministic(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 8))

        def run():
            t = ad.Tensor(x)
            return ad.softmax_rows(ad.matmul(ad.tanh(t), t)).data.tobytes()

        assert run() == run()


def _graph(rng):
    """A loss over two leaves through a shared subgraph, and a third
    leaf feeding a branch the loss never reaches."""
    a = ad.Tensor(rng.standard_normal((4, 3)))
    b = ad.Tensor(rng.standard_normal((3, 5)))
    unused = ad.Tensor(rng.standard_normal(5))
    shared = ad.tanh(ad.matmul(a, b))
    ad.add_rowvec(shared, unused)
    w = ad.Tensor(rng.standard_normal((4, 5)))
    loss = ad.add(ad.tensor_sum(ad.mul(shared, shared)), ad.tensor_sum(ad.mul(ad.softmax_rows(shared), w)))
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
        np.testing.assert_array_equal(grad_unused, np.zeros(5))

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
