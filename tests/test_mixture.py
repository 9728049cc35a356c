"""Mixture statistics vs independent oracles; energy vs naive density."""

import math

import numpy as np
import pytest

from anomix import mixture as mx
from anomix.autodiff import Tensor
from anomix.errors import InvalidInputError, VerificationError

EPS = mx.DEFAULT_COV_EPS


def random_memberships(rng, n, k):
    g = rng.uniform(0.05, 1.0, size=(n, k))
    return g / g.sum(axis=1, keepdims=True)


def direct_statistics(z, gamma, eps):
    """Loop-only evaluation of the membership-weighted statistics.

    Deliberately written with explicit accumulation loops so it shares
    nothing with either production route.
    """
    n, d = z.shape
    k_components = gamma.shape[1]
    alpha = np.zeros(k_components)
    means = np.zeros((k_components, d))
    covs = np.zeros((k_components, d, d))
    for k in range(k_components):
        mass = 0.0
        for i in range(n):
            mass += gamma[i, k]
        alpha[k] = mass / n
        for i in range(n):
            means[k] += gamma[i, k] * z[i]
        means[k] /= mass
        for i in range(n):
            diff = z[i] - means[k]
            covs[k] += gamma[i, k] * np.outer(diff, diff)
        covs[k] = covs[k] / mass + eps * np.eye(d)
    return alpha, means, covs


def naive_mixture_energy(z, alpha, means, covs):
    """-log of the mixture density via plain determinant and inverse."""
    total = 0.0
    d = len(z)
    for k in range(len(alpha)):
        diff = z - means[k]
        det = np.linalg.det(2.0 * math.pi * covs[k])
        quad = diff @ np.linalg.inv(covs[k]) @ diff
        total += alpha[k] * math.exp(-0.5 * quad) / math.sqrt(det)
    return -math.log(total)


class TestEstimateGmm:
    def test_hand_case_two_hard_clusters(self):
        z = Tensor([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0], [12.0, 10.0]])
        gamma = Tensor([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        params = mx.estimate_gmm(z, gamma, eps=EPS)
        alpha, means, covs = params.as_arrays()
        np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(means, [[1.0, 0.0], [11.0, 10.0]], atol=1e-15)
        expected = np.array([[1.0, 0.0], [0.0, 0.0]]) + EPS * np.eye(2)
        np.testing.assert_allclose(covs[0], expected, atol=1e-15)
        np.testing.assert_allclose(covs[1], expected, atol=1e-15)

    def test_identical_points_give_zero_scatter(self):
        p = np.array([1.5, -2.0, 0.25])
        z = Tensor(np.tile(p, (6, 1)))
        gamma = Tensor(np.full((6, 2), 0.5))
        alpha, means, covs = mx.estimate_gmm(z, gamma, eps=EPS).as_arrays()
        np.testing.assert_allclose(means, [p, p], atol=1e-15)
        for k in range(2):
            np.testing.assert_allclose(covs[k], EPS * np.eye(3), atol=1e-18)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(400 + seed)
        z = rng.standard_normal((50, 3))
        gamma = random_memberships(rng, 50, 4)
        got = mx.estimate_gmm(Tensor(z), Tensor(gamma), eps=EPS).as_arrays()
        want = direct_statistics(z, gamma, EPS)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-12)

    def test_rejects_single_sample(self):
        with pytest.raises(InvalidInputError):
            mx.estimate_gmm(Tensor([[1.0, 2.0]]), Tensor([[1.0]]))

    def test_degenerate_component_resets_to_batch_mean(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((8, 2))
        gamma = np.zeros((8, 2))
        gamma[:, 0] = 1.0  # component 1 receives zero mass
        alpha, means, covs = mx.estimate_gmm(Tensor(z), Tensor(gamma), eps=EPS).as_arrays()
        np.testing.assert_allclose(alpha, [1.0, 0.0])
        np.testing.assert_allclose(means[1], z.mean(axis=0), atol=1e-15)
        np.testing.assert_allclose(covs[1], EPS * np.eye(2), atol=1e-18)

    @pytest.mark.parametrize("seed", range(5))
    def test_output_satisfies_invariants(self, seed):
        rng = np.random.default_rng(500 + seed)
        n, d, k = rng.integers(2, 40), rng.integers(1, 5), rng.integers(1, 5)
        z = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0)
        params = mx.estimate_gmm(Tensor(z), Tensor(random_memberships(rng, n, k)), eps=EPS)
        params.validate()


class TestEnergy:
    def test_standard_normal_at_mode_1d(self):
        params = mx.GmmParams.from_arrays(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1, 1)))
        e = mx.energy(Tensor([0.0]), params)
        assert e.item() == pytest.approx(0.5 * math.log(2.0 * math.pi), abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_identity_covariance_at_mode(self, d):
        mu = np.linspace(-1.0, 1.0, d)
        params = mx.GmmParams.from_arrays(np.array([1.0]), mu[None, :], np.eye(d)[None, :, :])
        e = mx.energy(Tensor(mu), params)
        assert e.item() == pytest.approx(0.5 * d * math.log(2.0 * math.pi), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_density_oracle(self, seed):
        rng = np.random.default_rng(600 + seed)
        means = rng.uniform(-2, 2, size=(3, 2))
        covs = np.empty((3, 2, 2))
        for k in range(3):
            m = rng.standard_normal((2, 2))
            covs[k] = m @ m.T + 0.5 * np.eye(2)
        alpha = rng.uniform(0.2, 1.0, size=3)
        alpha /= alpha.sum()
        params = mx.GmmParams.from_arrays(alpha, means, covs)
        for _ in range(20):
            z = rng.uniform(-3, 3, size=2)
            got = mx.energy(Tensor(z), params).item()
            want = naive_mixture_energy(z, alpha, means, covs)
            assert got == pytest.approx(want, abs=1e-10)

    def test_invariant_under_component_permutation(self):
        rng = np.random.default_rng(42)
        alpha = np.array([0.2, 0.5, 0.3])
        means = rng.uniform(-1, 1, size=(3, 4))
        covs = np.stack([np.eye(4) * s for s in (0.5, 1.0, 2.0)])
        z = rng.standard_normal(4)
        perm = [2, 0, 1]
        e1 = mx.energy(Tensor(z), mx.GmmParams.from_arrays(alpha, means, covs)).item()
        e2 = mx.energy(Tensor(z), mx.GmmParams.from_arrays(alpha[perm], means[perm], covs[perm])).item()
        assert e1 == pytest.approx(e2, abs=1e-12)

    def test_monotone_in_mahalanobis_distance_single_component(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((3, 3))
        cov = m @ m.T + 0.5 * np.eye(3)
        mu = rng.standard_normal(3)
        params = mx.GmmParams.from_arrays(np.array([1.0]), mu[None], cov[None])
        for _ in range(10):
            direction = rng.standard_normal(3)
            energies = [
                mx.energy(Tensor(mu + t * direction), params).item()
                for t in np.linspace(0.0, 5.0, 12)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(energies, energies[1:]))

    def test_density_integrates_to_one_monte_carlo(self):
        # Sanity at 1e-2, not precision: 1e6 uniform samples over [-12, 12].
        rng = np.random.default_rng(123)
        alpha = np.array([0.4, 0.6])
        means = np.array([[-2.0], [3.0]])
        covs = np.array([[[1.0]], [[2.25]]])
        params = mx.GmmParams.from_arrays(alpha, means, covs)
        lo, hi = -12.0, 12.0
        xs = rng.uniform(lo, hi, size=1_000_000)
        e = mx.energy_batch(Tensor(xs[:, None]), params).data
        integral = (hi - lo) * np.exp(-e).mean()
        assert integral == pytest.approx(1.0, abs=1e-2)


class TestEstimationLoss:
    def test_penalty_only_unit_diagonals(self):
        k, d = 3, 4
        params = mx.GmmParams.from_arrays(
            np.full(k, 1.0 / k), np.zeros((k, d)), np.stack([np.eye(d)] * k)
        )
        loss = mx.estimation_loss(Tensor(np.zeros((2, d))), Tensor(np.full((2, k), 1 / k)), params, 0.0, 1.0)
        assert loss.item() == pytest.approx(k * d, abs=1e-12)

    def test_energy_only_single_sample_at_mode(self):
        d = 3
        params = mx.GmmParams.from_arrays(np.array([1.0]), np.zeros((1, d)), np.eye(d)[None])
        loss = mx.estimation_loss(Tensor(np.zeros((1, d))), Tensor(np.ones((1, 1))), params, 1.0, 0.0)
        assert loss.item() == pytest.approx(0.5 * d * math.log(2.0 * math.pi), abs=1e-12)


class TestEmFit:
    def test_recovers_separated_gaussians(self):
        rng = np.random.default_rng(20)
        a = rng.normal(0.0, 1.0, size=(150, 2))
        b = rng.normal(10.0, 1.0, size=(150, 2))  # 10 sigma separation
        z = np.vstack([a, b])
        result = mx.em_fit(z, 2, seed=0, iters=40)
        _, means, _ = result.params.as_arrays()
        means = means[np.argsort(means[:, 0])]
        np.testing.assert_allclose(means[0], a.mean(axis=0), atol=0.1)
        np.testing.assert_allclose(means[1], b.mean(axis=0), atol=0.1)

    def test_single_component_closed_form(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((40, 3)) * 2.0 + 1.0
        result = mx.em_fit(z, 1, seed=3, iters=5)
        alpha, means, covs = result.params.as_arrays()
        assert alpha[0] == 1.0
        np.testing.assert_allclose(means[0], z.mean(axis=0), atol=1e-12)
        centered = z - z.mean(axis=0)
        expected = centered.T @ centered / len(z) + EPS * np.eye(3)
        np.testing.assert_allclose(covs[0], expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_log_likelihood_non_decreasing(self, seed):
        rng = np.random.default_rng(900 + seed)
        z = np.vstack([
            rng.normal(-2.0, 0.7, size=(60, 2)),
            rng.normal(2.0, 1.2, size=(60, 2)),
        ])
        history = mx.em_fit(z, 3, seed=seed, iters=30).log_likelihood
        assert len(history) == 30
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))

    def test_needs_more_samples_than_components(self):
        with pytest.raises(InvalidInputError):
            mx.em_fit(np.zeros((3, 2)), 3, seed=0)


class TestCrossCheck:
    def test_random_instances_match(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            n, d, k = int(rng.integers(2, 50)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
            report = mx.cross_check_estimation(rng.standard_normal((n, d)), random_memberships(rng, n, k))
            assert report.ok, str(report)

    def test_hand_case_matches(self):
        z = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0], [12.0, 10.0]])
        gamma = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert mx.cross_check_estimation(z, gamma).ok

    def test_smallest_case_matches(self):
        z = np.array([[1.0], [3.0]])
        gamma = np.ones((2, 1))
        report = mx.cross_check_estimation(z, gamma)
        assert report.ok
        assert "OK" in str(report)
