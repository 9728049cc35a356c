"""Gaussian-mixture estimation, sample energy, and the EM M-step oracle.

The mixture is held as stacked tensors: weights [K], means [K x d] and
covariances [K x d x d].  Two routes compute the same mixture statistics:

* ``estimate_gmm`` builds them inside the autodiff graph from soft
  memberships with one batched op (``autodiff.mixture_moments``), so
  gradients flow back into both the latent batch and the membership
  matrix during training.
* ``_m_step`` is a plain-numpy classical EM M-step, written
  independently, which must agree with ``estimate_gmm`` to 1e-12 on
  identical responsibilities (``cross_check_estimation``).

Energies are computed in log space with log-sum-exp over the batched
component log densities (``autodiff.gaussian_log_densities``);
evaluating the mixture density directly underflows for samples far
from every component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidInputError, NumericError

DEFAULT_COV_EPS = 1e-6
DEGENERATE_MASS = 1e-12
LOG_TWO_PI = float(np.log(2.0 * np.pi))


@dataclass
class GmmParams:
    """Mixture weights, means, and full covariance matrices, stacked over
    the K components.

    All fields are graph tensors so downstream energies stay
    differentiable; use ``from_arrays`` to wrap plain numpy values
    (e.g. parameters loaded from a checkpoint).
    """

    alpha: Tensor               # [K]
    means: Tensor               # [K x d]
    covariances: Tensor         # [K x d x d]

    @property
    def n_components(self) -> int:
        return self.alpha.shape[0]

    @classmethod
    def from_arrays(cls, alpha: np.ndarray, means: np.ndarray, covariances: np.ndarray) -> "GmmParams":
        return cls(alpha=Tensor(alpha), means=Tensor(means), covariances=Tensor(covariances))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.alpha.data.copy(), self.means.data.copy(), self.covariances.data.copy()

    def validate(self, atol: float = 1e-9) -> None:
        """Raise NumericError if any invariant fails.

        Weights nonnegative and summing to 1, covariances symmetric and
        positive definite (Cholesky must succeed).
        """
        alpha, means, covs = self.as_arrays()
        if np.any(alpha < -atol) or abs(alpha.sum() - 1.0) > atol:
            raise NumericError(f"mixture weights invalid: {alpha}")
        if not np.all(np.isfinite(means)):
            raise NumericError("non-finite mixture mean")
        for k in range(self.n_components):
            if np.max(np.abs(covs[k] - covs[k].T)) > atol:
                raise NumericError(f"covariance {k} is not symmetric")
            try:
                np.linalg.cholesky(covs[k])
            except np.linalg.LinAlgError as err:
                raise NumericError(f"covariance {k} is not positive definite") from err


def estimate_gmm(z: Tensor, gamma: Tensor, eps: float = DEFAULT_COV_EPS) -> GmmParams:
    """Mixture statistics of a batch from soft memberships, differentiable.

    For each component k with responsibility mass s_k = Σ_i γ_ik:

        weight_k     = s_k / n
        mean_k       = Σ_i γ_ik z_i / s_k
        covariance_k = Σ_i γ_ik (z_i - mean_k)(z_i - mean_k)ᵀ / s_k + eps·I

    A component whose mass falls below 1e-12 is reset to the batch mean
    with covariance eps·I so that one dead mixture slot cannot abort
    training.
    """
    if z.ndim != 2 or gamma.ndim != 2 or z.shape[0] != gamma.shape[0]:
        raise InvalidInputError(f"incompatible latent/membership shapes {z.shape} and {gamma.shape}")
    n = z.shape[0]
    if n < 2:
        raise InvalidInputError("mixture estimation needs at least 2 samples")
    if eps < 0.0:
        raise InvalidInputError("covariance floor must be nonnegative")

    alpha = ad.mul(ad.sum_axis(gamma, 0), 1.0 / n)
    means, covariances = ad.mixture_moments(z, gamma, eps, DEGENERATE_MASS)
    return GmmParams(alpha=alpha, means=means, covariances=covariances)


def energy_batch(z: Tensor, params: GmmParams) -> Tensor:
    """Negative log mixture density for each row of a latent batch [n x d]."""
    log_alpha = ad.log(ad.clip(params.alpha, 1e-300, np.inf))
    log_densities = ad.gaussian_log_densities(z, params.means, params.covariances)
    return ad.neg(ad.logsumexp_rows(ad.add_rowvec(log_densities, log_alpha)))


def estimation_loss(
    z_batch: Tensor,
    gamma: Tensor,
    params: GmmParams,
    lambda1: float,
    lambda2: float,
) -> Tensor:
    """Summed batch energy plus the covariance-diagonal penalty.

        lambda1 · Σ_i E(z_i) + lambda2 · Σ_k Σ_j 1 / covariance_k[j, j]

    ``params`` must come from ``estimate_gmm`` on the same (z_batch,
    gamma) so that both terms stay differentiable end to end.  The
    penalty pushes covariance diagonals away from zero; without it the
    mixture can collapse onto single samples.
    """
    total_energy = ad.tensor_sum(energy_batch(z_batch, params))
    penalty = ad.tensor_sum(ad.div(Tensor(1.0), ad.diag_part(params.covariances)))
    return ad.add(ad.mul(total_energy, lambda1), ad.mul(penalty, lambda2))


# ---------------------------------------------------------------------------
# plain-numpy oracles: the mixture density and the EM M-step
# ---------------------------------------------------------------------------

def _log_gaussian(z: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = z.shape[1]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as err:
        raise NumericError("covariance is not positive definite") from err
    solved = np.linalg.solve(chol, (z - mean).T)
    quad = (solved * solved).sum(axis=0)
    logdet = 2.0 * np.log(np.diagonal(chol)).sum()
    return -0.5 * (quad + d * LOG_TWO_PI + logdet)


def mixture_log_pdf(z: np.ndarray, alpha: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Log density of the mixture at each row of z, via log-sum-exp."""
    with np.errstate(divide="ignore"):
        logs = np.stack(
            [np.log(alpha[k]) + _log_gaussian(z, means[k], covs[k]) for k in range(len(alpha))],
            axis=1,
        )
    m = logs.max(axis=1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    return (m + np.log(np.exp(logs - m).sum(axis=1, keepdims=True))).reshape(-1)


def _m_step(z: np.ndarray, resp: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximization step: same degenerate-component rule as estimate_gmm."""
    n, d = z.shape
    k_components = resp.shape[1]
    mass = resp.sum(axis=0)
    alpha = mass / n
    means = np.empty((k_components, d))
    covs = np.empty((k_components, d, d))
    for k in range(k_components):
        if mass[k] < DEGENERATE_MASS:
            means[k] = z.mean(axis=0)
            covs[k] = np.eye(d) * eps
            continue
        means[k] = np.einsum("i,id->d", resp[:, k], z) / mass[k]
        centered = z - means[k]
        cov = np.einsum("i,id,ie->de", resp[:, k], centered, centered) / mass[k]
        covs[k] = (cov + cov.T) / 2.0 + np.eye(d) * eps
    return alpha, means, covs


def cross_check_estimation(z: np.ndarray, gamma: np.ndarray, eps: float = DEFAULT_COV_EPS) -> float:
    """Largest absolute difference, over weights, means and covariances,
    between estimate_gmm and one EM M-step on identical responsibilities."""
    z = np.asarray(z, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    graph = estimate_gmm(Tensor(z), Tensor(gamma), eps=eps).as_arrays()
    oracle = _m_step(z, gamma, eps)
    return max(float(np.max(np.abs(g - e))) for g, e in zip(graph, oracle))
