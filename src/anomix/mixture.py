"""Gaussian-mixture estimation, sample energy, and their plain-numpy oracles.

The mixture is held as stacked tensors: weights [K], means [K x d] and
covariances [K x d x d].  Two routes compute the same mixture statistics:

* ``estimate_gmm`` builds them inside the autodiff graph from soft
  memberships with one batched op (``autodiff.mixture_moments``, one
  node per statistic), so gradients flow back into both the latent
  batch and the membership matrix during training.
* ``_m_step`` is a plain-numpy classical EM M-step, written
  independently, which must agree with ``estimate_gmm`` to 1e-12 on
  identical responsibilities (``cross_check_estimation``).  The two
  share only ``autodiff.DEGENERATE_MASS`` and ``DEFAULT_COV_EPS``.

Energies are computed in log space with log-sum-exp over the batched
component log densities (``autodiff.gaussian_log_densities``), in one
node (``autodiff.mixture_energy``); evaluating the mixture density
directly underflows for samples far from every component.
``mixture_log_pdf`` is their one naive oracle: also log-sum-exp, so far
samples stay finite, but built from ``slogdet`` and ``inv`` rather than
a Cholesky factor, so it shares no route with
``gaussian_log_densities``.  ``verify`` checks energies against it at
1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import InvalidInputError, NumericError

DEFAULT_COV_EPS = 1e-6
_VALIDATE_ATOL = 1e-9       # slack of GmmParams.validate's weight-sum and symmetry checks


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

    @classmethod
    def from_arrays(cls, alpha: np.ndarray, means: np.ndarray, covariances: np.ndarray) -> "GmmParams":
        return cls(alpha=Tensor(alpha), means=Tensor(means), covariances=Tensor(covariances))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.alpha.data.copy(), self.means.data.copy(), self.covariances.data.copy()

    def validate(self) -> None:
        """Raise NumericError if any invariant fails.

        Weights nonnegative and summing to 1, covariances symmetric and
        positive definite (Cholesky must succeed).  Finite values need no
        check: a ``Tensor`` refuses a non-finite value when it is built.
        """
        alpha, covs = self.alpha.data, self.covariances.data
        if np.any(alpha < -_VALIDATE_ATOL) or abs(alpha.sum() - 1.0) > _VALIDATE_ATOL:
            raise NumericError(f"mixture weights invalid: {alpha}")
        asymmetric = np.any(np.abs(covs - covs.transpose(0, 2, 1)) > _VALIDATE_ATOL, axis=(1, 2))
        if asymmetric.any():
            raise NumericError(f"covariance {int(np.argmax(asymmetric))} is not symmetric")
        try:
            np.linalg.cholesky(covs)
        except np.linalg.LinAlgError as err:
            raise NumericError("a covariance is not positive definite") from err


def estimate_gmm(z: Tensor, gamma: Tensor, eps: float = DEFAULT_COV_EPS) -> GmmParams:
    """Mixture statistics of a batch from soft memberships, differentiable.

    For each component k with responsibility mass s_k = Σ_i γ_ik:

        weight_k     = s_k / n
        mean_k       = Σ_i γ_ik z_i / s_k
        covariance_k = Σ_i γ_ik (z_i - mean_k)(z_i - mean_k)ᵀ / s_k + eps·I

    A component whose mass falls below ``autodiff.DEGENERATE_MASS`` is
    reset to the batch mean with covariance eps·I so that one dead
    mixture slot cannot abort training.
    """
    if z.ndim != 2 or gamma.ndim != 2 or z.shape[0] != gamma.shape[0]:
        raise InvalidInputError(f"incompatible latent/membership shapes {z.shape} and {gamma.shape}")
    n = z.shape[0]
    if n < 2:
        raise InvalidInputError("mixture estimation needs at least 2 samples")
    if eps < 0.0:
        raise InvalidInputError("covariance floor must be nonnegative")

    alpha, means, covariances = ad.mixture_moments(z, gamma, eps)
    return GmmParams(alpha=alpha, means=means, covariances=covariances)


def energy_batch(z: Tensor, params: GmmParams) -> Tensor:
    """Negative log mixture density for each row of a latent batch [n x d]."""
    log_densities = ad.gaussian_log_densities(z, params.means, params.covariances)
    return ad.mixture_energy(log_densities, params.alpha)


def estimation_loss(z_batch: Tensor, params: GmmParams, lambda1: float, lambda2: float) -> Tensor:
    """Summed batch energy plus the covariance-diagonal penalty.

        lambda1 · Σ_i E(z_i) + lambda2 · Σ_k Σ_j 1 / covariance_k[j, j]

    ``params`` must come from ``estimate_gmm`` on the same z_batch so
    that both terms stay differentiable end to end.  The penalty pushes
    covariance diagonals away from zero; without it the mixture can
    collapse onto single samples.
    """
    total_energy = ad.tensor_sum(energy_batch(z_batch, params))
    penalty = ad.inverse_diagonal_sum(params.covariances)
    return ad.weighted_sum([total_energy, penalty], [lambda1, lambda2])


# ---------------------------------------------------------------------------
# plain-numpy oracles: the mixture density and the EM M-step
# ---------------------------------------------------------------------------

def mixture_log_pdf(z: np.ndarray, alpha: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Log density of the mixture at each row of z [n x d], in float64.

        log Σ_k alpha_k N(z; mean_k, cov_k),
        log N = -(diffᵀ inv(cov_k) diff + log det(2π cov_k)) / 2

    The log determinant comes from ``slogdet`` and the quadratic form
    from ``inv``, with no Cholesky factor, and the components are added
    by log-sum-exp.  A zero weight drops its component.
    """
    z = np.asarray(z, dtype=np.float64)
    sign, logdet = np.linalg.slogdet(2.0 * np.pi * covs)
    if np.any(sign <= 0):
        raise NumericError("covariance is not positive definite")
    diff = z[None, :, :] - means[:, None, :]                     # [K x n x d]
    quad = ((diff @ np.linalg.inv(covs)) * diff).sum(axis=2)     # [K x n]
    with np.errstate(divide="ignore"):
        logs = np.log(alpha)[:, None] - 0.5 * (quad + logdet[:, None])
    m = logs.max(axis=0)
    m[~np.isfinite(m)] = 0.0
    return m + np.log(np.exp(logs - m).sum(axis=0))


def _m_step(z: np.ndarray, resp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximization step: estimate_gmm's degenerate-component rule and default covariance floor."""
    n, d = z.shape
    k_components = resp.shape[1]
    mass = resp.sum(axis=0)
    alpha = mass / n
    means = np.empty((k_components, d))
    covs = np.empty((k_components, d, d))
    for k in range(k_components):
        if mass[k] < ad.DEGENERATE_MASS:
            means[k] = z.mean(axis=0)
            covs[k] = np.eye(d) * DEFAULT_COV_EPS
            continue
        means[k] = np.einsum("i,id->d", resp[:, k], z) / mass[k]
        centered = z - means[k]
        cov = np.einsum("i,id,ie->de", resp[:, k], centered, centered) / mass[k]
        covs[k] = (cov + cov.T) / 2.0 + np.eye(d) * DEFAULT_COV_EPS
    return alpha, means, covs


def cross_check_estimation(z: np.ndarray, gamma: np.ndarray) -> float:
    """Largest absolute difference, over weights, means and covariances,
    between estimate_gmm and one EM M-step on identical responsibilities."""
    z = np.asarray(z, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    graph = estimate_gmm(Tensor(z), Tensor(gamma)).as_arrays()
    oracle = _m_step(z, gamma)
    return max(float(np.max(np.abs(g - e))) for g, e in zip(graph, oracle))
