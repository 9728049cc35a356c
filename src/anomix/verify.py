"""Self-verification suite: ``run_all()`` returns a report of every check.

Three families of checks, each with an explicit tolerance and the
maximum observed error:

* central finite differences against every analytic gradient, op by op
  (every differentiable op in ``autodiff``, named "op <function>":
  ``dense`` for each activation with respect to x, w and b, each fused
  objective term, ``binary_cross_entropy`` for both labels, and the
  batched mixture ops with respect to each input) and loss by loss
  (1e-5 relative; 1e-4 through the mixture statistics and energy, whose
  longer chains accumulate more rounding).  ``gradient_cases`` is the
  one list of these cases; the test suite runs the same list and checks
  that it names every public op returning a ``Tensor``.  Each op's
  output becomes a scalar here by ``mul`` with a fixed random tensor
  and ``tensor_sum``, the two combinators;
* the membership-statistics cross-check between the graph route and the
  classical EM M-step (1e-12);
* sample energies against ``mixture.mixture_log_pdf``, the naive
  mixture density from ``slogdet`` and ``inv`` in log space, with no
  Cholesky factor (1e-10).

Everything runs in float64, the four big networks included, so the
tolerances measure the maths and not float32 rounding.  The seeds are
fixed, so a passing build passes forever: gradient trial t uses seed t,
the full objective seeds 0 (model) and 999 (batch), the EM cross-checks
17 and the energy checks 29.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import losses as ls
from . import mixture as mx
from . import networks as nets
from . import training as tr
from .autodiff import Tensor

GRAD_TOL = 1e-5
GRAD_TOL_MIXTURE = 1e-4
CROSS_CHECK_TOL = 1e-12
ENERGY_TOL = 1e-10
INSTANCES = 10


@dataclass
class CheckResult:
    name: str
    tolerance: float
    max_error: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return f"[{mark}] {self.name:<48} tol={self.tolerance:<8g} max_err={self.max_error:.3e}"


@dataclass
class VerifyReport:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [c.line() for c in self.checks]
        status = "all checks passed" if self.ok else "VERIFICATION FAILED"
        return "\n".join(lines + [status])


def _op_gradient_cases(rng):
    a = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.standard_normal((4, 3)))
    c = Tensor(rng.standard_normal((3, 2)))
    bias = Tensor(rng.standard_normal(2))
    w = Tensor(rng.standard_normal((4, 3)))
    w2 = Tensor(rng.standard_normal((4, 2)))
    p = Tensor(rng.uniform(0.2, 0.8, size=(4, 3)))
    # Through float32 and back.  A float32 value keeps about 7 digits, so
    # a step of h = 1e-5 survives the rounding only on small values.
    small = Tensor(1e-5 * rng.standard_normal((4, 3)))
    return [
        ("op mul", lambda: ad.tensor_sum(ad.mul(ad.mul(a, b), w)), a),
        ("op tensor_sum", lambda: ad.tensor_sum(a), a),
        ("op weighted_sum", lambda: ad.weighted_sum([ad.tensor_sum(ad.mul(a, w)), ad.tensor_sum(a)], [0.7, -1.3]), a),
        ("op weighted_sum of tensors",
         lambda: ad.tensor_sum(ad.mul(ad.weighted_sum([a, b, a], [0.7, -1.3, 2.0]), w)), a),
        ("op softmax_rows", lambda: ad.tensor_sum(ad.mul(ad.softmax_rows(a), w)), a),
        ("op l1_distance d/da", lambda: ad.l1_distance(a, b), a),
        ("op l1_distance d/db", lambda: ad.l1_distance(a, b), b),
        ("op l2_distance d/da", lambda: ad.l2_distance(a, b), a),
        ("op l2_distance d/db", lambda: ad.l2_distance(a, b), b),
        ("op binary_cross_entropy label 1", lambda: ad.binary_cross_entropy(p, 1), p),
        ("op binary_cross_entropy label 0", lambda: ad.binary_cross_entropy(p, 0), p),
        ("op cast", lambda: ad.tensor_sum(ad.mul(ad.cast(ad.cast(small, np.float32), np.float64), w)), small),
    ] + [
        (f"op dense {act} d/d{name}", lambda act=act: ad.tensor_sum(ad.mul(ad.dense(a, c, bias, act), w2)), t)
        for act in ad.ACTIVATIONS
        for name, t in (("x", a), ("w", c), ("b", bias))
    ]


def _mixture_op_gradient_cases(rng):
    n, d, k = 6, 2, 3
    z = Tensor(rng.standard_normal((n, d)))
    g = rng.uniform(0.05, 1.0, size=(n, k))
    gamma = Tensor(g / g.sum(axis=1, keepdims=True))
    # Component 2 holds no mass, so mixture_moments resets it to the batch mean.
    g[:, 2] = 0.0
    gamma_dead = Tensor(g / g.sum(axis=1, keepdims=True))
    w_weights = Tensor(rng.standard_normal(k))
    w_means = Tensor(rng.standard_normal((k, d)))
    w_covs = Tensor(rng.standard_normal((k, d, d)))

    def moments(memberships):
        stats = ad.mixture_moments(z, memberships, 1e-3)
        terms = [ad.tensor_sum(ad.mul(t, w)) for t, w in zip(stats, (w_weights, w_means, w_covs))]
        return ad.weighted_sum(terms, [1.0, 1.0, 1.0])

    means = Tensor(rng.standard_normal((k, d)))
    # A raw covariance leaf: positive-definite symmetric part plus an
    # antisymmetric part that the op must ignore.
    m = rng.standard_normal((k, d, d))
    skew = rng.standard_normal((k, d, d))
    covs = Tensor(m @ m.transpose(0, 2, 1) + np.eye(d) + skew - skew.transpose(0, 2, 1))
    w_log = Tensor(rng.standard_normal((n, k)))
    log_dens = Tensor(rng.standard_normal((n, k)))
    weights = Tensor(rng.uniform(0.1, 1.0, size=k))
    w_energy = Tensor(rng.standard_normal(n))
    spd = Tensor(m @ m.transpose(0, 2, 1) + np.eye(d))

    def log_densities():
        return ad.tensor_sum(ad.mul(ad.gaussian_log_densities(z, means, covs), w_log))

    def energy():
        return ad.tensor_sum(ad.mul(ad.mixture_energy(log_dens, weights), w_energy))

    return [
        ("op mixture_moments d/dz", lambda: moments(gamma), z),
        ("op mixture_moments d/dgamma", lambda: moments(gamma), gamma),
        ("op mixture_moments d/dz (degenerate component)", lambda: moments(gamma_dead), z),
        ("op gaussian_log_densities d/dz", log_densities, z),
        ("op gaussian_log_densities d/dmeans", log_densities, means),
        ("op gaussian_log_densities d/dcovs", log_densities, covs),
        ("op mixture_energy d/dlog_densities", energy, log_dens),
        ("op mixture_energy d/dweights", energy, weights),
        ("op inverse_diagonal_sum", lambda: ad.inverse_diagonal_sum(spd), spd),
    ]


def _loss_gradient_cases(rng):
    x = Tensor(rng.standard_normal((5, 6)))
    x_rec = Tensor(rng.standard_normal((5, 6)))
    z = Tensor(rng.standard_normal((5, 3)))
    z_rec = Tensor(rng.standard_normal((5, 3)))
    d_real = Tensor(rng.uniform(0.2, 0.8, (5, 1)))
    d_fake = Tensor(rng.uniform(0.2, 0.8, (5, 1)))
    weights = ls.LossWeights()

    def composed():
        return ls.total_generator_loss(
            ls.image_reconstruction_loss(x, x_rec),
            ls.generator_adversarial_loss(d_fake),
            ls.latent_representation_loss(z, z_rec),
            ad.tensor_sum(z),  # cheap differentiable stand-in for the mixture term
            weights,
        )

    return [
        ("loss image reconstruction", lambda: ls.image_reconstruction_loss(x, x_rec), x_rec),
        ("loss latent distance", lambda: ls.latent_representation_loss(z, z_rec), z_rec),
        ("loss adversarial (disc) d/dreal", lambda: ls.discriminator_loss(d_real, d_fake), d_real),
        ("loss adversarial (disc) d/dfake", lambda: ls.discriminator_loss(d_real, d_fake), d_fake),
        ("loss adversarial (gen)", lambda: ls.generator_adversarial_loss(d_fake), d_fake),
        ("loss weighted composition", composed, x),
    ]


def _mixture_loss_gradient_cases(rng):
    z = Tensor(rng.standard_normal((5, 2)))
    g = rng.uniform(0.05, 1.0, size=(5, 2))
    gamma = Tensor(g / g.sum(axis=1, keepdims=True))
    # Three components, the last with mass below the degenerate threshold.
    dead = np.concatenate([g, np.full((5, 1), 1e-14)], axis=1)
    gamma_dead = Tensor(dead / dead.sum(axis=1, keepdims=True))

    def mixture_loss(memberships):
        params = mx.estimate_gmm(z, memberships, eps=1e-3)
        return mx.estimation_loss(z, memberships, params, tr.LAMBDA1, tr.LAMBDA2)

    return [
        ("mixture loss d/dz", lambda: mixture_loss(gamma), z),
        ("mixture loss d/dgamma", lambda: mixture_loss(gamma), gamma),
        ("mixture loss d/dz (degenerate component)", lambda: mixture_loss(gamma_dead), z),
    ]


def gradient_cases(rng) -> list[tuple[str, Callable[[], Tensor], Tensor, float]]:
    """Every gradient case as (name, scalar closure, tensor to check,
    tolerance), built at random inputs drawn from ``rng``.

    This is the one list: ``gradient_checks`` and the test suite both
    run it.  Cases through the mixture loss get the looser tolerance.
    """
    cases = _op_gradient_cases(rng) + _mixture_op_gradient_cases(rng) + _loss_gradient_cases(rng)
    out = [(name, f, wrt, GRAD_TOL) for name, f, wrt in cases]
    out += [(name, f, wrt, GRAD_TOL_MIXTURE) for name, f, wrt in _mixture_loss_gradient_cases(rng)]
    return out


def gradient_checks() -> list[CheckResult]:
    worst: dict[str, CheckResult] = {}
    for trial in range(INSTANCES):
        rng = np.random.default_rng(trial)
        for name, f, wrt, tol in gradient_cases(rng):
            err = ad.gradient_check(f, wrt)
            if name not in worst or err > worst[name].max_error:
                worst[name] = CheckResult(name, tol, err)
    return list(worst.values())


def full_pipeline_gradient_check() -> CheckResult:
    """Finite differences through ``training.generator_loss``, the
    objective the generator update minimizes, network parameters
    included, on a small model and batch."""
    arch = nets.ArchConfig(
        input_dim=16, latent_dim=2, n_components=2,
        encoder_widths=(6,), discriminator_widths=(5,), estimator_widths=(4,),
    )
    model = nets.init_model(arch, 0, dtype=np.float64)
    rng = np.random.default_rng(999)
    x = Tensor(rng.standard_normal((5, 16)))
    config = tr.TrainConfig(cov_eps=1e-3)

    def total():
        z = nets.encode(model, x)
        return tr.generator_loss(model, x, z, nets.decode(model, z), config).total

    max_err = 0.0
    probe = [model.encoder.weights[0], model.decoder.biases[0],
             model.aux_encoder.weights[-1], model.estimator.weights[0]]
    for p in probe:
        max_err = max(max_err, ad.gradient_check(total, p))
    return CheckResult("full objective d/dparams", GRAD_TOL_MIXTURE, max_err)


def mixture_cross_checks() -> CheckResult:
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        g = rng.uniform(0.05, 1.0, size=(n, k))
        gamma = g / g.sum(axis=1, keepdims=True)
        worst = max(worst, mx.cross_check_estimation(rng.standard_normal((n, d)), gamma))
    return CheckResult("mixture statistics vs EM M-step", CROSS_CHECK_TOL, worst)


def energy_oracle_checks() -> CheckResult:
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        alpha = rng.uniform(0.2, 1.0, size=k)
        alpha /= alpha.sum()
        means = rng.uniform(-2, 2, size=(k, d))
        m = rng.standard_normal((k, d, d))
        covs = m @ m.transpose(0, 2, 1) + 0.5 * np.eye(d)
        z = rng.uniform(-3, 3, size=(1, d))
        got = mx.energy_batch(Tensor(z), mx.GmmParams.from_arrays(alpha, means, covs)).item()
        want = -mx.mixture_log_pdf(z, alpha, means, covs).item()
        worst = max(worst, abs(got - want))
    return CheckResult("energy vs naive mixture density", ENERGY_TOL, worst)


def run_all() -> VerifyReport:
    checks = gradient_checks()
    checks.append(full_pipeline_gradient_check())
    checks.append(mixture_cross_checks())
    checks.append(energy_oracle_checks())
    return VerifyReport(checks=checks)
