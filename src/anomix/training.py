"""Alternating adversarial training of all five networks on normal data.

Each batch runs one discriminator update (real patches vs
reconstructions) followed by one generator-side update of the encoder,
decoder, auxiliary encoder and membership estimator jointly.  Each
update asks ``autodiff.backward`` for the gradients of its own
parameters only, so the other side's networks act as fixed functions
and get no gradient work.  The membership gradient reaches the encoder
through the latent batch, which is the point of training the density
estimator jointly instead of fitting a mixture afterwards.

Everything is deterministic in (seed, config, data): initialization,
shuffling, and updates derive from one seeded generator, so two runs
with the same inputs produce byte-identical checkpoints.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import losses as ls
from . import mixture as mx
from . import networks as nets
from .autodiff import Tensor
from .errors import DataError, InvalidConfigError, InvalidInputError, NumericError
from .features import LABEL_ANOMALOUS, NormStats, PatchSet, compute_norm_stats

METRICS_HEADER = ["step", "epoch", "l_irec", "l_adv_g", "l_adv_d", "l_zrec", "l_es", "total"]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4
    batch_size: int = 64
    seed: int = 0
    lr_generator: float = 1e-3
    lr_discriminator: float = 1e-4
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weights: ls.LossWeights = field(default_factory=ls.LossWeights)
    lambda1: float = 0.1
    lambda2: float = 0.005
    cov_eps: float = 1e-6
    grad_clip: float = 5.0
    checkpoint_every: int = 100

    def validate(self) -> None:
        if self.epochs < 0:
            raise InvalidConfigError("epochs must be >= 0")
        if self.batch_size < 2:
            raise InvalidConfigError("batch_size must be >= 2 (mixture statistics need 2 samples)")
        if self.lr_generator <= 0 or self.lr_discriminator <= 0:
            raise InvalidConfigError("learning rates must be positive")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise InvalidConfigError("adam betas must lie in [0, 1)")
        if self.checkpoint_every < 1:
            raise InvalidConfigError("checkpoint_every must be >= 1")


class AdamState:
    """First/second moment buffers plus the shared step counter for one
    parameter group."""

    def __init__(self, params, lr: float, beta1: float, beta2: float, eps: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]


def clip_global_norm(grads, max_norm: float) -> None:
    """Scale the whole gradient group so its joint norm is <= max_norm."""
    if max_norm <= 0:
        return
    total = np.sqrt(sum(float((g * g).sum()) for g in grads))
    if total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale


def adam_update(params, grads, state: AdamState) -> None:
    """Standard bias-corrected Adam step, in place."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1 ** t
    correction2 = 1.0 - b2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        if not np.all(np.isfinite(p.data)):
            raise NumericError("non-finite parameter after optimizer step")


@dataclass
class TrainState:
    model: nets.Model
    adam_generator: AdamState
    adam_discriminator: AdamState
    step: int = 0


def make_train_state(arch: nets.ArchConfig, config: TrainConfig) -> TrainState:
    model = nets.init_model(arch, config.seed)
    return TrainState(
        model=model,
        adam_generator=AdamState(
            model.generator_parameters(), config.lr_generator,
            config.adam_beta1, config.adam_beta2, config.adam_eps,
        ),
        adam_discriminator=AdamState(
            model.discriminator_parameters(), config.lr_discriminator,
            config.adam_beta1, config.adam_beta2, config.adam_eps,
        ),
    )


def train_step(state: TrainState, batch: np.ndarray, config: TrainConfig) -> ls.LossBreakdown:
    """One discriminator update then one generator update on a batch.

    ``batch`` is a normalized [n x input_dim] design matrix with n >= 2.
    A zero adversarial weight disables the discriminator update entirely
    (its loss is still evaluated for the log).
    """
    if batch.ndim != 2 or batch.shape[0] < 2:
        raise InvalidInputError(f"batch must be [n>=2 x features], got {batch.shape}")
    model = state.model
    w = config.weights

    x = Tensor(batch)
    z = nets.encode(model, x)
    x_rec = nets.decode(model, z)

    # Differentiated with respect to the discriminator only, so the
    # reconstruction is a fixed input here.
    d_real = nets.discriminate(model, x)
    disc_loss, _ = ls.adversarial_losses(d_real, nets.discriminate(model, x_rec))
    disc_loss_value = disc_loss.item()
    if w.w_adversarial > 0.0:
        d_params = model.discriminator_parameters()
        grads = ad.backward(disc_loss, d_params)
        clip_global_norm(grads, config.grad_clip)
        adam_update(d_params, grads, state.adam_discriminator)

    # Generator side: reconstruction, latent round-trip, memberships,
    # batch mixture statistics, energies.  The discriminator is evaluated
    # with its fresh parameters but not updated here.
    z_rec = nets.encode_aux(model, x_rec)
    gamma = nets.membership(model, z)
    gmm = mx.estimate_gmm(z, gamma, eps=config.cov_eps)
    image_loss = ls.image_reconstruction_loss(x, x_rec)
    latent_loss = ls.latent_representation_loss(z, z_rec)
    d_fake = nets.discriminate(model, x_rec)
    _, gen_adv_loss = ls.adversarial_losses(d_real, d_fake)
    est_loss = mx.estimation_loss(z, gamma, gmm, config.lambda1, config.lambda2)
    total = ls.total_generator_loss(image_loss, gen_adv_loss, latent_loss, est_loss, w)

    g_params = model.generator_parameters()
    grads = ad.backward(total, g_params)
    clip_global_norm(grads, config.grad_clip)
    adam_update(g_params, grads, state.adam_generator)

    state.step += 1
    return ls.LossBreakdown(
        image_reconstruction=image_loss.item(),
        adversarial_generator=gen_adv_loss.item(),
        adversarial_discriminator=disc_loss_value,
        latent_reconstruction=latent_loss.item(),
        estimation=est_loss.item(),
        total=total.item(),
    )


def full_dataset_mixture(model: nets.Model, design: np.ndarray, cov_eps: float) -> mx.GmmParams:
    """Deployment mixture: statistics over every training sample at once."""
    z = nets.encode(model, Tensor(design))
    gamma = nets.membership(model, z)
    return mx.estimate_gmm(z, gamma, eps=cov_eps)


@dataclass
class FitResult:
    model: nets.Model
    norm_stats: NormStats
    gmm: mx.GmmParams
    history: list


def fit(
    config: TrainConfig,
    arch: nets.ArchConfig,
    patches: PatchSet,
    checkpoint_path=None,
    metrics_path=None,
) -> FitResult:
    """Train on normal patches; returns the model, stats, and deployment
    mixture, writing checkpoints and per-step metrics when paths are given.

    Runs epochs * floor(n/batch_size) steps with per-epoch shuffling; a
    set of fewer than batch_size patches is rejected before training.
    On a numeric failure training aborts but the last written checkpoint
    stays on disk.
    """
    config.validate()
    if len(patches) < config.batch_size:
        raise InvalidInputError(
            f"training needs at least batch_size={config.batch_size} patches, got {len(patches)}"
        )
    if np.any(patches.labels == LABEL_ANOMALOUS):
        raise DataError("training data must contain only normal patches")
    bands, frames = patches.shape
    if bands * frames != arch.input_dim:
        raise InvalidConfigError(
            f"architecture expects {arch.input_dim} inputs, patches are {bands}x{frames}"
        )

    stats = patches.norm_stats or compute_norm_stats(patches.patches)
    design = stats.apply(patches.patches).reshape(len(patches), -1)

    state = make_train_state(arch, config)
    rng = np.random.default_rng(config.seed)
    history: list[ls.LossBreakdown] = []

    metrics_file = open(metrics_path, "w", newline="") if metrics_path else None
    writer = None
    if metrics_file:
        writer = csv.writer(metrics_file)
        writer.writerow(METRICS_HEADER)

    def write_checkpoint(gmm=None):
        if checkpoint_path is not None:
            nets.save_checkpoint(checkpoint_path, state.model, stats, gmm)

    try:
        steps_per_epoch = len(patches) // config.batch_size
        for epoch in range(config.epochs):
            order = rng.permutation(len(patches))
            for s in range(steps_per_epoch):
                idx = order[s * config.batch_size:(s + 1) * config.batch_size]
                breakdown = train_step(state, design[idx], config)
                history.append(breakdown)
                if writer:
                    writer.writerow([
                        state.step, epoch,
                        repr(breakdown.image_reconstruction),
                        repr(breakdown.adversarial_generator),
                        repr(breakdown.adversarial_discriminator),
                        repr(breakdown.latent_reconstruction),
                        repr(breakdown.estimation),
                        repr(breakdown.total),
                    ])
                if state.step % config.checkpoint_every == 0:
                    write_checkpoint()
        final_gmm = full_dataset_mixture(state.model, design, config.cov_eps)
        final_gmm.validate()
        write_checkpoint(final_gmm)
    finally:
        if metrics_file:
            metrics_file.close()

    return FitResult(model=state.model, norm_stats=stats, gmm=final_gmm, history=history)
