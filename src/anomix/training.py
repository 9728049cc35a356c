"""Alternating adversarial training of all five networks on normal data.

Each batch runs one discriminator update (real patches vs
reconstructions) followed by one generator-side update of the encoder,
decoder, auxiliary encoder and membership estimator jointly.  Each
update asks ``autodiff.backward`` for the gradients of its own
parameters only, so the other side's networks act as fixed functions
and get no gradient work.  The membership gradient reaches the encoder
through the latent batch, which is the point of training the density
estimator jointly instead of fitting a mixture afterwards.

The encoder, decoder, auxiliary encoder and discriminator compute in
the model's dtype (float32 by default), and so do their gradients and
Adam moments.  The latent is cast to float64 once, where it enters the
estimator and the mixture statistics, and every loss is a float64
scalar (see ``autodiff``).

Each group's ``AdamState`` holds the values of its parameters in one
flat buffer per dtype, beside the moments.  Each update clips the
group's gradients to a joint norm and takes one Adam step, in one pass
over cache-sized blocks of those buffers: ``clip_global_norm`` only
reads the gradients, to compute the factor, and ``adam_update`` copies
each block's share of the gradients into a block-sized buffer and folds
the factor into its first coefficient, so neither builds a full-size
temporary and neither writes a gradient.  The step is Adam in the
efficient form Kingma & Ba give at the end of their section 2 (arXiv
1412.6980): the bias corrections go into the step size and epsilon, so
no block is divided by them.  Every coefficient is a Python float, which
under numpy's promotion rules takes the dtype of the array it meets, so
a float32 block is computed in float32 throughout; only the norm's
per-leaf sums are added in float64, and its dots are taken again in
float64 when a float32 one overflows.

Everything is deterministic in (seed, config, data): initialization,
shuffling, and updates derive from one seeded generator, so two runs
with the same inputs produce byte-identical checkpoints.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
from dataclasses import asdict, astuple, dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import losses as ls
from . import mixture as mx
from . import networks as nets
from .autodiff import Tensor
from .errors import DataError, InvalidConfigError, InvalidInputError, NumericError
from .features import LABEL_ANOMALOUS, NormStats, PatchSet, compute_norm_stats

METRICS_HEADER = ["step", "epoch", "l_irec", "l_adv_g", "l_adv_d", "l_zrec", "l_es", "total"]


# Every fit's optimizer and objective.  Adam's beta1 is DCGAN's 0.5 (Radford
# et al., arXiv 1511.06434: 0.9 made adversarial training oscillate).
# GRAD_CLIP bounds each update's joint gradient norm.  LAMBDA1 and LAMBDA2
# weigh the estimation term's energy and covariance-diagonal penalty, at
# DAGMM's values (Zong et al., ICLR 2018).
LR_GENERATOR = 1e-3
LR_DISCRIMINATOR = 1e-4
ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP = 5.0
LAMBDA1 = 0.1
LAMBDA2 = 0.005


@dataclass(frozen=True)
class TrainConfig:
    """The settings of one ``fit``: ``epochs`` passes of floor(n /
    ``batch_size``) steps, initialized and shuffled from ``seed``; the
    generator side's loss ``weights`` (a zero ``w_adversarial`` skips the
    discriminator update); ``cov_eps``, added to every mixture
    covariance's diagonal; and a checkpoint every ``checkpoint_every``
    steps, the most an abort loses."""

    epochs: int = 4
    batch_size: int = 64
    seed: int = 0
    weights: ls.LossWeights = field(default_factory=ls.LossWeights)
    cov_eps: float = mx.DEFAULT_COV_EPS
    checkpoint_every: int = 100

    def validate(self) -> None:
        # bool is an Integral, and so a Real, but True is no count or weight.
        for name in ("epochs", "batch_size", "seed", "checkpoint_every"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
        # Every check is written as "not <what must hold>", so a NaN fails it.
        if not self.epochs >= 0:
            raise InvalidConfigError("epochs must be >= 0")
        if not self.seed >= 0:
            raise InvalidConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.batch_size >= 2:
            raise InvalidConfigError("batch_size must be >= 2 (mixture statistics need 2 samples)")
        for name, value in {"cov_eps": self.cov_eps, **asdict(self.weights)}.items():
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise InvalidConfigError(f"{name} must be a number, got {value!r}")
            if not 0 <= value < math.inf:
                raise InvalidConfigError(f"{name} must be finite and >= 0, got {value}")
        if not self.checkpoint_every >= 1:
            raise InvalidConfigError("checkpoint_every must be >= 1")


# Elements per block of the Adam update and per leaf of the gradient
# norm: the block of each of the five arrays an update touches (values,
# gradient copy, two moments, scratch) stays in L2 cache between its
# dozen elementwise passes, and a float32 leaf's dot product accumulates
# over few enough elements to stay within ~1e-7 relative.
ADAM_BLOCK = 32768


class AdamState:
    """The values, first and second moments, shared step counter and
    block plan of one parameter group.

    Construction copies the values of all parameters of one dtype, in
    parameter order, into one flat buffer of that dtype, and rebinds each
    ``p.data`` to a view of it shaped like the parameter; every value,
    shape and dtype stays bitwise what it was.  From then on the state
    owns the storage of its group's values, so a parameter belongs to one
    state; ``params`` is the group, in order.  The moments live in two
    more flat buffers per dtype, with ``m[i]`` and ``v[i]`` views of them
    shaped like parameter i.  Each entry of ``plan`` is the next slice of
    at most ``ADAM_BLOCK`` elements of one dtype's three buffers, as
    ``(parts, values, m, v, g, tmp)``: ``g`` and ``tmp`` are scratch of
    the block's size, and each ``(i, source, target)`` in ``parts`` says
    that elements ``source`` of gradient i, flattened, belong in
    elements ``target`` of ``g``.
    """

    def __init__(self, params, lr: float, beta1: float, beta2: float, eps: float):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m: list[np.ndarray] = [None] * len(self.params)
        self.v: list[np.ndarray] = [None] * len(self.params)
        self.plan: list[tuple] = []
        by_dtype: dict[np.dtype, list[int]] = {}
        for i, p in enumerate(self.params):
            by_dtype.setdefault(p.data.dtype, []).append(i)
        for dtype, indices in by_dtype.items():
            starts = [0, *itertools.accumulate(self.params[i].data.size for i in indices)]
            spans = list(zip(indices, starts, starts[1:]))
            size = starts[-1]
            values, m_flat, v_flat = (np.zeros(size, dtype) for _ in range(3))
            for i, start, stop in spans:
                p = self.params[i]
                view = values[start:stop].reshape(p.data.shape)
                np.copyto(view, p.data)
                p.data = view
                self.m[i] = m_flat[start:stop].reshape(view.shape)
                self.v[i] = v_flat[start:stop].reshape(view.shape)
            g, tmp = (np.empty(min(ADAM_BLOCK, size), dtype) for _ in range(2))
            for lo in range(0, size, ADAM_BLOCK):
                hi = min(lo + ADAM_BLOCK, size)
                parts = tuple((i, slice(max(lo, start) - start, min(hi, stop) - start),
                               slice(max(lo, start) - lo, min(hi, stop) - lo))
                              for i, start, stop in spans if start < hi and lo < stop)
                self.plan.append((parts, values[lo:hi], m_flat[lo:hi], v_flat[lo:hi],
                                  g[:hi - lo], tmp[:hi - lo]))


def _sum_of_squares(grads, dtype=None) -> float:
    """Σ g² over a gradient group: read-only BLAS dots over leaves of at
    most ``ADAM_BLOCK`` elements, each leaf in ``dtype`` (None keeps the
    array's own), added as Python floats."""
    total = 0.0
    for g in grads:
        flat = g.reshape(-1)
        for start in range(0, flat.size, ADAM_BLOCK):
            leaf = np.asarray(flat[start:start + ADAM_BLOCK], dtype)
            total += float(np.dot(leaf, leaf))
    return total


def clip_global_norm(grads, max_norm: float) -> float | None:
    """The factor that scales the gradient group to joint norm
    ``max_norm``, or None when its norm is already at most ``max_norm``.

    The gradients are left as they are: ``adam_update`` folds the factor
    into its first coefficient.  Each array's squared norm is read-only
    BLAS dots (``np.dot(leaf, leaf)``) over leaves of at most
    ``ADAM_BLOCK`` elements, in the array's dtype, with no temporaries;
    the leaves are added as Python floats.  The norm is within ~1e-7
    relative of the exact sum for float32 gradients and ~1e-15 for
    float64.  The factor is a Python float, so it scales a float32
    gradient in float32.  A finite float32 group whose squared norm
    overflows float32 (a norm above ~1.8e19) has its dots taken again in
    float64, so it gets its true factor.  A non-finite gradient makes
    the norm NaN (None) or infinite (a factor of 0), and ``adam_update``
    then raises on the NaN it produces.
    """
    with np.errstate(over="ignore"):
        total = _sum_of_squares(grads)
    if not math.isfinite(total):
        total = _sum_of_squares(grads, np.float64)
    norm = math.sqrt(total)
    if norm > max_norm:
        return float(max_norm) / norm
    return None


def adam_update(state: AdamState, grads, scale: float | None = None) -> None:
    """Bias-corrected Adam step, in place, of the values of
    ``state.params`` on the gradients times ``scale`` (the factor from
    ``clip_global_norm``; None leaves them unscaled).

    ``grads`` are the group's gradients, in ``state.params`` order, each
    of its parameter's shape and dtype; they are only read.  Each block
    of the state's plan (see ``AdamState``) copies its gradient parts
    into its buffer g and runs, with s the scale or 1,
    alpha_t = lr sqrt(1 - b2^t) / (1 - b1^t) and eps_t = eps sqrt(1 - b2^t):

        tmp = g (1 - b1) s;  m = b1 m + tmp
        tmp = tmp tmp (1 - b2) / (1 - b1)^2;  v = b2 v + tmp
        p -= alpha_t m / (sqrt(v) + eps_t)

    which is textbook Adam on s g (Kingma & Ba, end of section 2) with
    neither bias correction dividing a block.  The v term squares the m
    term, not g, because s^2 as a float32 coefficient would underflow
    for a small clip factor.  Every coefficient is a Python float, so
    each parameter is updated in its own dtype.  Only the state's
    buffers are written; every ``p.data`` stays the same array object.
    A non-finite parameter after a block raises ``NumericError``.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = float(state.beta1), float(state.beta2)
    root_correction2 = math.sqrt(1.0 - b2 ** t)
    alpha = float(state.lr) * root_correction2 / (1.0 - b1 ** t)
    eps_hat = float(state.eps) * root_correction2
    k1 = (1.0 - b1) * (1.0 if scale is None else float(scale))
    k2 = (1.0 - b2) / (1.0 - b1) ** 2
    for parts, pb, mb, vb, gb, tmp in state.plan:
        for i, source, target in parts:
            gb[target] = grads[i].reshape(-1)[source]
        # m = b1 m + (1 - b1) s g
        np.multiply(gb, k1, out=tmp)
        mb *= b1
        mb += tmp
        # v = b2 v + (1 - b2) (s g)^2
        tmp *= tmp
        tmp *= k2
        vb *= b2
        vb += tmp
        # p -= alpha_t m / (sqrt(v) + eps_t)
        np.sqrt(vb, out=tmp)
        tmp += eps_hat
        np.divide(mb, tmp, out=gb)
        gb *= alpha
        pb -= gb
        if not np.all(np.isfinite(pb)):
            raise NumericError("non-finite parameter after optimizer step")


@dataclass
class TrainState:
    model: nets.Model
    adam_generator: AdamState
    adam_discriminator: AdamState


def make_train_state(arch: nets.ArchConfig, config: TrainConfig) -> TrainState:
    """A fresh model and its two optimizer states; raises
    ``InvalidConfigError`` for an invalid config or arch."""
    config.validate()
    arch.validate()
    model = nets.init_model(arch, config.seed)
    return TrainState(
        model=model,
        adam_generator=AdamState(model.generator_parameters(), LR_GENERATOR, ADAM_BETA1, ADAM_BETA2, ADAM_EPS),
        adam_discriminator=AdamState(model.discriminator_parameters(), LR_DISCRIMINATOR,
                                     ADAM_BETA1, ADAM_BETA2, ADAM_EPS),
    )


class GeneratorLoss(NamedTuple):
    """The generator side's four terms and their weighted total."""

    image: Tensor
    adversarial: Tensor
    latent: Tensor
    estimation: Tensor
    total: Tensor


def generator_loss(model: nets.Model, x: Tensor, z: Tensor, x_rec: Tensor,
                   config: TrainConfig) -> GeneratorLoss:
    """The objective the generator update minimizes, for a batch ``x``,
    its latent ``z = encode(x)`` and reconstruction ``x_rec = decode(z)``:
    the four terms of ``losses`` weighted by ``config.weights``, the
    estimation term on the batch's own mixture statistics with the latent
    in float64.  The discriminator is evaluated, not trained, here."""
    z_rec = nets.encode_aux(model, x_rec)
    z_mix = ad.cast(z, np.float64)
    gamma = nets.membership(model, z_mix)
    gmm = mx.estimate_gmm(z_mix, gamma, eps=config.cov_eps)
    image = ls.image_reconstruction_loss(x, x_rec)
    latent = ls.latent_representation_loss(z, z_rec)
    adversarial = ls.generator_adversarial_loss(nets.discriminate(model, x_rec))
    estimation = mx.estimation_loss(z_mix, gamma, gmm, LAMBDA1, LAMBDA2)
    total = ls.total_generator_loss(image, adversarial, latent, estimation, config.weights)
    return GeneratorLoss(image, adversarial, latent, estimation, total)


def train_step(state: TrainState, batch: np.ndarray, config: TrainConfig) -> ls.LossBreakdown:
    """One discriminator update then one generator update on a batch.

    ``batch`` is a normalized [n x input_dim] design matrix with n >= 2,
    cast to the networks' dtype here.
    A zero adversarial weight disables the discriminator update entirely
    (its loss is still evaluated for the log).  Each call adds one to
    ``state.adam_generator.step_count``, the steps taken so far.
    """
    if batch.ndim != 2 or batch.shape[0] < 2:
        raise InvalidInputError(f"batch must be [n>=2 x features], got {batch.shape}")
    model = state.model

    x = Tensor(batch.astype(model.encoder.dtype, copy=False))
    z = nets.encode(model, x)
    x_rec = nets.decode(model, z)

    # Differentiated with respect to the discriminator only, so the
    # reconstruction is a fixed input here.
    disc_loss = ls.discriminator_loss(nets.discriminate(model, x), nets.discriminate(model, x_rec))
    disc_loss_value = disc_loss.item()
    if config.weights.w_adversarial > 0.0:
        grads = ad.backward(disc_loss, state.adam_discriminator.params)
        adam_update(state.adam_discriminator, grads, clip_global_norm(grads, GRAD_CLIP))

    loss = generator_loss(model, x, z, x_rec, config)
    grads = ad.backward(loss.total, state.adam_generator.params)
    adam_update(state.adam_generator, grads, clip_global_norm(grads, GRAD_CLIP))

    return ls.LossBreakdown(
        image_reconstruction=loss.image.item(),
        adversarial_generator=loss.adversarial.item(),
        adversarial_discriminator=disc_loss_value,
        latent_reconstruction=loss.latent.item(),
        estimation=loss.estimation.item(),
        total=loss.total.item(),
    )


def full_dataset_mixture(model: nets.Model, design: np.ndarray, cov_eps: float) -> mx.GmmParams:
    """Deployment mixture: statistics over every training sample at once,
    as leaf tensors, so that the mixture keeps neither the graph that
    computed it nor the design."""
    z = ad.cast(nets.encode(model, Tensor(design)), np.float64)
    gamma = nets.membership(model, z)
    return mx.GmmParams.from_arrays(*mx.estimate_gmm(z, gamma, eps=cov_eps).as_arrays())


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
    arch.validate()
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

    state = make_train_state(arch, config)
    stats = compute_norm_stats(patches.patches)
    # In the networks' dtype once, so that no step converts its batch.
    design = stats.apply(patches.patches, state.model.encoder.dtype).reshape(len(patches), -1)
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
                step = state.adam_generator.step_count
                if writer:
                    writer.writerow([step, epoch, *map(repr, astuple(breakdown))])
                if step % config.checkpoint_every == 0:
                    write_checkpoint()
        final_gmm = full_dataset_mixture(state.model, design, config.cov_eps)
        final_gmm.validate()
        write_checkpoint(final_gmm)
    finally:
        if metrics_file:
            metrics_file.close()

    return FitResult(model=state.model, norm_stats=stats, gmm=final_gmm, history=history)
