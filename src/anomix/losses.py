"""The four training objectives and their weighted composition.

The generator side minimizes

    w_image * image_loss + w_adversarial * adversarial_generator_loss
    + w_latent * latent_loss + w_estimation * estimation_loss

while the discriminator minimizes its own binary cross-entropy
(``discriminator_loss``) in a separate step: a single minimax expression
cannot be minimized by one party, so the two sides train on their own
objectives.  The generator term (``generator_adversarial_loss``) is the
non-saturating form -mean(log D(reconstruction)); the literal "minimize
log(1 - D(...))" variant has vanishing gradients exactly when the
generator is worst.

The reconstruction, latent and adversarial terms are one autodiff node
each (``l1_distance``, ``l2_distance``, ``binary_cross_entropy``), and
each weighted sum of terms is one more (``weighted_sum``).  The
estimation term, built in ``mixture``, is five.  The two operands of a
distance share one dtype, the networks' (``autodiff``'s operand
contract), and every term is a float64 scalar, so every weighted sum of
terms is too.  ``training.generator_loss`` builds the generator side's
objective from these terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad
from .autodiff import Tensor

# Probabilities are clamped to [1e-7, 1 - 1e-7] so the losses stay
# finite for saturated discriminator outputs.
PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class LossWeights:
    """Relative weight of each generator-side objective."""

    w_image: float = 1.0
    w_adversarial: float = 5.0
    w_latent: float = 1.0
    w_estimation: float = 0.05


@dataclass
class LossBreakdown:
    """One training step's loss values, as logged to the metrics CSV."""

    image_reconstruction: float
    adversarial_generator: float
    adversarial_discriminator: float
    latent_reconstruction: float
    estimation: float
    total: float


def image_reconstruction_loss(x: Tensor, x_rec: Tensor) -> Tensor:
    """Mean per-sample L1 distance between input and reconstruction."""
    return ad.l1_distance(x, x_rec)


def latent_representation_loss(z: Tensor, z_rec: Tensor) -> Tensor:
    """Mean per-sample Euclidean distance between latent and re-encoded latent."""
    return ad.l2_distance(z, z_rec)


def discriminator_loss(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """Binary cross-entropy of D's probabilities, real patches labelled
    1 and reconstructions 0: -mean(log D(x)) - mean(log(1 - D(x_rec)))."""
    return ad.weighted_sum([ad.binary_cross_entropy(d_real, 1, PROB_CLAMP),
                            ad.binary_cross_entropy(d_fake, 0, PROB_CLAMP)], [1.0, 1.0])


def generator_adversarial_loss(d_fake: Tensor) -> Tensor:
    """Non-saturating generator loss -mean(log D(x_rec))."""
    return ad.binary_cross_entropy(d_fake, 1, PROB_CLAMP)


def adversarial_losses(d_real: Tensor, d_fake: Tensor) -> tuple[Tensor, Tensor]:
    """(discriminator loss, generator loss) from D's probabilities.

    Training builds each half on its own; this pair stays for callers
    that want both, such as the span list in ``benchmark/spans.py``.
    """
    return discriminator_loss(d_real, d_fake), generator_adversarial_loss(d_fake)


def total_generator_loss(
    image_loss: Tensor,
    adversarial_generator_loss: Tensor,
    latent_loss: Tensor,
    estimation_loss: Tensor,
    weights: LossWeights,
) -> Tensor:
    """Weighted sum of the four generator-side objectives."""
    return ad.weighted_sum(
        [image_loss, adversarial_generator_loss, latent_loss, estimation_loss],
        [weights.w_image, weights.w_adversarial, weights.w_latent, weights.w_estimation],
    )
