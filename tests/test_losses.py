"""Loss term values, gradients, and the weighted composition."""

import math

import numpy as np
import pytest

from anomix import losses as ls
from anomix.autodiff import Tensor

DEFAULTS = ls.LossWeights()


class TestImageReconstruction:
    def test_zero_at_identity(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
        assert ls.image_reconstruction_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_two_pixel_example(self):
        loss = ls.image_reconstruction_loss(Tensor([[1.0, -1.0]]), Tensor([[0.0, 0.0]]))
        assert loss.item() == pytest.approx(2.0)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
            v = ls.image_reconstruction_loss(Tensor(a), Tensor(b)).item()
            assert v >= 0.0
            assert (v == 0.0) == np.array_equal(a, b)


class TestLatentRepresentation:
    def test_zero_at_identity(self):
        z = Tensor(np.random.default_rng(3).standard_normal((5, 2)))
        assert ls.latent_representation_loss(z, Tensor(z.data.copy())).item() == 0.0

    def test_three_four_five(self):
        loss = ls.latent_representation_loss(Tensor([[3.0, 4.0]]), Tensor([[0.0, 0.0]]))
        assert loss.item() == pytest.approx(5.0)


class TestAdversarial:
    def test_balanced_discriminator(self):
        half = Tensor(np.full((6, 1), 0.5))
        assert ls.discriminator_loss(half, half).item() == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert ls.generator_adversarial_loss(half).item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_discriminator_loss_approaches_zero(self):
        disc = ls.discriminator_loss(Tensor([[1.0]]), Tensor([[0.0]]))
        assert 0.0 <= disc.item() < 1e-6

    def test_losses_finite_for_saturated_outputs(self):
        disc = ls.discriminator_loss(Tensor([[0.0]]), Tensor([[1.0]]))
        gen = ls.generator_adversarial_loss(Tensor([[1.0]]))
        assert np.isfinite(disc.item()) and np.isfinite(gen.item())

    def test_discriminator_loss_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            disc = ls.discriminator_loss(
                Tensor(rng.uniform(0, 1, (4, 1))), Tensor(rng.uniform(0, 1, (4, 1)))
            )
            assert disc.item() >= 0.0

    def test_pair_is_both_halves(self):
        rng = np.random.default_rng(8)
        real, fake = Tensor(rng.uniform(0, 1, (4, 1))), Tensor(rng.uniform(0, 1, (4, 1)))
        disc, gen = ls.adversarial_losses(real, fake)
        assert disc.item() == ls.discriminator_loss(real, fake).item()
        assert gen.item() == ls.generator_adversarial_loss(fake).item()


class TestTotalComposition:
    def _total(self, parts, weights):
        tensors = [Tensor(p) for p in parts]
        return ls.total_generator_loss(*tensors, weights).item()

    def test_all_zero(self):
        assert self._total([0.0, 0.0, 0.0, 0.0], DEFAULTS) == 0.0

    def test_unit_components_default_weights(self):
        # 1*1 + 5*1 + 1*1 + 0.05*1
        assert self._total([1.0, 1.0, 1.0, 1.0], DEFAULTS) == pytest.approx(7.05, abs=1e-12)

    def test_zero_weights_kill_everything(self):
        zero = ls.LossWeights(0.0, 0.0, 0.0, 0.0)
        assert self._total([3.0, -1.0, 2.0, 10.0], zero) == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(7)
        parts = rng.uniform(0.1, 2.0, size=4)
        assert self._total(list(2.0 * parts), DEFAULTS) == pytest.approx(
            2.0 * self._total(list(parts), DEFAULTS), rel=1e-12
        )

    def test_breakdown_composition_identity(self):
        parts = [0.3, 0.7, 0.2, 4.0]
        bd = ls.LossBreakdown(
            image_reconstruction=parts[0],
            adversarial_generator=parts[1],
            adversarial_discriminator=1.1,
            latent_reconstruction=parts[2],
            estimation=parts[3],
            total=self._total(parts, DEFAULTS),
        )
        assert abs(bd.total - bd.composed(DEFAULTS)) < 1e-12
