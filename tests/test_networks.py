"""Network shape contracts, determinism, init, checkpoint round-trip."""

import struct

import numpy as np
import pytest

from anomix import autodiff as ad
from anomix import networks as nets
from anomix.autodiff import Tensor
from anomix.errors import FormatError, InvalidConfigError, NumericError, ShapeError
from anomix.features import NormStats
from anomix.mixture import GmmParams

SMALL = nets.ArchConfig(
    input_dim=36, latent_dim=4, n_components=3,
    encoder_widths=(16, 8), discriminator_widths=(12,), estimator_widths=(6,),
)


def small_model(seed=0):
    return nets.init_model(SMALL, seed)


class TestForwardContracts:
    def test_zero_weights_zero_latent(self):
        model = small_model()
        for w in model.encoder.weights:
            w.data[...] = 0.0
        z = nets.encode(model, Tensor(np.zeros((1, 36))))
        np.testing.assert_array_equal(z.data, np.zeros((1, 4)))

    def test_identical_inputs_identical_rows(self):
        model = small_model(3)
        x = np.tile(np.linspace(-1, 1, 36), (2, 1))
        z = nets.encode(model, Tensor(x))
        np.testing.assert_array_equal(z.data[0], z.data[1])

    def test_single_identity_layer_reproduces_input(self):
        # A float64 model: a float32 one rounds the input.
        arch = nets.ArchConfig(input_dim=5, latent_dim=5, encoder_widths=())
        model = nets.init_model(arch, 0, dtype=np.float64)
        model.encoder.weights[0].data[...] = np.eye(5)
        x = np.random.default_rng(0).standard_normal((3, 5))
        np.testing.assert_array_equal(nets.encode(model, Tensor(x)).data, x)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            nets.encode(small_model(), Tensor(np.zeros((2, 35))))

    def test_forward_computes_in_the_network_dtype(self):
        model = small_model()
        assert [model.network(name).dtype for name in nets.NETWORK_NAMES] == [np.float32] * 4 + [np.float64]
        z = nets.encode(model, Tensor(np.ones((2, 36))))
        assert z.data.dtype == np.float32
        assert nets.membership(model, z).data.dtype == np.float64
        model64 = nets.init_model(SMALL, 0, dtype=np.float64)
        assert all(p.data.dtype == np.float64 for p in model64.all_parameters())
        # Both dtypes start from the same draws.
        for p32, p64 in zip(model.all_parameters(), model64.all_parameters()):
            np.testing.assert_array_equal(p32.data, p64.data.astype(p32.data.dtype))

    def test_overflow_names_the_network_and_layer(self):
        # A bias of 10 keeps the hidden outputs near 10, so weights of
        # 3e38 overflow float32 in the decoder's last layer (2), whose
        # tanh would turn the inf into 1.
        model = small_model(4)
        model.decoder.biases[1].data[...] = 10.0
        model.decoder.weights[-1].data[...] = 3e38
        z = Tensor(np.random.default_rng(5).standard_normal((2, 4)))
        with pytest.raises(NumericError, match=r"^decoder layer 2: "):
            nets.decode(model, z)

    @pytest.mark.parametrize("arch", [
        SMALL,
        nets.ArchConfig(input_dim=64, latent_dim=2, encoder_widths=(8,)),
        nets.ArchConfig(input_dim=100, latent_dim=16, encoder_widths=(32, 24, 20)),
    ])
    def test_decode_encode_preserves_shape(self, arch):
        model = nets.init_model(arch, 7)
        x = Tensor(np.random.default_rng(1).standard_normal((5, arch.input_dim)))
        x2 = nets.decode(model, nets.encode(model, x))
        assert x2.shape == x.shape

    def test_decode_scales_in_the_decoders_dtype(self):
        # One node after the decoder's tanh: value and cotangent are the
        # float32 products with the float32 scale, bit for bit.
        model = small_model(6)
        dec = model.decoder
        rng = np.random.default_rng(6)
        z = Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        out = nets.decode(model, z)
        (tanh_out,) = out._parents
        scale = np.float32(SMALL.output_scale)
        h = nets.Mlp("decoder", dec.weights, dec.biases, dec.hidden, "linear", dec.leaky_slope).forward(z).data
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == (np.tanh(h) * scale).tobytes()
        c = rng.standard_normal(out.shape).astype(np.float32)
        (g,) = ad.backward(ad.tensor_sum(ad.mul(out, Tensor(c))), [tanh_out])
        assert g.dtype == np.float32 and g.tobytes() == (c * scale).tobytes()

    def test_decoder_output_within_scale(self):
        model = small_model(2)
        z = Tensor(np.random.default_rng(2).standard_normal((9, 4)) * 50)
        out = nets.decode(model, z)
        assert np.all(np.abs(out.data) <= SMALL.output_scale)


class TestDiscriminator:
    def test_zero_weights_give_half(self):
        model = small_model()
        for w in model.discriminator.weights:
            w.data[...] = 0.0
        p = nets.discriminate(model, Tensor(np.random.default_rng(0).standard_normal((4, 36))))
        np.testing.assert_array_equal(p.data, np.full((4, 1), 0.5))

    def test_outputs_strictly_inside_unit_interval(self):
        model = small_model(5)
        p = nets.discriminate(model, Tensor(np.random.default_rng(1).standard_normal((16, 36))))
        assert np.all(p.data > 0.0) and np.all(p.data < 1.0)

    def test_gradient_wrt_input(self):
        # Finite differences at 1e-5 need float64 arithmetic.
        model = nets.init_model(SMALL, 6, dtype=np.float64)
        x = Tensor(np.random.default_rng(2).standard_normal((3, 36)))
        err = ad.gradient_check(lambda: ad.tensor_sum(nets.discriminate(model, x)), x)
        assert err < 1e-5


class TestMembership:
    def test_zero_estimator_uniform(self):
        model = small_model()
        for w in model.estimator.weights:
            w.data[...] = 0.0
        g = nets.membership(model, Tensor(np.random.default_rng(0).standard_normal((5, 4))))
        np.testing.assert_allclose(g.data, 1.0 / 3.0)

    def test_single_component_all_ones(self):
        arch = nets.ArchConfig(input_dim=36, latent_dim=4, n_components=1,
                               encoder_widths=(8,), estimator_widths=(6,))
        model = nets.init_model(arch, 1)
        g = nets.membership(model, Tensor(np.random.default_rng(3).standard_normal((7, 4))))
        np.testing.assert_array_equal(g.data, np.ones((7, 1)))

    def test_rows_sum_to_one(self):
        model = small_model(9)
        g = nets.membership(model, Tensor(np.random.default_rng(4).standard_normal((20, 4))))
        np.testing.assert_allclose(g.data.sum(axis=1), 1.0, atol=1e-12)


class TestInit:
    def test_same_seed_identical(self):
        a, b = small_model(17), small_model(17)
        for pa, pb in zip(a.all_parameters(), b.all_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seeds_differ(self):
        a, b = small_model(17), small_model(18)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for pa, pb in zip(a.all_parameters(), b.all_parameters())
        )

    def test_weights_within_xavier_limit_biases_zero(self):
        model = small_model(23)
        for name in nets.NETWORK_NAMES:
            net = model.network(name)
            for w, b in zip(net.weights, net.biases):
                limit = np.sqrt(6.0 / sum(w.data.shape))
                assert np.max(np.abs(w.data)) <= limit
                assert not b.data.any()


class TestArchValidation:
    @pytest.mark.parametrize("bad", [
        dict(input_dim=0),
        dict(latent_dim=0),
        dict(n_components=0),
        dict(encoder_widths=(0,)),
        dict(discriminator_widths=(8, -1)),
        dict(estimator_widths=(0,)),
        dict(leaky_slope=float("nan")),
        dict(leaky_slope=float("inf")),
        dict(output_scale=-1.0),
        dict(output_scale=0.0),
        dict(output_scale=float("nan")),
        dict(output_scale=float("inf")),
        dict(latent_dim=2.5),
        dict(encoder_widths=(8.0,)),
        dict(n_components=3.0),
        dict(input_dim="256"),
        dict(leaky_slope="0.2"),
        dict(output_scale=None),
        dict(encoder_widths=[6]),
        dict(discriminator_widths=[8, 4]),
        dict(estimator_widths=[]),
        dict(encoder_widths=8),
        dict(input_dim=True),
        dict(latent_dim=True),
        dict(estimator_widths=(True,)),
        dict(leaky_slope=False),
        dict(output_scale=True),
    ])
    def test_invalid_arch_rejected(self, bad):
        with pytest.raises(InvalidConfigError):
            nets.ArchConfig(**bad).validate()

    def test_empty_width_tuples_are_valid(self):
        nets.ArchConfig(encoder_widths=(), discriminator_widths=(), estimator_widths=()).validate()


class TestCheckpoint:
    def _stats_and_gmm(self):
        rng = np.random.default_rng(5)
        stats = NormStats(mean=rng.standard_normal(6), std=rng.uniform(0.5, 2, 6))
        covs = np.stack([np.eye(4) * s for s in (0.5, 1.5, 2.5)])
        gmm = GmmParams.from_arrays(np.array([0.2, 0.3, 0.5]), rng.standard_normal((3, 4)), covs)
        return stats, gmm

    def _stats(self):
        return self._stats_and_gmm()[0]

    def test_round_trip(self, tmp_path):
        model = small_model(31)
        stats, gmm = self._stats_and_gmm()
        path = tmp_path / "model.gmgc"
        nets.save_checkpoint(path, model, stats, gmm)
        ckpt = nets.load_checkpoint(path)
        assert ckpt.model.arch == SMALL
        assert ckpt.model.init_seed == 31
        for m in (model, ckpt.model):
            assert [m.network(name).name for name in nets.NETWORK_NAMES] == list(nets.NETWORK_NAMES)
        for pa, pb in zip(model.all_parameters(), ckpt.model.all_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        np.testing.assert_array_equal(ckpt.norm_stats.mean, stats.mean)
        np.testing.assert_array_equal(ckpt.norm_stats.std, stats.std)
        for got, want in zip(ckpt.gmm.as_arrays(), gmm.as_arrays()):
            np.testing.assert_array_equal(got, want)

    def test_round_trip_without_gmm(self, tmp_path):
        # The mixture is optional; the normalization statistics are not.
        stats = self._stats()
        path = tmp_path / "bare.gmgc"
        nets.save_checkpoint(path, small_model(1), stats)
        ckpt = nets.load_checkpoint(path)
        assert ckpt.gmm is None
        np.testing.assert_array_equal(ckpt.norm_stats.mean, stats.mean)
        np.testing.assert_array_equal(ckpt.norm_stats.std, stats.std)

    def test_resave_is_byte_identical(self, tmp_path):
        model = small_model(8)
        stats, gmm = self._stats_and_gmm()
        p1, p2 = tmp_path / "a.gmgc", tmp_path / "b.gmgc"
        nets.save_checkpoint(p1, model, stats, gmm)
        nets.save_checkpoint(p2, nets.load_checkpoint(p1).model, stats, gmm)
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_block_is_sorted_arch_fields_then_init_seed(self, tmp_path):
        p = tmp_path / "cfg.gmgc"
        nets.save_checkpoint(p, small_model(31), self._stats())
        blob = p.read_bytes()
        (config_len,) = struct.unpack_from("<I", blob, 8)
        assert blob[12:12 + config_len] == (
            b"discriminator_widths=12\n"
            b"encoder_widths=16,8\n"
            b"estimator_widths=6\n"
            b"input_dim=36\n"
            b"latent_dim=4\n"
            b"leaky_slope=0.2\n"
            b"n_components=3\n"
            b"output_scale=4.0\n"
            b"init_seed=31\n"
        )

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.gmgc"
        p.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError):
            nets.load_checkpoint(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.gmgc"
        nets.save_checkpoint(p, small_model(2), self._stats())
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(FormatError):
            nets.load_checkpoint(p)

    @pytest.mark.parametrize("old, new", [
        (b"latent_dim=4", b"latent_dim=x"),
        (b"init_seed=31", b"init_seed=z1"),
        (b"leaky_slope=0.2", b"leaky_slope=0.x"),
        (b"encoder_widths=16,8", b"encoder_widths=16;8"),
        (b"latent_dim=4", b"latent_dim=0"),     # parses, but fails ArchConfig.validate
    ])
    def test_corrupt_config_value_is_format_error(self, tmp_path, old, new):
        p = tmp_path / "cfg.gmgc"
        nets.save_checkpoint(p, small_model(31), self._stats())
        blob = p.read_bytes()
        assert old in blob
        p.write_bytes(blob.replace(old, new))
        with pytest.raises(FormatError):
            nets.load_checkpoint(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_array_is_format_error(self, tmp_path, value):
        model = small_model(4)
        model.decoder.weights[1].data[2, 3] = value
        p = tmp_path / "nan.gmgc"
        nets.save_checkpoint(p, model, self._stats())
        with pytest.raises(FormatError, match="decoder.w1"):
            nets.load_checkpoint(p)

    def test_value_beyond_float32_range_is_format_error(self, tmp_path):
        # Finite as float64, but the loaded model holds the decoder in float32.
        model = nets.init_model(SMALL, 4, dtype=np.float64)
        model.decoder.weights[1].data[2, 3] = 1e39
        p = tmp_path / "big.gmgc"
        nets.save_checkpoint(p, model, self._stats())
        with pytest.raises(FormatError, match="decoder.w1"):
            nets.load_checkpoint(p)

    def test_loaded_arrays_have_their_network_dtype(self, tmp_path):
        stats, gmm = self._stats_and_gmm()
        p = tmp_path / "dtypes.gmgc"
        nets.save_checkpoint(p, nets.init_model(SMALL, 4, dtype=np.float64), stats, gmm)
        ckpt = nets.load_checkpoint(p)
        assert [ckpt.model.network(name).dtype for name in nets.NETWORK_NAMES] == [np.float32] * 4 + [np.float64]
        assert ckpt.norm_stats.mean.dtype == np.float64
        assert all(a.dtype == np.float64 for a in ckpt.gmm.as_arrays())

    @pytest.mark.parametrize("std", [0.0, -1.0, np.nan, np.inf])
    def test_norm_std_not_positive_is_format_error(self, tmp_path, std):
        stats, gmm = self._stats_and_gmm()
        stats.std[2] = std
        p = tmp_path / "std.gmgc"
        nets.save_checkpoint(p, small_model(4), stats, gmm)
        with pytest.raises(FormatError):
            nets.load_checkpoint(p)

    @pytest.mark.parametrize("mean, std", [(np.zeros(6), np.ones(5)), (np.zeros(5), np.ones(6)),
                                           (np.zeros((2, 3)), np.ones((2, 3)))])
    def test_norm_arrays_not_one_per_band_vector_are_format_error(self, tmp_path, mean, std):
        p = tmp_path / "bands.gmgc"
        nets.save_checkpoint(p, small_model(4), NormStats(mean=mean, std=std))
        with pytest.raises(FormatError, match="norm.mean and norm.std"):
            nets.load_checkpoint(p)

    @pytest.mark.parametrize("name", [b"norm.std", b"gmm.mu", b"gmm.sigma"])
    def test_missing_partner_array_is_format_error(self, tmp_path, name):
        stats, gmm = self._stats_and_gmm()
        p = tmp_path / "partner.gmgc"
        nets.save_checkpoint(p, small_model(4), stats, gmm)
        blob = p.read_bytes()
        p.write_bytes(blob.replace(name, name[:-1] + b"?"))
        with pytest.raises(FormatError, match="missing array"):
            nets.load_checkpoint(p)

    def test_checkpoint_without_norm_mean_is_format_error(self, tmp_path, monkeypatch):
        # A file with no normalization arrays at all, as a checkpoint
        # written without statistics would be.
        named_arrays = nets._named_arrays
        monkeypatch.setattr(nets, "_named_arrays", lambda *args: (
            (name, arr) for name, arr in named_arrays(*args) if not name.startswith("norm.")))
        p = tmp_path / "nonorm.gmgc"
        nets.save_checkpoint(p, small_model(4), self._stats())
        assert b"norm." not in p.read_bytes()
        with pytest.raises(FormatError, match="missing array 'norm.mean'"):
            nets.load_checkpoint(p)

    def test_trailing_bytes_are_format_error(self, tmp_path):
        p = tmp_path / "extra.gmgc"
        nets.save_checkpoint(p, small_model(2), self._stats())
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing bytes"):
            nets.load_checkpoint(p)

    def test_huge_array_dims(self, tmp_path):
        p = tmp_path / "huge.gmgc"
        p.write_bytes(
            nets.CHECKPOINT_MAGIC + struct.pack("<III", nets.CHECKPOINT_VERSION, 0, 1)
            + struct.pack("<H", 1) + b"x" + struct.pack("<B3I", 3, *[0xFFFFFFFF] * 3)
        )
        with pytest.raises(FormatError):
            nets.load_checkpoint(p)

    # numpy refuses both shapes, so the loader must check them itself.
    @pytest.mark.parametrize("dims", [(0, 0xFFFFFFFF, 0xFFFFFFFF), (1,) * 65])
    def test_array_dims_numpy_cannot_hold_are_format_error(self, tmp_path, dims):
        p = tmp_path / "dims.gmgc"
        p.write_bytes(
            nets.CHECKPOINT_MAGIC + struct.pack("<III", nets.CHECKPOINT_VERSION, 0, 1)
            + struct.pack("<H", 1) + b"x" + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
            + struct.pack("<d", 1.0) * (0 not in dims)
        )
        with pytest.raises(FormatError, match="has dims"):
            nets.load_checkpoint(p)

    def test_layer_shape_mismatch_is_format_error(self, tmp_path):
        p = tmp_path / "shape.gmgc"
        nets.save_checkpoint(p, small_model(4), self._stats())
        p.write_bytes(p.read_bytes().replace(b"latent_dim=4", b"latent_dim=5"))
        with pytest.raises(FormatError, match="shape mismatch"):
            nets.load_checkpoint(p)

    @pytest.mark.parametrize("k, d", [(3, 3), (2, 4), (4, 4)])
    def test_mixture_shape_not_matching_arch_is_format_error(self, tmp_path, k, d):
        # SMALL has n_components=3 and latent_dim=4.
        gmm = GmmParams.from_arrays(np.full(k, 1.0 / k), np.zeros((k, d)), np.stack([np.eye(d)] * k))
        p = tmp_path / "gmm.gmgc"
        nets.save_checkpoint(p, small_model(4), self._stats(), gmm)
        with pytest.raises(FormatError, match="gmm"):
            nets.load_checkpoint(p)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        stats, gmm = self._stats_and_gmm()
        p = tmp_path / "keep.gmgc"
        nets.save_checkpoint(p, small_model(5), stats, gmm)
        before = p.read_bytes()
        unwritable = NormStats(mean=stats.mean, std=np.array(["x"] * 6))
        with pytest.raises(ValueError):     # raised after the network arrays are written
            nets.save_checkpoint(p, small_model(6), unwritable, gmm)
        assert p.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [p]
