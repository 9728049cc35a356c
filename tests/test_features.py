"""WAV decoding, spectrogram pipeline, synthetic data, patch container."""

import struct

import numpy as np
import pytest

from anomix import features as ft
from anomix.errors import (
    FormatError,
    InsufficientAudioError,
    InvalidConfigError,
    InvalidInputError,
    UnsupportedFormatError,
)


def write_wav_bytes(path, payload: bytes, channels=1, rate=16000, bits=16, audio_format=1):
    """Byte-level RIFF/WAVE writer, independent of the wave module."""
    block_align = channels * bits // 8
    header = b"".join([
        b"RIFF",
        struct.pack("<I", 36 + len(payload)),
        b"WAVE",
        b"fmt ",
        struct.pack("<IHHIIHH", 16, audio_format, channels, rate, rate * block_align, block_align, bits),
        b"data",
        struct.pack("<I", len(payload)),
        payload,
    ])
    path.write_bytes(header)


class TestDecodeWav:
    def test_single_zero_frame(self, tmp_path):
        p = tmp_path / "zero.wav"
        write_wav_bytes(p, struct.pack("<h", 0))
        clip = ft.decode_wav(p)
        np.testing.assert_array_equal(clip.samples, [0.0])
        assert clip.sample_rate_hz == 16000

    def test_scale_extremum(self, tmp_path):
        p = tmp_path / "min.wav"
        write_wav_bytes(p, struct.pack("<h", -32768))
        np.testing.assert_array_equal(ft.decode_wav(p).samples, [-1.0])

    def test_one_second_constant_half(self, tmp_path):
        p = tmp_path / "half.wav"
        write_wav_bytes(p, struct.pack("<16000h", *([16384] * 16000)))
        clip = ft.decode_wav(p)
        assert len(clip.samples) == 16000
        np.testing.assert_array_equal(clip.samples, np.full(16000, 0.5))

    def test_stereo_averaged(self, tmp_path):
        p = tmp_path / "stereo.wav"
        write_wav_bytes(p, struct.pack("<4h", 100, 300, -200, 200), channels=2)
        np.testing.assert_allclose(ft.decode_wav(p).samples, [200 / 32768, 0.0])

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"RIFX" + b"\x00" * 60)
        with pytest.raises(FormatError):
            ft.decode_wav(p)

    @pytest.mark.parametrize("cut", [1000, 1001])
    def test_data_cut_short_rejected(self, tmp_path, cut):
        # An even cut ends on a sample boundary, an odd one inside a sample.
        p = tmp_path / "cut.wav"
        write_wav_bytes(p, struct.pack("<16000h", *([16384] * 16000)))
        p.write_bytes(p.read_bytes()[:-cut])
        with pytest.raises(FormatError):
            ft.decode_wav(p)

    def test_non_16bit_rejected(self, tmp_path):
        p = tmp_path / "8bit.wav"
        write_wav_bytes(p, b"\x00\x01\x02\x03", bits=8)
        with pytest.raises(UnsupportedFormatError):
            ft.decode_wav(p)


def naive_windowed_dft_magnitude(samples):
    """O(n²) DFT of one Hann-windowed frame; the oracle for stft_magnitude."""
    n = len(samples)
    windowed = samples * (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))
    mags = []
    for k in range(n // 2 + 1):
        acc = 0.0 + 0.0j
        for t in range(n):
            acc += windowed[t] * np.exp(-2j * np.pi * k * t / n)
        mags.append(abs(acc))
    return np.array(mags)


class TestStft:
    def test_zero_clip_gives_zero_matrix(self):
        clip = ft.AudioClip(np.zeros(256), 16000)
        np.testing.assert_array_equal(ft.stft_magnitude(clip, 64, 32), 0.0)

    def test_sinusoid_peaks_at_its_bin(self):
        rate, window = 16000, 512
        k = 19
        t = np.arange(rate)
        clip = ft.AudioClip(0.7 * np.sin(2.0 * np.pi * k * rate / window * t / rate), rate)
        mag = ft.stft_magnitude(clip, window, 256)
        np.testing.assert_array_equal(mag.argmax(axis=0), k)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_matches_naive_dft(self, n):
        rng = np.random.default_rng(n)
        samples = rng.uniform(-1.0, 1.0, size=n)
        got = ft.stft_magnitude(ft.AudioClip(samples, 8000), n, n)
        assert got.shape == (n // 2 + 1, 1)
        np.testing.assert_allclose(got[:, 0], naive_windowed_dft_magnitude(samples), atol=1e-9)

    def test_frame_layout(self):
        clip = ft.AudioClip(np.random.default_rng(0).uniform(-1, 1, 100), 8000)
        assert ft.stft_magnitude(clip, 32, 16).shape == (17, (100 - 32) // 16 + 1)

    def test_short_clip_raises(self):
        with pytest.raises(InsufficientAudioError):
            ft.stft_magnitude(ft.AudioClip(np.zeros(31), 8000), 32, 16)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(InvalidConfigError):
            ft.stft_magnitude(ft.AudioClip(np.zeros(100), 8000), 48, 16)

    @pytest.mark.parametrize("n, window_len, hop", [
        (64, 64, 32), (64, 64, 64), (1000, 64, 64), (1000, 64, 17),
        (4097, 256, 1), (16001, 512, 160), (160000, 1024, 512),
    ])
    def test_strided_frames_equal_index_gather_bitwise(self, n, window_len, hop):
        clip = ft.AudioClip(np.random.default_rng(n + hop).uniform(-1.0, 1.0, n), 16000)
        got = ft.stft_magnitude(clip, window_len, hop)
        want = gather_stft_magnitude(clip, window_len, hop)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def gather_stft_magnitude(clip, window_len, hop):
    """Frames gathered through an index array; the reference for the
    strided framing in stft_magnitude."""
    samples = clip.samples
    n_frames = (len(samples) - window_len) // hop + 1
    idx = np.arange(window_len)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = samples[idx] * ft._hann_periodic(window_len)
    return np.abs(np.fft.rfft(frames, axis=1)).T


def loop_mel_filterbank(sample_rate_hz, window_len, mel_bands):
    """One band per iteration; the reference for the broadcast in
    mel_filterbank."""
    bins = window_len // 2 + 1
    edges_hz = ft.mel_to_hz(np.linspace(0.0, ft.hz_to_mel(sample_rate_hz / 2.0), mel_bands + 2))
    bin_freqs = np.arange(bins) * sample_rate_hz / window_len
    bank = np.zeros((mel_bands, bins))
    for b in range(mel_bands):
        lo, mid, hi = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        rising = (bin_freqs - lo) / (mid - lo)
        falling = (hi - bin_freqs) / (hi - mid)
        bank[b] = np.maximum(0.0, np.minimum(rising, falling))
    return bank


def independent_filterbank_rows(sample_rate_hz, window_len, mel_bands):
    """Second, independently written triangle evaluation (per-bin loop)."""
    bins = window_len // 2 + 1
    mel_max = 2595.0 * np.log10(1.0 + (sample_rate_hz / 2.0) / 700.0)
    edges = 700.0 * (10.0 ** (np.linspace(0.0, mel_max, mel_bands + 2) / 2595.0) - 1.0)
    rows = np.zeros((mel_bands, bins))
    for b in range(mel_bands):
        for i in range(bins):
            f = i * sample_rate_hz / window_len
            if edges[b] <= f <= edges[b + 1]:
                w = (f - edges[b]) / (edges[b + 1] - edges[b])
            elif edges[b + 1] < f <= edges[b + 2]:
                w = (edges[b + 2] - f) / (edges[b + 2] - edges[b + 1])
            else:
                w = 0.0
            rows[b, i] += w
    return rows


class TestMelProject:
    def test_zero_in_zero_out(self):
        assert not ft.mel_project(np.zeros((513, 4)), 16000, 64).any()

    def test_impulse_picks_filter_weight(self):
        bank = ft.mel_filterbank(16000, 1024, 2)
        impulse_bin = int(bank[1].argmax())
        mag = np.zeros((513, 1))
        mag[impulse_bin, 0] = 1.0
        out = ft.mel_project(mag, 16000, 2)
        assert out[1, 0] == bank[1, impulse_bin]

    def test_rows_match_independent_triangles(self):
        bank = ft.mel_filterbank(16000, 1024, 64)
        oracle = independent_filterbank_rows(16000, 1024, 64)
        np.testing.assert_allclose(bank.sum(axis=1), oracle.sum(axis=1), atol=1e-9)
        np.testing.assert_allclose(bank, oracle, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 2, size=(129, 7))
        y = rng.uniform(0, 2, size=(129, 7))
        lhs = ft.mel_project(2.5 * x + 0.5 * y, 8000, 16)
        rhs = 2.5 * ft.mel_project(x, 8000, 16) + 0.5 * ft.mel_project(y, 8000, 16)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_too_many_bands_rejected(self):
        with pytest.raises(InvalidConfigError):
            ft.mel_filterbank(16000, 64, 40)

    def test_empty_band_rejected(self):
        with pytest.raises(InvalidConfigError, match="empty bands"):
            ft.mel_filterbank(16000, 64, 16)

    @pytest.mark.parametrize("sample_rate_hz, window_len, mel_bands", [
        (16000, 1024, 64), (16000, 1024, 16), (8000, 256, 16), (16000, 512, 40),
        (22050, 2048, 128), (44100, 4096, 64), (16000, 64, 2),
    ])
    def test_broadcast_equals_per_band_loop_bitwise(self, sample_rate_hz, window_len, mel_bands):
        got = ft.mel_filterbank(sample_rate_hz, window_len, mel_bands)
        want = loop_mel_filterbank(sample_rate_hz, window_len, mel_bands)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestLogCompressAndFrame:
    def test_floor_value(self):
        mel = np.full((3, 4), 1e-10)
        ps = ft.log_compress_and_frame(mel, floor=1e-10, patch_frames=4, patch_hop=4)
        np.testing.assert_allclose(ps.patches, np.log(1e-10))

    def test_patch_count_example(self):
        ps = ft.log_compress_and_frame(np.ones((2, 10)), patch_frames=4, patch_hop=2)
        assert len(ps) == 4

    def test_all_e_gives_ones(self):
        ps = ft.log_compress_and_frame(np.full((2, 6), np.e), patch_frames=3, patch_hop=3)
        np.testing.assert_allclose(ps.patches, 1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_patch_count_formula(self, seed):
        rng = np.random.default_rng(1000 + seed)
        frames = int(rng.integers(1, 200))
        patch_frames = int(rng.integers(1, 50))
        patch_hop = int(rng.integers(1, patch_frames + 1))
        mel = np.ones((3, frames))
        if frames < patch_frames:
            with pytest.raises(InsufficientAudioError):
                ft.log_compress_and_frame(mel, patch_frames=patch_frames, patch_hop=patch_hop)
        else:
            ps = ft.log_compress_and_frame(mel, patch_frames=patch_frames, patch_hop=patch_hop)
            assert len(ps) == (frames - patch_frames) // patch_hop + 1


class TestNormalization:
    def test_train_set_becomes_zero_mean_unit_std(self):
        rng = np.random.default_rng(9)
        patches = rng.uniform(-3, 5, size=(20, 6, 8)) * rng.uniform(0.5, 4, size=(1, 6, 1))
        stats = ft.compute_norm_stats(patches)
        normed = np.stack([stats.apply(p) for p in patches])
        flat = normed.transpose(1, 0, 2).reshape(6, -1)
        np.testing.assert_allclose(flat.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(flat.std(axis=1), 1.0, atol=1e-6)

    def test_stacked_apply_equals_per_patch_apply_bitwise(self):
        rng = np.random.default_rng(10)
        patches = rng.uniform(-3, 5, size=(7, 6, 8))
        stats = ft.compute_norm_stats(patches)
        per_patch = np.stack([stats.apply(p) for p in patches])
        assert stats.apply(patches).tobytes() == per_patch.tobytes()


class TestSyntheticDataset:
    def test_same_seed_bit_identical(self):
        a = ft.gen_synthetic_dataset(11, 20, 10, shape=(8, 8))
        b = ft.gen_synthetic_dataset(11, 20, 10, shape=(8, 8))
        assert a.patches.tobytes() == b.patches.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.source_ids == b.source_ids

    def test_no_anomalies_all_normal(self):
        ps = ft.gen_synthetic_dataset(3, 15, 0, shape=(8, 8))
        assert (ps.labels == ft.LABEL_NORMAL).all()

    @pytest.mark.parametrize("seed", [1, 42])
    def test_population_means_differ_by_at_least_shift(self, seed):
        ps = ft.gen_synthetic_dataset(seed, 400, 200, shape=(16, 16), shift=4.0)
        normal = ps.patches[ps.labels == ft.LABEL_NORMAL].reshape(400, -1)
        anom = ps.patches[ps.labels == ft.LABEL_ANOMALOUS].reshape(200, -1)
        assert np.linalg.norm(anom.mean(axis=0) - normal.mean(axis=0)) >= 4.0


class TestPatchContainer:
    def test_round_trip(self, tmp_path):
        ps = ft.gen_synthetic_dataset(5, 6, 3, shape=(4, 8))
        ps.norm_stats = ft.compute_norm_stats(ps.patches)
        path = tmp_path / "patches.gmgp"
        ft.write_patchset(path, ps)
        back = ft.read_patchset(path)
        np.testing.assert_array_equal(back.patches, ps.patches.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(back.labels, ps.labels)
        assert back.source_ids == ps.source_ids
        np.testing.assert_array_equal(back.norm_stats.mean, ps.norm_stats.mean)
        np.testing.assert_array_equal(back.norm_stats.std, ps.norm_stats.std)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.gmgp"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            ft.read_patchset(p)

    def test_truncated_payload(self, tmp_path):
        ps = ft.gen_synthetic_dataset(5, 4, 0, shape=(4, 4))
        p = tmp_path / "trunc.gmgp"
        ft.write_patchset(p, ps)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(FormatError):
            ft.read_patchset(p)

    def test_trailing_garbage(self, tmp_path):
        ps = ft.gen_synthetic_dataset(5, 4, 0, shape=(4, 4))
        p = tmp_path / "extra.gmgp"
        ft.write_patchset(p, ps)
        p.write_bytes(p.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            ft.read_patchset(p)

    def test_huge_header_counts(self, tmp_path):
        p = tmp_path / "huge.gmgp"
        p.write_bytes(ft.PATCH_MAGIC + struct.pack("<IIII", ft.PATCH_VERSION, *[0xFFFFFFFF] * 3))
        with pytest.raises(FormatError):
            ft.read_patchset(p)

    def _with_stats(self):
        ps = ft.gen_synthetic_dataset(5, 4, 0, shape=(4, 4))
        ps.norm_stats = ft.compute_norm_stats(ps.patches)
        return ps

    def test_label_outside_known_values_rejected(self, tmp_path):
        ps = self._with_stats()
        p = tmp_path / "label.gmgp"
        ft.write_patchset(p, ps)
        blob = bytearray(p.read_bytes())
        blob[20 + ps.patches.size * 4 + 2] = 7      # third patch's label
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="label 7"):
            ft.read_patchset(p)

    @pytest.mark.parametrize("std", [0.0, -1.0, np.nan, np.inf])
    def test_std_not_finite_and_positive_rejected(self, tmp_path, std):
        ps = self._with_stats()
        ps.norm_stats.std[1] = std
        p = tmp_path / "std.gmgp"
        ft.write_patchset(p, ps)
        with pytest.raises(FormatError):
            ft.read_patchset(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_patch_value_rejected(self, tmp_path, value):
        ps = self._with_stats()
        ps.patches[1, 2, 3] = value
        p = tmp_path / "nan.gmgp"
        ft.write_patchset(p, ps)
        with pytest.raises(FormatError, match="non-finite patch"):
            ft.read_patchset(p)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        p = tmp_path / "keep.gmgp"
        ft.write_patchset(p, self._with_stats())
        before = p.read_bytes()
        bad = self._with_stats()
        bad.source_ids[-1] = "x" * 0x10000    # rejected after the patch values are written
        with pytest.raises(InvalidInputError):
            ft.write_patchset(p, bad)
        assert p.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [p]
