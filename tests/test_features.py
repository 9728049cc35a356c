"""WAV decoding, spectrogram pipeline, normalization, patch sets, synthetic data."""

import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anomix import features as ft
from anomix.errors import (
    FormatError,
    InsufficientAudioError,
    InvalidConfigError,
    InvalidInputError,
    NumericError,
    UnsupportedFormatError,
)
from synthetic import gen_synthetic_dataset


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

    def test_zero_sample_rate_is_format_error_naming_the_file(self, tmp_path):
        p = tmp_path / "rate0.wav"
        write_wav_bytes(p, struct.pack("<4h", 1, 2, 3, 4), rate=0)
        with pytest.raises(FormatError, match="header declares sample rate 0") as err:
            ft.decode_wav(p)
        assert str(err.value).startswith(str(p))


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
        # Two whole blocks of frames, one frame more and one frame fewer.
        *[(1024 + (2 * (ft.STFT_BLOCK // 1024) + d - 1) * 512, 1024, 512) for d in (0, 1, -1)],
        # A window longer than a block: one frame per block.
        (2 * ft.STFT_BLOCK + 300, 2 * ft.STFT_BLOCK, 100),
    ])
    def test_strided_frames_equal_index_gather_bitwise(self, n, window_len, hop):
        clip = ft.AudioClip(np.random.default_rng(n + hop).uniform(-1.0, 1.0, n), 16000)
        got = ft.stft_magnitude(clip, window_len, hop)
        want = gather_stft_magnitude(clip, window_len, hop)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_allocates_its_output_and_one_block_pair(self):
        clip = ft.AudioClip(np.random.default_rng(13).uniform(-1.0, 1.0, 160000), 16000)
        ft.stft_magnitude(clip, 1024, 512)  # imports numpy.fft outside the trace
        tracemalloc.start()
        try:
            out = ft.stft_magnitude(clip, 1024, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A block pair is the windowed block and its complex transform, each
        # about STFT_BLOCK float64 values; slack for the window and small
        # objects.  Transforming every frame at once holds ~3.6 MiB beside
        # the output.
        assert peak <= out.nbytes + 2 * ft.STFT_BLOCK * 8 + 128 * 1024, peak


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

    def test_filterbank_is_memoized_read_only(self):
        bank = ft.mel_filterbank(8000, 512, 24)
        assert ft.mel_filterbank(8000, 512, 24) is bank
        assert not bank.flags.writeable
        with pytest.raises(ValueError):
            bank[0, 0] = 1.0
        rng = np.random.default_rng(6)
        mag = rng.uniform(0, 2, size=(257, 9))
        want = ft.mel_filterbank.__wrapped__(8000, 512, 24) @ mag
        assert ft.mel_project(mag, 8000, 24).tobytes() == want.tobytes()

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
        mel = np.zeros((3, 4))
        ps = ft.log_compress_and_frame(mel, patch_frames=4, patch_hop=4)
        np.testing.assert_array_equal(ps.patches, np.log(ft.DEFAULT_LOG_FLOOR))

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

    # 16 x 16 patches: a block is 256 patches, so 600 rows end in a partial one.
    @pytest.mark.parametrize("shape", [(600, 16, 16), (256, 16, 16), (3, 16, 16), (16, 16), (2, 5, 300, 301)])
    def test_apply_into_float32_is_the_float64_result_cast(self, shape):
        rng = np.random.default_rng(11)
        patches = rng.uniform(-3, 5, size=shape)
        stats = ft.NormStats(mean=rng.uniform(-1, 1, shape[-2]), std=rng.uniform(0.1, 3, shape[-2]))
        want = stats.apply(patches)
        assert want.dtype == np.float64 and want.shape == patches.shape
        assert want.tobytes() == ((patches - stats.mean[:, None]) / stats.std[:, None]).tobytes()
        got = stats.apply(patches, np.float32)
        assert got.dtype == np.float32 and got.tobytes() == want.astype(np.float32).tobytes()

    @pytest.mark.parametrize("shape", [(3, 8, 6), (8, 6), (6,)])
    def test_patches_of_another_band_count_raise_naming_both(self, shape):
        stats = ft.NormStats(mean=np.zeros(6), std=np.ones(6))
        message = f"patches of shape {shape}, not of the statistics' 6 bands"
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            stats.apply(np.zeros(shape))

    def test_value_beyond_float32_range_becomes_inf(self):
        stats = ft.NormStats(mean=np.zeros(2), std=np.ones(2))
        got = stats.apply(np.array([[1e300, 1.0], [2.0, -1e300]]), np.float32)
        np.testing.assert_array_equal(got, [[np.inf, 1.0], [2.0, -np.inf]])

    def test_apply_allocates_its_output_and_one_block(self):
        rng = np.random.default_rng(12)
        patches = rng.uniform(-3, 5, size=(64, 64, 64))
        stats = ft.compute_norm_stats(patches)
        tracemalloc.start()
        try:
            out = stats.apply(patches, np.float32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Slack for numpy's casting buffer and small objects; a full-size
        # float64 temporary would be 2 MiB.
        assert peak <= out.nbytes + ft.NORM_BLOCK * 8 + 128 * 1024, peak

    # n * frames beyond 8192 crosses numpy's reduction buffer size.  One
    # frame is left out: there the reference's reshape is a strided view,
    # not a copy, and numpy sums its rows in another order.
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 300), bands=st.integers(1, 6), frames=st.integers(2, 64),
           seed=st.integers(0, 2**32 - 1), offset=st.sampled_from([0.0, -7.5, 1e3]))
    @example(n=1, bands=5, frames=9, seed=0, offset=0.0)
    @example(n=7, bands=1, frames=9, seed=1, offset=-7.5)
    @example(n=200, bands=3, frames=64, seed=2, offset=1e3)
    def test_stats_equal_the_transposed_copy_bitwise(self, n, bands, frames, seed, offset):
        rng = np.random.default_rng(seed)
        patches = offset + rng.standard_normal((n, bands, frames)) * rng.uniform(1e-3, 10.0, (1, bands, 1))
        stats = ft.compute_norm_stats(patches)
        mean, std = transposed_copy_norm_stats(patches)
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.std.tobytes() == std.tobytes()

    def test_stats_allocate_one_band_row_and_its_deviations(self):
        patches = np.random.default_rng(14).uniform(-3, 5, size=(512, 64, 64))
        tracemalloc.start()
        try:
            ft.compute_norm_stats(patches)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The band row and std's deviations from its mean are 256 KiB each;
        # a transposed copy of the set would be 16 MiB.
        row = patches.shape[0] * patches.shape[2] * 8
        assert peak <= 2 * row + 64 * 1024, peak


def transposed_copy_norm_stats(patches, std_floor=1e-8):
    """All bands in one transposed copy of the set; the reference for
    compute_norm_stats' band-at-a-time rows."""
    flat = patches.transpose(1, 0, 2).reshape(patches.shape[1], -1)
    return flat.mean(axis=1), np.maximum(flat.std(axis=1), std_floor)


class TestSyntheticDataset:
    def test_same_seed_bit_identical(self):
        a = gen_synthetic_dataset(11, 20, 10, shape=(8, 8))
        b = gen_synthetic_dataset(11, 20, 10, shape=(8, 8))
        assert a.patches.tobytes() == b.patches.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        assert a.source_ids == b.source_ids

    def test_no_anomalies_all_normal(self):
        ps = gen_synthetic_dataset(3, 15, 0, shape=(8, 8))
        assert (ps.labels == ft.LABEL_NORMAL).all()

    @pytest.mark.parametrize("seed", [1, 42])
    def test_population_means_differ_by_at_least_shift(self, seed):
        ps = gen_synthetic_dataset(seed, 400, 200, shape=(16, 16), shift=4.0)
        normal = ps.patches[ps.labels == ft.LABEL_NORMAL].reshape(400, -1)
        anom = ps.patches[ps.labels == ft.LABEL_ANOMALOUS].reshape(200, -1)
        assert np.linalg.norm(anom.mean(axis=0) - normal.mean(axis=0)) >= 4.0


class TestPatchContainer:
    """``PatchSet``, the in-memory patch container, holds only finite
    patches and labels that ``LABEL_NAMES`` names."""

    # Checked before the cast to uint8, which would raise numpy's
    # OverflowError on -1 and read 0.5 and 256 as normal.
    @pytest.mark.parametrize("bad", [7, -1, 0.5, 256])
    def test_label_outside_known_values_rejected(self, bad):
        ps = gen_synthetic_dataset(5, 4, 0, shape=(4, 4))
        labels = ps.labels.tolist()
        labels[2] = bad
        with pytest.raises(InvalidInputError, match=f"label {bad} is not"):
            ft.PatchSet(patches=ps.patches, labels=labels)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_patch_value_rejected(self, value):
        ps = gen_synthetic_dataset(5, 4, 0, shape=(4, 4))
        ps.patches[1, 2, 3] = value
        with pytest.raises(NumericError, match="non-finite patch"):
            ft.PatchSet(patches=ps.patches, labels=ps.labels)
