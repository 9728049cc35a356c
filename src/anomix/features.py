"""Audio feature extraction and the patch set.

The input representation is a log-mel spectrogram patch: WAV decode ->
windowed magnitude spectrum -> triangular mel filterbank -> natural log
with a positive floor -> fixed-width sliding patches.

Patch sets live in memory only; there is no patch file format.  The
per-band normalization statistics of a training set are computed by
``training.fit`` and live with the fitted model: in ``FitResult`` and
in the checkpoint's "norm.mean"/"norm.std" arrays.

Memory: beside its result, ``stft_magnitude`` holds one block of at
most ``STFT_BLOCK`` windowed samples and that block's transform, and
``compute_norm_stats`` holds one band's values of the training set and
the deviations ``std`` takes of them.  Neither holds a copy of its
whole input, and both give bitwise the values of the whole-array form
(for the statistics, a C-contiguous [bands x n*frames] copy).
"""
from __future__ import annotations

import functools
import wave
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FormatError,
    InsufficientAudioError,
    InvalidConfigError,
    InvalidInputError,
    NumericError,
    UnsupportedFormatError,
)

LABEL_NORMAL = 0
LABEL_ANOMALOUS = 1
LABEL_UNKNOWN = 2
LABEL_NAMES = {LABEL_NORMAL: "normal", LABEL_ANOMALOUS: "anomalous", LABEL_UNKNOWN: "unknown"}

DEFAULT_LOG_FLOOR = 1e-10


@dataclass
class AudioClip:
    samples: np.ndarray       # float64 in [-1, 1]
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise InvalidInputError("audio must be a 1-D sample sequence")
        if not np.all(np.isfinite(self.samples)):
            raise NumericError("non-finite audio samples")
        if self.sample_rate_hz <= 0:
            raise InvalidInputError("sample rate must be positive")


# Float64 elements in NormStats.apply's scratch block and its two tiles:
# 512 KiB, or 14 patches of 64 x 64 beside a mean and a std tile, so a
# block stays in cache between its two passes.
NORM_BLOCK = 65536

# Windowed samples per block of stft_magnitude: 256 KiB of float64, so a
# block and its transform (512 KiB together) stay in a 1-2 MiB L2 cache
# between the window, transform and magnitude passes.
STFT_BLOCK = 32768


@dataclass
class NormStats:
    """Per-band z-score statistics, computed on the training set."""

    mean: np.ndarray          # [bands]
    std: np.ndarray           # [bands]

    def apply(self, patches: np.ndarray, dtype=np.float64) -> np.ndarray:
        """``(patches - mean) / std`` per band, computed in float64 and
        stored as ``dtype``.

        ``patches`` is one [bands x frames] patch or a stack
        [..., bands, frames].  The mean and std are tiled to full
        [bands x frames] patches, so that each subtract and divide walks
        whole patches rather than one band's row at a time.  The patches
        are walked in blocks through a float64 scratch, and the scratch
        and the two tiles together hold at most ``NORM_BLOCK`` elements
        (one patch beside the tiles if a patch is larger).  Each block is
        copied into the output as ``dtype``, so asking for float32 builds
        no full-size float64 array.  The result is bitwise
        ``apply(patches).astype(dtype)``.  A value beyond ``dtype``'s
        range becomes inf, which the ``Tensor`` check on the networks'
        input reports.
        """
        patches = np.asarray(patches)
        out = np.empty(patches.shape, dtype)
        rows = patches.reshape(-1, *patches.shape[-2:])
        out_rows = out.reshape(rows.shape)
        bands, frames = rows.shape[1:]
        mean, std = (np.repeat(v[:, None], frames, axis=1) for v in (self.mean, self.std))
        step = max(1, NORM_BLOCK // max(1, bands * frames) - 2)
        scratch = np.empty((min(step, len(rows)), bands, frames))
        with np.errstate(over="ignore"):
            for start in range(0, len(rows), step):
                block = rows[start:start + step]
                z = scratch[:len(block)]
                np.subtract(block, mean, out=z)
                z /= std
                out_rows[start:start + step] = z
        return out


@dataclass
class PatchSet:
    """Uniformly shaped, finite spectrogram patches with ids and known
    labels."""

    patches: np.ndarray       # [n, bands, frames] float64
    source_ids: list = field(default_factory=list)
    labels: np.ndarray = None  # [n] uint8

    def __post_init__(self):
        self.patches = np.asarray(self.patches, dtype=np.float64)
        if self.patches.ndim != 3:
            raise InvalidInputError(f"patches must be [n, bands, frames], got {self.patches.shape}")
        n = len(self.patches)
        if self.labels is None:
            self.labels = np.full(n, LABEL_UNKNOWN, dtype=np.uint8)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if not self.source_ids:
            self.source_ids = [f"patch-{i:05d}" for i in range(n)]
        if len(self.labels) != n or len(self.source_ids) != n:
            raise InvalidInputError("patches, labels and source ids must align")
        if not np.isin(self.labels, list(LABEL_NAMES)).all():
            raise InvalidInputError(f"label {np.setdiff1d(self.labels, list(LABEL_NAMES))[0]} is not a known label")
        if not np.isfinite(self.patches).all():
            raise NumericError("non-finite patch values")

    def __len__(self) -> int:
        return len(self.patches)

    @property
    def shape(self) -> tuple[int, int]:
        return self.patches.shape[1], self.patches.shape[2]


# ---------------------------------------------------------------------------
# WAV decoding
# ---------------------------------------------------------------------------

def decode_wav(path) -> AudioClip:
    """Decode a RIFF/WAVE PCM 16-bit file; stereo is averaged to mono.

    Samples are scaled to [-1, 1] by dividing by 32768.  A file whose
    header declares a sample rate of 0, or whose data chunk holds fewer
    bytes than its header declares, raises FormatError.
    """
    try:
        with wave.open(str(path), "rb") as wav:
            n_channels = wav.getnchannels()
            sample_width = wav.getsampwidth()
            rate = wav.getframerate()
            comp = wav.getcomptype()
            n_frames = wav.getnframes()
            raw = wav.readframes(n_frames)
    except wave.Error as err:
        raise FormatError(f"{path}: not a readable RIFF/WAVE file ({err})") from err
    except EOFError as err:
        raise FormatError(f"{path}: truncated RIFF/WAVE file") from err
    if comp != "NONE":
        raise UnsupportedFormatError(f"{path}: compressed WAV ({comp}) is not supported")
    if sample_width != 2:
        raise UnsupportedFormatError(f"{path}: only PCM 16-bit is supported, got {8 * sample_width}-bit")
    if rate <= 0:
        raise FormatError(f"{path}: header declares sample rate {rate}")
    declared = n_frames * n_channels * sample_width
    if len(raw) != declared:
        raise FormatError(f"{path}: data chunk holds {len(raw)} bytes, header declares {declared}")
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    if n_channels > 1:
        data = data.reshape(-1, n_channels).mean(axis=1)
    return AudioClip(samples=data / 32768.0, sample_rate_hz=rate)


# ---------------------------------------------------------------------------
# spectrogram pipeline
# ---------------------------------------------------------------------------

def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_magnitude(clip: AudioClip, window_len: int, hop: int) -> np.ndarray:
    """Magnitude of the one-sided DFT per Hann-windowed frame, [bins x frames].

    Frame t covers samples [t*hop, t*hop + window_len); no padding, so a
    trailing partial window is dropped.

    The frames are windowed and transformed ``STFT_BLOCK // window_len``
    at a time (at least one), each block's magnitudes written into one
    C-contiguous [frames x bins] array, which is returned transposed.
    Beside that result the function holds one scratch block of windowed
    frames and the block's complex transform, and the values are bitwise
    those of transforming every frame at once.
    """
    if window_len < 2 or window_len & (window_len - 1):
        raise InvalidConfigError(f"window length must be a power of two, got {window_len}")
    if not (0 < hop <= window_len):
        raise InvalidConfigError(f"hop must be in (0, window_len], got {hop}")
    samples = clip.samples
    if len(samples) < window_len:
        raise InsufficientAudioError(
            f"clip has {len(samples)} samples, needs at least {window_len}"
        )
    frames = np.lib.stride_tricks.sliding_window_view(samples, window_len)[::hop]
    window = _hann_periodic(window_len)
    magnitude = np.empty((len(frames), window_len // 2 + 1))
    step = max(1, STFT_BLOCK // window_len)
    scratch = np.empty((min(step, len(frames)), window_len))
    for start in range(0, len(frames), step):
        block = frames[start:start + step]
        windowed = scratch[:len(block)]
        np.multiply(block, window, out=windowed)
        np.abs(np.fft.rfft(windowed, axis=1), out=magnitude[start:start + step])
    return magnitude.T


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(sample_rate_hz: int, window_len: int, mel_bands: int) -> np.ndarray:
    """Triangular filters [mel_bands x bins] spanning 0 Hz to Nyquist.

    Memoized per argument triple, since every clip of a corpus uses the
    same bank: repeated calls return the same read-only array.
    """
    bins = window_len // 2 + 1
    if mel_bands < 2:
        raise InvalidConfigError("need at least 2 mel bands")
    if mel_bands > bins:
        raise InvalidConfigError(f"{mel_bands} mel bands exceed {bins} spectrum bins")
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate_hz / 2.0), mel_bands + 2))
    bin_freqs = np.arange(bins) * sample_rate_hz / window_len
    # Band b rises over [edges[b], edges[b+1]] and falls to edges[b+2].
    lo, mid, hi = edges_hz[:-2, None], edges_hz[1:-1, None], edges_hz[2:, None]
    rising = (bin_freqs - lo) / (mid - lo)
    falling = (hi - bin_freqs) / (hi - mid)
    bank = np.maximum(0.0, np.minimum(rising, falling))
    row_sums = bank.sum(axis=1)
    if np.any(row_sums <= 0.0):
        raise InvalidConfigError(
            "mel filterbank has empty bands; reduce mel_bands or enlarge the window"
        )
    bank.flags.writeable = False
    return bank


def mel_project(magnitude: np.ndarray, sample_rate_hz: int, mel_bands: int) -> np.ndarray:
    """Project a magnitude spectrogram [bins x frames] onto the mel bands."""
    window_len = (magnitude.shape[0] - 1) * 2
    bank = mel_filterbank(sample_rate_hz, window_len, mel_bands)
    return bank @ magnitude


def log_compress_and_frame(
    mel: np.ndarray,
    patch_frames: int = 64,
    patch_hop: int = 32,
    source_id: str = "clip",
    label: int = LABEL_UNKNOWN,
) -> PatchSet:
    """ln(max(mel, DEFAULT_LOG_FLOOR)) cut into sliding fixed-width patches.

    Yields floor((frames - patch_frames)/patch_hop) + 1 patches; the
    trailing partial patch is dropped.
    """
    if not (0 < patch_hop <= patch_frames):
        raise InvalidConfigError("patch hop must be in (0, patch_frames]")
    frames = mel.shape[1]
    if frames < patch_frames:
        raise InsufficientAudioError(f"{frames} frames < patch width {patch_frames}")
    values = np.log(np.maximum(mel, DEFAULT_LOG_FLOOR))
    n_patches = (frames - patch_frames) // patch_hop + 1
    patches = np.stack([
        values[:, t * patch_hop: t * patch_hop + patch_frames] for t in range(n_patches)
    ])
    return PatchSet(
        patches=patches,
        source_ids=[source_id] * n_patches,
        labels=np.full(n_patches, label, dtype=np.uint8),
    )


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

_STD_FLOOR = 1e-8   # a constant band's std, so normalizing it divides by no zero


def compute_norm_stats(patches: np.ndarray) -> NormStats:
    """Per-band mean/std over every patch and frame of a training set.

    One band at a time: its [n x frames] values are copied into one
    contiguous row, whose ``mean()`` and ``std()`` are taken.  Beside
    the result the function holds that row and the row of deviations
    ``std`` makes, never a copy of the whole set, and the values are
    bitwise those of each band's row in a C-contiguous transposed copy
    of the set.
    """
    n, bands, frames = patches.shape
    row = np.empty((n, frames))
    mean, std = np.empty(bands), np.empty(bands)
    for b in range(bands):
        np.copyto(row, patches[:, b, :])
        mean[b], std[b] = row.mean(), row.std()
    return NormStats(mean=mean, std=np.maximum(std, _STD_FLOOR))
