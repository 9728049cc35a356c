"""Audio feature extraction and the patch container.

The input representation is a log-mel spectrogram patch: WAV decode ->
windowed magnitude spectrum -> triangular mel filterbank -> natural log
with a positive floor -> fixed-width sliding patches.  A counter-keyed
synthetic generator produces audio-like patch sets for desk-scale
experiments.

Patch container ("GMGP" file), all integers little-endian:

    offset  size            field
    0       4               magic b"GMGP"
    4       4               u32 version (currently 1)
    8       4               u32 patch count n
    12      4               u32 mel bands B
    16      4               u32 patch frames F
    20      n*B*F*4         f32 patch values, row-major per patch
    ...     n               u8 label per patch (0 normal, 1 anomalous, 2 unknown)
    ...     1               u8 has_stats flag
    [if has_stats]
    ...     B*8             f64 per-band normalization mean
    ...     B*8             f64 per-band normalization std
    ...     per patch       u16 byte length + UTF-8 source id
"""

from __future__ import annotations

import functools
import struct
import wave
from dataclasses import dataclass, field

import numpy as np

from .atomic import replace_on_success
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

PATCH_MAGIC = b"GMGP"
PATCH_VERSION = 1

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
    """Uniformly shaped spectrogram patches with ids and labels."""

    patches: np.ndarray       # [n, bands, frames] float64
    source_ids: list = field(default_factory=list)
    labels: np.ndarray = None  # [n] uint8
    norm_stats: NormStats | None = None

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
    data chunk holds fewer bytes than its header declares raises
    FormatError.
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
    return np.abs(np.fft.rfft(frames * _hann_periodic(window_len), axis=1)).T


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
    floor: float = DEFAULT_LOG_FLOOR,
    patch_frames: int = 64,
    patch_hop: int = 32,
    source_id: str = "clip",
    label: int = LABEL_UNKNOWN,
) -> PatchSet:
    """ln(max(mel, floor)) cut into sliding fixed-width patches.

    Yields floor((frames - patch_frames)/patch_hop) + 1 patches; the
    trailing partial patch is dropped.
    """
    if floor <= 0.0:
        raise InvalidConfigError("log floor must be positive")
    if not (0 < patch_hop <= patch_frames):
        raise InvalidConfigError("patch hop must be in (0, patch_frames]")
    frames = mel.shape[1]
    if frames < patch_frames:
        raise InsufficientAudioError(f"{frames} frames < patch width {patch_frames}")
    values = np.log(np.maximum(mel, floor))
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

def compute_norm_stats(patches: np.ndarray, std_floor: float = 1e-8) -> NormStats:
    """Per-band mean/std over every patch and frame of a training set."""
    flat = patches.transpose(1, 0, 2).reshape(patches.shape[1], -1)
    return NormStats(mean=flat.mean(axis=1), std=np.maximum(flat.std(axis=1), std_floor))


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

SYNTH_DEFAULT_SHAPE = (64, 64)
SYNTH_SHIFT = 4.0
SYNTH_NOISE = 0.05
_COMPONENT_ANGLES = np.array([0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0])
_COMPONENT_RADIUS = 2.0
_COMPONENT_STD = 0.5
_ANOMALY_ROTATION = np.pi / 3.0


def _patch_rng(seed: int, index: int) -> np.random.Generator:
    # Counter-keyed stream: patch i is reproducible independent of batching.
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def gen_synthetic_dataset(
    seed: int,
    n_normal: int,
    n_anomalous: int,
    shape: tuple[int, int] = SYNTH_DEFAULT_SHAPE,
    shift: float = SYNTH_SHIFT,
    noise: float = SYNTH_NOISE,
) -> PatchSet:
    """Audio-like patches from a planar mixture pushed through a fixed map.

    Normal patches: a zero-mean three-component Gaussian mixture in the
    plane, embedded by a seed-fixed orthonormal linear map into the patch
    shape, plus isotropic noise.  Anomalous patches come from the same
    mixture rotated about the origin and translated by ``shift``, so the
    two patch populations differ by that displacement in the embedded
    space.  Deterministic per seed, patch by patch.
    """
    bands, frames = shape
    dim = bands * frames
    if dim < 2:
        raise InvalidConfigError("synthetic patches need at least 2 values")

    setup_rng = np.random.Generator(np.random.Philox(key=[seed, 2**63]))
    basis, _ = np.linalg.qr(setup_rng.standard_normal((dim, 2)))
    comp_means = _COMPONENT_RADIUS * np.stack(
        [np.cos(_COMPONENT_ANGLES), np.sin(_COMPONENT_ANGLES)], axis=1
    )
    rot = np.array([
        [np.cos(_ANOMALY_ROTATION), -np.sin(_ANOMALY_ROTATION)],
        [np.sin(_ANOMALY_ROTATION), np.cos(_ANOMALY_ROTATION)],
    ])
    offset = shift * np.array([1.0, 1.0]) / np.sqrt(2.0)

    total = n_normal + n_anomalous
    patches = np.empty((total, bands, frames))
    labels = np.empty(total, dtype=np.uint8)
    ids = []
    for i in range(total):
        rng = _patch_rng(seed, i)
        anomalous = i >= n_normal
        component = rng.integers(len(comp_means))
        latent = comp_means[component] + _COMPONENT_STD * rng.standard_normal(2)
        if anomalous:
            latent = rot @ latent + offset
        flat = basis @ latent + noise * rng.standard_normal(dim)
        patches[i] = flat.reshape(bands, frames)
        labels[i] = LABEL_ANOMALOUS if anomalous else LABEL_NORMAL
        ids.append(f"{'anom' if anomalous else 'normal'}-{i:05d}")
    return PatchSet(patches=patches, source_ids=ids, labels=labels)


# ---------------------------------------------------------------------------
# GMGP container
# ---------------------------------------------------------------------------

def write_patchset(path, patchset: PatchSet) -> None:
    """Serialize a patch set to the GMGP byte layout in the module docstring.

    A file already at ``path`` is replaced only once the new one is
    complete; if writing fails it is left as it was.
    """
    n = len(patchset)
    bands, frames = patchset.shape
    with replace_on_success(path) as fh:
        fh.write(PATCH_MAGIC)
        fh.write(struct.pack("<IIII", PATCH_VERSION, n, bands, frames))
        fh.write(np.ascontiguousarray(patchset.patches, dtype="<f4"))
        fh.write(np.ascontiguousarray(patchset.labels, dtype=np.uint8))
        stats = patchset.norm_stats
        fh.write(struct.pack("<B", 1 if stats is not None else 0))
        if stats is not None:
            fh.write(np.ascontiguousarray(stats.mean, dtype="<f8"))
            fh.write(np.ascontiguousarray(stats.std, dtype="<f8"))
        for sid in patchset.source_ids:
            blob = sid.encode("utf-8")
            if len(blob) > 0xFFFF:
                raise InvalidInputError(f"source id too long: {sid[:40]}...")
            fh.write(struct.pack("<H", len(blob)))
            fh.write(blob)


def read_patchset(path) -> PatchSet:
    """Parse a GMGP file.  Raises FormatError on any structural problem,
    a patch value that is not finite, a label outside LABEL_NAMES, or
    norm stats that are not finite or whose std is not positive."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 20 or blob[:4] != PATCH_MAGIC:
        raise FormatError(f"{path}: not a GMGP patch container")
    version, n, bands, frames = struct.unpack_from("<IIII", blob, 4)
    if version != PATCH_VERSION:
        raise FormatError(f"{path}: unsupported GMGP version {version}")
    off = 20
    count = n * bands * frames
    try:
        patches = np.frombuffer(blob, dtype="<f4", count=count, offset=off)
        off += count * 4
        patches = patches.reshape(n, bands, frames).astype(np.float64)
        labels = np.frombuffer(blob, dtype=np.uint8, count=n, offset=off).copy()
        off += n
        (has_stats,) = struct.unpack_from("<B", blob, off)
        off += 1
        stats = None
        if has_stats:
            mean = np.frombuffer(blob, dtype="<f8", count=bands, offset=off).copy()
            off += bands * 8
            std = np.frombuffer(blob, dtype="<f8", count=bands, offset=off).copy()
            off += bands * 8
            stats = NormStats(mean=mean, std=std)
        ids = []
        for _ in range(n):
            (ln,) = struct.unpack_from("<H", blob, off)
            off += 2
            ids.append(blob[off:off + ln].decode("utf-8"))
            off += ln
    except (struct.error, ValueError, OverflowError) as err:
        raise FormatError(f"{path}: truncated or corrupt GMGP container") from err
    if off != len(blob):
        raise FormatError(f"{path}: {len(blob) - off} trailing bytes after GMGP payload")
    if not np.isfinite(patches).all():
        raise FormatError(f"{path}: non-finite patch values")
    if labels.size and labels.max() > LABEL_UNKNOWN:
        raise FormatError(f"{path}: label {labels.max()} is not one of {sorted(LABEL_NAMES)}")
    if stats is not None:
        if not (np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()):
            raise FormatError(f"{path}: non-finite norm stats")
        if not (stats.std > 0.0).all():
            raise FormatError(f"{path}: norm std has a value that is not positive")
    return PatchSet(patches=patches, source_ids=ids, labels=labels, norm_stats=stats)
