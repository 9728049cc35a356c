"""Seeded WAV corpus for the benchmark: machine hum, anomalies, malformed files.

Normal clips are a harmonic hum (a per-machine fundamental with a
per-clip jitter, decaying harmonics, slow amplitude modulation and a
low broadband noise floor).  Anomalous clips carry the same hum plus
periodic Hann-windowed high-frequency noise bursts whose strength varies
from clip to clip, so detection is good but not perfect.

Malformed files sit beside the good ones.  Each kind names the error
class that ``anomix.features`` documents for it; ``stereo`` is a valid
variant that must be accepted.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 16000
CLIP_SECONDS = 10.0

# kind -> name of the error class decoding and extracting must raise
# (None: the file is valid and must be accepted).
MALFORMED_KINDS = {
    "truncated_header": "FormatError",
    "pcm8": "UnsupportedFormatError",
    "too_short": "InsufficientAudioError",
}


@dataclass(frozen=True)
class ClipFile:
    path: Path
    kind: str              # "normal", "anomalous", "stereo" or a MALFORMED_KINDS key
    seconds: float         # audio length the file claims to hold
    label: int | None      # 0 normal, 1 anomalous, None for malformed files

    @property
    def expected_error(self) -> str | None:
        return MALFORMED_KINDS.get(self.kind)


def _hum(rng: np.random.Generator, f0: int, n: int, sr: int) -> np.ndarray:
    # Whole-hertz harmonics repeat every second, so one second is
    # synthesised and tiled; the slow modulation is evaluated every 16
    # samples, and the noise spans the clip.
    f = f0 + int(rng.integers(-1, 2))
    t = np.arange(sr) / sr
    second = np.zeros(sr)
    for h in range(1, 9):
        second += np.sin(2.0 * np.pi * h * f * t + rng.uniform(0.0, 2.0 * np.pi)) / h
    second *= 0.25 / (1.2 * np.max(np.abs(second)))     # peak at most 0.25 after modulation
    block = 16
    mod_hz = rng.uniform(0.3, 1.5)
    mod = 1.0 + 0.2 * np.sin(2.0 * np.pi * mod_hz * np.arange(0, n, block) / sr
                             + rng.uniform(0.0, 2.0 * np.pi))
    return np.resize(second, n) * np.repeat(mod, block)[:n] + 0.01 * rng.standard_normal(n, dtype=np.float32)


def _bursts(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    # Hann-windowed first-differenced noise: energy rises towards Nyquist.
    period = int(sr * rng.uniform(0.15, 0.3))
    length = int(sr * rng.uniform(0.08, 0.2))
    envelope = rng.uniform(0.2, 0.5) * np.hanning(length) / np.sqrt(2.0)
    out = np.zeros(n)
    for start in range(int(rng.integers(period)), n - length, period):
        out[start:start + length] += envelope * np.diff(rng.standard_normal(length + 1))
    return out


def clip_samples(seed: int, index: int, anomalous: bool, seconds: float = CLIP_SECONDS,
                 sr: int = SAMPLE_RATE_HZ) -> np.ndarray:
    """Float samples of clip ``index``; reproducible independent of order."""
    machine = np.random.default_rng([seed, 0])
    f0 = int(machine.integers(45, 66))
    rng = np.random.default_rng([seed, 1, index])
    n = int(seconds * sr)
    x = _hum(rng, f0, n, sr)
    if anomalous:
        x += _bursts(rng, n, sr)
    return np.clip(x, -1.0, 1.0)


def _write(path: Path, frames: bytes, channels: int, width: int, sr: int) -> None:
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(width)
        w.setframerate(sr)
        w.writeframes(frames)


def _pcm16(x: np.ndarray) -> bytes:
    return np.round(x * 32767.0).astype("<i2").tobytes()


def write_clip(path: Path, samples: np.ndarray, sr: int = SAMPLE_RATE_HZ) -> None:
    _write(path, _pcm16(samples), 1, 2, sr)


def write_corpus(directory: Path, seed: int, n_normal: int, n_anomalous: int,
                 first_index: int = 0, malformed_each: int = 0, stereo: int = 0) -> list[ClipFile]:
    """Write a labelled corpus; clip indices start at ``first_index`` so
    training and test corpora of one seed never share a clip."""
    directory.mkdir(parents=True, exist_ok=True)
    files = []
    index = first_index
    for anomalous, count in ((False, n_normal), (True, n_anomalous)):
        for _ in range(count):
            path = directory / f"clip-{index:05d}.wav"
            write_clip(path, clip_samples(seed, index, anomalous), SAMPLE_RATE_HZ)
            files.append(ClipFile(path, "anomalous" if anomalous else "normal", CLIP_SECONDS, int(anomalous)))
            index += 1
    for _ in range(stereo):
        path = directory / f"stereo-{index:05d}.wav"
        left = clip_samples(seed, index, False)
        right = clip_samples(seed, index + 1, False)
        frames = np.stack([left, right], axis=1).reshape(-1)
        _write(path, _pcm16(frames), 2, 2, SAMPLE_RATE_HZ)
        files.append(ClipFile(path, "stereo", CLIP_SECONDS, 0))
        index += 2
    rng = np.random.default_rng([seed, 2, first_index])
    for _ in range(malformed_each):
        files.extend(_malformed(directory, seed, index, rng))
        index += len(MALFORMED_KINDS)
    return files


def _malformed(directory: Path, seed: int, index: int, rng: np.random.Generator) -> list[ClipFile]:
    good = _pcm16(clip_samples(seed, index, False))
    scratch = directory / f"whole-{index:05d}.wav"
    _write(scratch, good, 1, 2, SAMPLE_RATE_HZ)
    blob = scratch.read_bytes()
    scratch.unlink()
    out = []
    # A copy cut short inside the 44-byte RIFF header.  ``decode_wav``
    # documents no error for a file cut inside its sample data (it reads the
    # frames that are there), so no such file is written.
    path = directory / f"bad-{index:05d}-truncated_header.wav"
    path.write_bytes(blob[:int(rng.integers(4, 44))])
    out.append(ClipFile(path, "truncated_header", CLIP_SECONDS, None))
    path = directory / f"bad-{index + 1:05d}-pcm8.wav"
    x = clip_samples(seed, index + 1, False)
    _write(path, np.round(x * 127.0 + 128.0).astype(np.uint8).tobytes(), 1, 1, SAMPLE_RATE_HZ)
    out.append(ClipFile(path, "pcm8", CLIP_SECONDS, None))
    path = directory / f"bad-{index + 2:05d}-too_short.wav"
    short = rng.uniform(0.2, 1.5)
    write_clip(path, clip_samples(seed, index + 2, False, short), SAMPLE_RATE_HZ)
    out.append(ClipFile(path, "too_short", short, None))
    return out
