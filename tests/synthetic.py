"""The test suite's data: audio-like patch sets from a planar mixture.

Counter-keyed, so patch i of a seed is the same however many patches
are drawn.  Run scripts that import it with this directory on
``PYTHONPATH``; pytest puts it there for the test modules.
"""

import numpy as np

from anomix.errors import InvalidConfigError
from anomix.features import LABEL_ANOMALOUS, LABEL_NORMAL, PatchSet

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
