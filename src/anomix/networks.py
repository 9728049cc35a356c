"""The five networks: encoder, decoder, auxiliary encoder, discriminator,
and the mixture-membership estimator, plus checkpoint serialization.

All are plain MLPs over flattened patches.  The auxiliary encoder has the
same shape as the encoder but independent weights: it re-encodes the
reconstruction and acts as the anchor the latent-distance loss pulls
toward, so tying it to the encoder would collapse the two sides of that
distance.

Checkpoint ("GMGC" file), all integers little-endian:

    offset  size        field
    0       4           magic b"GMGC"
    4       4           u32 version (currently 1)
    8       4           u32 config byte length
    12      ...         UTF-8 "key=value\\n" lines (sorted keys)
    ...     4           u32 array count
    per array:
            2           u16 name byte length
            ...         UTF-8 name
            1           u8 ndim
            4*ndim      u32 dims
            8*prod      f64 values, row-major

Array names: "<network>.w<i>"/"<network>.b<i>" for the five networks,
"norm.mean"/"norm.std" for feature normalization, and optionally
"gmm.alpha"/"gmm.mu"/"gmm.sigma" for the deployment mixture.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .atomic import replace_on_success
from .autodiff import Tensor
from .errors import FormatError, ShapeError
from .features import NormStats
from .mixture import GmmParams

CHECKPOINT_MAGIC = b"GMGC"
CHECKPOINT_VERSION = 1

NETWORK_NAMES = ("encoder", "decoder", "aux_encoder", "discriminator", "estimator")


@dataclass(frozen=True)
class ArchConfig:
    """Layer widths for every network; defaults fit a 64x64 patch."""

    input_dim: int = 4096
    latent_dim: int = 8
    n_components: int = 4
    encoder_widths: tuple = (512, 128)
    discriminator_widths: tuple = (256, 64)
    estimator_widths: tuple = (16,)
    leaky_slope: float = 0.2
    output_scale: float = 4.0   # decoder tanh covers this many std units

    def to_text(self) -> str:
        pairs = {}
        for f in fields(self):
            v = getattr(self, f.name)
            pairs[f.name] = ",".join(str(x) for x in v) if isinstance(v, tuple) else str(v)
        return "".join(f"{k}={pairs[k]}\n" for k in sorted(pairs))

    @classmethod
    def from_text(cls, text: str) -> "ArchConfig":
        kinds = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            key, _, value = line.partition("=")
            if key not in kinds:
                raise FormatError(f"unknown checkpoint config key {key!r}")
            try:
                if kinds[key] == "tuple":
                    kwargs[key] = tuple(int(x) for x in value.split(",") if x)
                elif kinds[key] == "float":
                    kwargs[key] = float(value)
                else:
                    kwargs[key] = int(value)
            except ValueError as err:
                raise FormatError(f"checkpoint config {key}={value!r} is not a valid {kinds[key]}") from err
        return cls(**kwargs)


class Mlp:
    """Fully connected stack; weights [in x out], biases [out]."""

    def __init__(self, weights, biases, hidden, output, leaky_slope=0.2):
        self.weights = weights
        self.biases = biases
        self.hidden = hidden        # activation name for all but the last layer
        self.output = output        # activation name for the last layer
        self.leaky_slope = leaky_slope

    def _activate(self, h: Tensor, kind: str) -> Tensor:
        if kind == "linear":
            return h
        if kind == "leaky_relu":
            return ad.leaky_relu(h, self.leaky_slope)
        if kind == "tanh":
            return ad.tanh(h)
        if kind == "sigmoid":
            return ad.sigmoid(h)
        raise ValueError(f"unknown activation {kind!r}")

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.weights[0].shape[0]:
            raise ShapeError(
                f"expected input [batch x {self.weights[0].shape[0]}], got {x.shape}"
            )
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.add_rowvec(ad.matmul(h, w), b)
            h = self._activate(h, self.output if i == last else self.hidden)
        return h

    def parameters(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out


def _network_layouts(arch: ArchConfig) -> dict:
    """Per network, in NETWORK_NAMES order: layer widths, hidden and
    output activation."""
    enc_dims = (arch.input_dim, *arch.encoder_widths, arch.latent_dim)
    return {
        "encoder": (enc_dims, "leaky_relu", "linear"),
        "decoder": (tuple(reversed(enc_dims)), "leaky_relu", "tanh"),
        "aux_encoder": (enc_dims, "leaky_relu", "linear"),
        "discriminator": ((arch.input_dim, *arch.discriminator_widths, 1), "leaky_relu", "sigmoid"),
        "estimator": ((arch.latent_dim, *arch.estimator_widths, arch.n_components), "tanh", "linear"),
    }


@dataclass
class Model:
    arch: ArchConfig
    init_seed: int
    encoder: Mlp
    decoder: Mlp
    aux_encoder: Mlp
    discriminator: Mlp
    estimator: Mlp

    def network(self, name: str) -> Mlp:
        return getattr(self, name)

    def generator_parameters(self) -> list:
        """Everything trained by the generator-side objective."""
        return (
            self.encoder.parameters()
            + self.decoder.parameters()
            + self.aux_encoder.parameters()
            + self.estimator.parameters()
        )

    def discriminator_parameters(self) -> list:
        return self.discriminator.parameters()

    def all_parameters(self) -> list:
        return [p for name in NETWORK_NAMES for p in self.network(name).parameters()]


def init_model(arch: ArchConfig, seed: int) -> Model:
    """Deterministic Xavier-uniform initialization, biases zero."""
    rng = np.random.default_rng(seed)
    nets = {}
    for name, (dims, hidden, output) in _network_layouts(arch).items():
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out))))
            biases.append(Tensor(np.zeros(fan_out)))
        nets[name] = Mlp(weights, biases, hidden, output, arch.leaky_slope)
    return Model(arch=arch, init_seed=seed, **nets)


def encode(model: Model, x: Tensor) -> Tensor:
    """Latent representation [batch x latent_dim] of flattened patches."""
    return model.encoder.forward(x)


def decode(model: Model, z: Tensor) -> Tensor:
    """Reconstruction [batch x input_dim]; tanh output scaled to the
    normalized-input range."""
    return ad.mul(model.decoder.forward(z), model.arch.output_scale)


def encode_aux(model: Model, x: Tensor) -> Tensor:
    """Re-encoded latent of a reconstruction, via the independent encoder."""
    return model.aux_encoder.forward(x)


def discriminate(model: Model, x: Tensor) -> Tensor:
    """P(real) in (0, 1) per sample, shape [batch x 1]."""
    return model.discriminator.forward(x)


def membership(model: Model, z: Tensor) -> Tensor:
    """Soft mixture-component memberships [batch x K]; rows sum to 1."""
    return ad.softmax_rows(model.estimator.forward(z))


# ---------------------------------------------------------------------------
# checkpoint i/o
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    model: Model
    norm_stats: NormStats | None
    gmm: GmmParams | None


def _named_arrays(model: Model, norm_stats: NormStats | None, gmm: GmmParams | None):
    for name in NETWORK_NAMES:
        net = model.network(name)
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            yield f"{name}.w{i}", w.data
            yield f"{name}.b{i}", b.data
    if norm_stats is not None:
        yield "norm.mean", norm_stats.mean
        yield "norm.std", norm_stats.std
    if gmm is not None:
        alpha, means, covs = gmm.as_arrays()
        yield "gmm.alpha", alpha
        yield "gmm.mu", means
        yield "gmm.sigma", covs


def save_checkpoint(path, model: Model, norm_stats: NormStats | None = None, gmm: GmmParams | None = None) -> None:
    """Write a GMGC file.  A file already at ``path`` is replaced only
    once the new one is complete; if writing fails it is left as it was."""
    arrays = list(_named_arrays(model, norm_stats, gmm))
    config = model.arch.to_text() + f"init_seed={model.init_seed}\n"
    blob = config.encode("utf-8")
    with replace_on_success(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays:
            encoded = name.encode("utf-8")
            arr = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr)


def _array(path, arrays: dict, name: str) -> np.ndarray:
    try:
        return arrays[name]
    except KeyError:
        raise FormatError(f"{path}: checkpoint is missing array {name!r}") from None


def load_checkpoint(path) -> Checkpoint:
    """Parse a GMGC file.  Raises FormatError on any structural problem,
    a non-finite array or a norm std that is not positive."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a GMGC checkpoint")
    version, config_len = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    off = 12
    try:
        text = blob[off:off + config_len].decode("utf-8")
        off += config_len
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        arrays = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + name_len].decode("utf-8")
            off += name_len
            (ndim,) = struct.unpack_from("<B", blob, off)
            off += 1
            dims = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            n = math.prod(dims)
            arrays[name] = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(dims).copy()
            off += 8 * n
    except (struct.error, ValueError, OverflowError) as err:
        raise FormatError(f"{path}: truncated or corrupt checkpoint") from err
    if off != len(blob):
        raise FormatError(f"{path}: trailing bytes after checkpoint payload")
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: array {name!r} has non-finite values")

    seed = 0
    config_lines = []
    for line in text.splitlines():
        if line.startswith("init_seed="):
            value = line.partition("=")[2]
            try:
                seed = int(value)
            except ValueError as err:
                raise FormatError(f"{path}: checkpoint config init_seed={value!r} is not an int") from err
        elif line.strip():
            config_lines.append(line)
    arch = ArchConfig.from_text("\n".join(config_lines))

    nets = {}
    for name, (dims, hidden, output) in _network_layouts(arch).items():
        weights, biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            w, b = _array(path, arrays, f"{name}.w{i}"), _array(path, arrays, f"{name}.b{i}")
            if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
                raise FormatError(f"{path}: array shape mismatch for {name} layer {i}")
            weights.append(Tensor(w))
            biases.append(Tensor(b))
        nets[name] = Mlp(weights, biases, hidden, output, arch.leaky_slope)
    model = Model(arch=arch, init_seed=seed, **nets)

    stats = None
    if "norm.mean" in arrays:
        stats = NormStats(mean=arrays["norm.mean"], std=_array(path, arrays, "norm.std"))
        if not np.all(stats.std > 0.0):
            raise FormatError(f"{path}: norm.std has a value that is not positive")
    gmm = None
    if "gmm.alpha" in arrays:
        gmm = GmmParams.from_arrays(arrays["gmm.alpha"], _array(path, arrays, "gmm.mu"), _array(path, arrays, "gmm.sigma"))
    return Checkpoint(model=model, norm_stats=stats, gmm=gmm)
