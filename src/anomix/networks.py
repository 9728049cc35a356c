"""The five networks: encoder, decoder, auxiliary encoder, discriminator,
and the mixture-membership estimator, plus checkpoint serialization.

All are plain MLPs over flattened patches, one ``autodiff.dense`` node
per layer; a numeric error in a forward pass names the network and the
layer that produced it.  The auxiliary encoder has the same shape as
the encoder but independent weights: it re-encodes the reconstruction
and acts as the anchor the latent-distance loss pulls toward, so tying
it to the encoder would collapse the two sides of that distance.

The encoder, decoder, auxiliary encoder and discriminator compute in
the model's dtype, float32 unless ``init_model`` is asked for float64.
The estimator is always float64: it feeds the mixture head, whose
covariances, Cholesky factors and energies are float64.

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

Values are float64 on disk whatever the model's dtype: a float32
parameter widens to float64 exactly, so saving and loading a float32
model gives back the same values.  ``load_checkpoint`` builds the
float32 model and narrows each network array once.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .atomic import replace_on_success
from .autodiff import Tensor
from .errors import FormatError, InvalidConfigError, NumericError, ShapeError
from .features import NormStats
from .mixture import GmmParams

CHECKPOINT_MAGIC = b"GMGC"
CHECKPOINT_VERSION = 1

NETWORK_NAMES = ("encoder", "decoder", "aux_encoder", "discriminator", "estimator")

# Compute dtype of the four big networks in a new or loaded model.
DEFAULT_DTYPE = np.float32


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

    def validate(self) -> None:
        """Every dim and width an integer >= 1 (a width tuple may be
        empty), leaky_slope a finite number, output_scale a finite
        positive number."""
        sizes = {
            "input_dim": (self.input_dim,), "latent_dim": (self.latent_dim,),
            "n_components": (self.n_components,), "encoder_widths": self.encoder_widths,
            "discriminator_widths": self.discriminator_widths, "estimator_widths": self.estimator_widths,
        }
        for name, values in sizes.items():
            if not all(isinstance(v, numbers.Integral) and v >= 1 for v in values):
                raise InvalidConfigError(f"{name} must be integers >= 1, got {getattr(self, name)!r}")
        for name in ("leaky_slope", "output_scale"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise InvalidConfigError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not math.isfinite(self.leaky_slope):
            raise InvalidConfigError(f"leaky_slope must be finite, got {self.leaky_slope}")
        if not (math.isfinite(self.output_scale) and self.output_scale > 0):
            raise InvalidConfigError(f"output_scale must be finite and > 0, got {self.output_scale}")

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
        arch = cls(**kwargs)
        try:
            arch.validate()
        except InvalidConfigError as err:
            raise FormatError(f"checkpoint config: {err}") from err
        return arch


class Mlp:
    """Fully connected stack; weights [in x out], biases [out], all of
    one dtype.  ``name`` is the network's entry in NETWORK_NAMES, which
    a numeric error in ``forward`` reports with its layer."""

    def __init__(self, name, weights, biases, hidden, output, leaky_slope):
        self.name = name
        self.weights = weights
        self.biases = biases
        self.hidden = hidden        # activation name for all but the last layer
        self.output = output        # activation name for the last layer
        self.leaky_slope = leaky_slope

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].data.dtype

    def forward(self, x: Tensor) -> Tensor:
        """The network's output for a batch [n x in], computed in the
        network's dtype; ``x`` is cast to it first.  One ``dense`` node
        per layer."""
        if x.ndim != 2 or x.shape[1] != self.weights[0].shape[0]:
            raise ShapeError(
                f"expected input [batch x {self.weights[0].shape[0]}], got {x.shape}"
            )
        h = ad.cast(x, self.dtype)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            try:
                h = ad.dense(h, w, b, self.output if i == last else self.hidden, self.leaky_slope)
            except NumericError as err:
                raise NumericError(f"{self.name} layer {i}: {err}") from err
        return h

    def parameters(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out


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


def _network_dtype(name: str, dtype) -> np.dtype:
    # ``dtype`` for the four big networks.  The estimator, and the norm
    # and mixture arrays of a checkpoint, are float64 in every model.
    return np.dtype(dtype if name in NETWORK_NAMES and name != "estimator" else np.float64)


def _build_model(arch: ArchConfig, seed: int, layer) -> Model:
    """The five networks of ``arch``, layer by layer in NETWORK_NAMES
    order; ``layer(name, i, fan_in, fan_out)`` gives layer i's weight
    and bias arrays."""
    enc_dims = (arch.input_dim, *arch.encoder_widths, arch.latent_dim)
    layouts = {     # layer widths, hidden and output activation
        "encoder": (enc_dims, "leaky_relu", "linear"),
        "decoder": (tuple(reversed(enc_dims)), "leaky_relu", "tanh"),
        "aux_encoder": (enc_dims, "leaky_relu", "linear"),
        "discriminator": ((arch.input_dim, *arch.discriminator_widths, 1), "leaky_relu", "sigmoid"),
        "estimator": ((arch.latent_dim, *arch.estimator_widths, arch.n_components), "tanh", "linear"),
    }
    nets = {}
    for name, (dims, hidden, output) in layouts.items():
        arrays = [layer(name, i, *fans) for i, fans in enumerate(zip(dims[:-1], dims[1:]))]
        nets[name] = Mlp(name, [Tensor(w) for w, _ in arrays], [Tensor(b) for _, b in arrays],
                         hidden, output, arch.leaky_slope)
    return Model(arch=arch, init_seed=seed, **nets)


def init_model(arch: ArchConfig, seed: int, dtype=DEFAULT_DTYPE) -> Model:
    """Deterministic Xavier-uniform initialization, biases zero.

    The four big networks get ``dtype`` (float32 or float64), the
    estimator float64.  The values are drawn in float64 and rounded, so
    both dtypes start from the same draws.
    """
    rng = np.random.default_rng(seed)

    def layer(name, i, fan_in, fan_out):
        net_dtype = _network_dtype(name, dtype)
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return (rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(net_dtype),
                np.zeros(fan_out, dtype=net_dtype))

    return _build_model(arch, seed, layer)


def encode(model: Model, x: Tensor) -> Tensor:
    """Latent representation [batch x latent_dim] of flattened patches."""
    return model.encoder.forward(x)


def decode(model: Model, z: Tensor) -> Tensor:
    """Reconstruction [batch x input_dim]; tanh output scaled to the
    normalized-input range by one ``weighted_sum`` node, in the
    decoder's dtype."""
    return ad.weighted_sum([model.decoder.forward(z)], [model.arch.output_scale])


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
    """Parse a GMGC file into a model of the default dtype.  Raises
    FormatError on any structural problem, a config that fails
    ``ArchConfig.validate``, an array value that is not finite in the
    dtype it is loaded as (so a float32 network's value above float32's
    range too), a norm std that is not positive, or a mixture whose
    shapes do not match the arch's n_components and latent_dim."""
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
        stored = {}     # name -> read-only view into blob
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
            stored[name] = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(dims)
            off += 8 * n
    except (struct.error, ValueError, OverflowError) as err:
        raise FormatError(f"{path}: truncated or corrupt checkpoint") from err
    if off != len(blob):
        raise FormatError(f"{path}: trailing bytes after checkpoint payload")
    arrays = {}
    for name, view in stored.items():
        # The one copy: a value too large for float32 becomes inf here,
        # and the finiteness check below rejects it.
        with np.errstate(over="ignore"):
            arr = view.astype(_network_dtype(name.partition(".")[0], DEFAULT_DTYPE))
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: array {name!r} has values that are not finite as {arr.dtype}")
        arrays[name] = arr

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

    def layer(name, i, fan_in, fan_out):
        w, b = _array(path, arrays, f"{name}.w{i}"), _array(path, arrays, f"{name}.b{i}")
        if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
            raise FormatError(f"{path}: array shape mismatch for {name} layer {i}")
        return w, b

    model = _build_model(arch, seed, layer)

    stats = None
    if "norm.mean" in arrays:
        stats = NormStats(mean=arrays["norm.mean"], std=_array(path, arrays, "norm.std"))
        if not np.all(stats.std > 0.0):
            raise FormatError(f"{path}: norm.std has a value that is not positive")
    gmm = None
    if "gmm.alpha" in arrays:
        k, d = arch.n_components, arch.latent_dim
        expected = {"gmm.alpha": (k,), "gmm.mu": (k, d), "gmm.sigma": (k, d, d)}
        for name, shape in expected.items():
            if _array(path, arrays, name).shape != shape:
                raise FormatError(f"{path}: {name} has shape {arrays[name].shape}, the arch needs {shape}")
        gmm = GmmParams.from_arrays(*(arrays[name] for name in expected))
    return Checkpoint(model=model, norm_stats=stats, gmm=gmm)
