"""Dense float32 or float64 tensors with reverse-mode automatic
differentiation.

Define-by-run: each operation records its parent tensors and a closure
that maps the output cotangent onto its parents' cotangents.

Gradients are asked for, not stored: ``backward(loss, wrt)`` returns
d loss / d t for each tensor t in ``wrt``, as fresh arrays, and leaves
no state on any tensor.  One pass sorts the graph below the loss with
every input before its consumers and marks a node as needed when it is
in ``wrt`` or has a needed parent.  Only needed nodes receive
cotangents, so a part of the graph that does not depend on ``wrt`` (the
real-patch discriminator branch during the generator step, say) costs
no gradient work, and a parameter left out of ``wrt`` gets none either.

Cotangents are owned on first write: a node keeps the first cotangent
it receives as given, with no copy, and adds each later one out of
place.  A closure may therefore pass on a view (``mixture_moments``
gives ``gamma`` a broadcast one and a transposed one), and no backward
closure may write into the cotangent it receives.
``backward`` copies a wanted gradient only when it is a view or already
handed out, so the arrays it returns never alias each other.

One operand contract covers every op.  A ``Tensor`` keeps float32 input
as float32 and stores everything else as float64.  The tensor operands
of an op share one dtype, and an op raises ``ShapeError`` on a mix;
``cast`` is the only conversion, and it is differentiable.  An op
computes in its operands' dtype, and each cotangent has its node's
dtype: ``_accum_cot`` refuses one of another dtype, so only ``cast``'s
backward converts.  The batched mixture ops (``mixture_moments``,
``gaussian_log_densities``, ``mixture_energy``) take float64 operands
only.  A Python float is a constant, never an operand: a ``dense``
slope, a clamp, a ``weighted_sum`` weight.  Every op that reduces to a
scalar (``tensor_sum``, the distances, ``binary_cross_entropy`` and
``inverse_diagonal_sum``) accumulates in float64, so every loss, a
``weighted_sum`` of such scalars, is a float64 scalar.

Shapes are strict too: elementwise operands share one shape, and
nothing broadcasts implicitly.  Everything else is a named structured
op (``dense``, ``mixture_moments``, ``mixture_energy``, ...) whose shape
contract is part of its signature.  Every forward result is checked for
NaN/Inf and raises NumericError immediately, so a diverging computation
fails at the op that produced it rather than at the loss.

A network layer is one node, and so is each term of the training
objective.  ``dense`` computes act(x @ w + b) in the product's own
buffer, where a chain of matmul, bias and activation nodes would pay
Python's per-node cost three times (operator fusion, as in TVM, Chen et
al., arXiv 1802.04799).  In the same way ``l1_distance``,
``l2_distance``, ``binary_cross_entropy``, ``mixture_energy``,
``inverse_diagonal_sum`` and ``weighted_sum`` each replace a chain of
elementwise and reduction nodes.  Each takes the numpy steps of the
chain it replaced, so its values and cotangents are bitwise the chain's,
subgradients at kinks and clamps included.  The one exception is
``weighted_sum``'s value, which adds the terms left to right where the
chain added them in pairs.  ``mul`` and ``tensor_sum`` are left as
combinators: ``verify`` weighs each op's output with ``mul`` and sums it
to a scalar.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

_node_ids = itertools.count()


class Tensor:
    """A dense array plus its position in the current graph.

    The array is float32 when given float32 values and float64 otherwise
    (see the module docstring).

    ``_needed`` and ``_cot`` (the cotangent so far) are set and cleared
    within one ``backward`` call.
    """

    __slots__ = ("data", "node_id", "_parents", "_backward_fn", "_op", "_needed", "_cot")

    def __init__(self, data, *, _parents=(), _backward=None, _op="leaf"):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = np.asarray(arr, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError(f"non-finite values produced by '{_op}'")
        self.data = arr
        self.node_id = next(_node_ids)
        self._parents = _parents
        self._backward_fn = _backward
        self._op = _op
        self._needed = False
        self._cot: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def _accum_cot(self, g: np.ndarray) -> None:
        # Owned on first write (see the module docstring): the first
        # cotangent is kept as given, and may be a view, so later ones
        # are added out of place.
        if g.shape != self.data.shape or g.dtype != self.data.dtype:
            raise ShapeError(f"{g.dtype} cotangent {g.shape} for '{self._op}' {self.data.dtype} {self.shape}")
        self._cot = g if self._cot is None else self._cot + g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r}, id={self.node_id})"


def backward(loss: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
    """d loss / d t for each tensor t in ``wrt``; zeros for a t the
    scalar loss does not reach.

    Visits each node below the loss once, in reverse topological order.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    wanted = {t.node_id for t in wrt}

    # Post-order puts every parent before its consumers, so a node's
    # mark is computed from parent marks already set in this pass.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            node._needed = node.node_id in wanted or any(p._needed for p in node._parents)
            order.append(node)
            continue
        if node.node_id in seen:
            continue
        seen.add(node.node_id)
        stack.append((node, True))
        for p in node._parents:
            if p.node_id not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {}
    if loss._needed:
        loss._accum_cot(np.ones_like(loss.data))
    # Every consumer of a node comes before it here and has read its mark
    # already, so the mark is cleared when the node is reached.
    for node in reversed(order):
        g, node._cot = node._cot, None
        node._needed = False
        if g is None:
            continue
        if node.node_id in wanted:
            grads[node.node_id] = g
        if node._backward_fn is not None:
            node._backward_fn(g)
    # Cotangents are shared and viewed freely during the pass; what is
    # handed out is fresh and pairwise non-aliasing, because a caller
    # (the optimizer) writes into it.
    out: list[np.ndarray] = []
    handed_out: set[int] = set()
    for t in wrt:
        g = grads.get(t.node_id)
        if g is None:
            g = np.zeros_like(t.data)
        elif not isinstance(g, np.ndarray) or g.base is not None or id(g) in handed_out:
            g = np.array(g)     # also turns a 0-d cotangent (a numpy scalar) into an array
        handed_out.add(id(g))
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def _check_dtypes(op: str, *tensors: Tensor) -> None:
    # The operand contract: one dtype across an op's tensor operands.
    if len({t.data.dtype for t in tensors}) > 1:
        raise ShapeError(f"{op}: operands of dtypes {[str(t.data.dtype) for t in tensors]}, not one dtype")


def _check_float64(op: str, *tensors: Tensor) -> None:
    # The batched mixture ops' operands: float64 only, because their
    # eps·I, unit matrices and weight floor are float64 constants.
    if any(t.data.dtype != np.float64 for t in tensors):
        raise ShapeError(f"{op}: operands of dtypes {[str(t.data.dtype) for t in tensors]}, not all float64")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of one shape and dtype."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    _check_dtypes("mul", a, b)
    # The constructor reports an overflow as NumericError.
    with np.errstate(over="ignore"):
        out = Tensor(a.data * b.data, _parents=(a, b), _op="mul")

    def bwd(g: np.ndarray) -> None:
        if a._needed:
            a._accum_cot(g * b.data)
        if b._needed:
            b._accum_cot(g * a.data)

    out._backward_fn = bwd
    return out


def cast(a: Tensor, dtype) -> Tensor:
    """``a`` converted to ``dtype``; ``a`` itself when it has that dtype
    already.  The cotangent is cast back to ``a``'s dtype."""
    if a.data.dtype == dtype:
        return a
    # A value out of the target's range becomes inf, which the
    # constructor reports as a NumericError.
    with np.errstate(over="ignore"):
        out = Tensor(a.data.astype(dtype), _parents=(a,), _op="cast")

    def bwd(g: np.ndarray) -> None:
        if a._needed:
            a._accum_cot(g.astype(a.data.dtype))

    out._backward_fn = bwd
    return out


# ---------------------------------------------------------------------------
# linear algebra and reductions
# ---------------------------------------------------------------------------

def tensor_sum(a: Tensor) -> Tensor:
    """Sum of every entry, accumulated in float64."""
    out = Tensor(a.data.sum(dtype=np.float64), _parents=(a,), _op="sum")

    def bwd(g: np.ndarray) -> None:
        if a._needed:
            a._accum_cot(np.full(a.shape, g, dtype=a.data.dtype))

    out._backward_fn = bwd
    return out


# ---------------------------------------------------------------------------
# objective terms
# ---------------------------------------------------------------------------

def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """Σ_i weights[i] · terms[i] over tensors of one shape and dtype, as
    one node computed in that dtype.

    The weights are Python floats, constants rather than nodes, and must
    be finite in the terms' dtype.  The terms are added left to right.
    Term i gets the cotangent g · weights[i].
    """
    terms, weights = tuple(terms), tuple(float(w) for w in weights)
    if not terms or len(terms) != len(weights) or any(t.shape != terms[0].shape for t in terms):
        raise ShapeError(f"weighted_sum: {len(weights)} weights for terms of shapes {[t.shape for t in terms]}")
    _check_dtypes("weighted_sum", *terms)
    # A weight beyond the terms' range becomes inf here.
    with np.errstate(over="ignore"):
        if not np.isfinite(np.asarray(weights, terms[0].data.dtype)).all():
            raise NumericError(f"weighted_sum: weights {list(weights)} are not all finite as {terms[0].data.dtype}")
        value = terms[0].data * weights[0]
        for t, w in zip(terms[1:], weights[1:]):
            value = value + t.data * w
    out = Tensor(value, _parents=terms, _op="weighted_sum")

    def bwd(g: np.ndarray) -> None:
        for t, w in zip(terms, weights):
            if t._needed:
                t._accum_cot(g * w)

    out._backward_fn = bwd
    return out


def _check_batches(a: Tensor, b: Tensor, op: str) -> None:
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"{op}: expected two [n x d] batches, got {a.shape} and {b.shape}")
    _check_dtypes(op, a, b)


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Mean over the batch of the per-sample sum of absolute differences.

    Each row's sum is taken in the operands' dtype and the mean in
    float64.  With n rows, a gets the cotangent g · sign(a - b) / n and
    b its negative, so the subgradient where a and b agree is 0.
    """
    _check_batches(a, b, "l1_distance")
    diff = a.data - b.data
    out = Tensor(np.abs(diff).sum(axis=1).mean(dtype=np.float64), _parents=(a, b), _op="l1_distance")

    def bwd(g: np.ndarray) -> None:
        cot = np.sign(diff) * np.asarray(g / diff.shape[0], dtype=diff.dtype)
        if a._needed:
            a._accum_cot(cot)
        if b._needed:
            b._accum_cot(-cot)

    out._backward_fn = bwd
    return out


def l2_distance(a: Tensor, b: Tensor) -> Tensor:
    """Mean over the batch of the per-sample Euclidean distance.

    Each row's norm is taken in the operands' dtype and the mean in
    float64.  With n rows and r_i = |a_i - b_i|, a gets the cotangent
    g · (a_i - b_i) / (n r_i) and b its negative; a row with r_i = 0
    gets 0.
    """
    _check_batches(a, b, "l2_distance")
    diff = a.data - b.data
    r = np.sqrt((diff * diff).sum(axis=1))
    out = Tensor(r.mean(dtype=np.float64), _parents=(a, b), _op="l2_distance")

    def bwd(g: np.ndarray) -> None:
        safe = np.where(r > 0.0, r, 1.0)
        scaled = np.asarray(g / diff.shape[0], dtype=r.dtype) * diff / safe[:, None]
        cot = np.where(r[:, None] > 0.0, scaled, 0.0)
        if a._needed:
            a._accum_cot(cot)
        if b._needed:
            b._accum_cot(-cot)

    out._backward_fn = bwd
    return out


def binary_cross_entropy(p: Tensor, label: int, clamp: float) -> Tensor:
    """Mean over every entry of -log q, accumulated in float64, where q
    is p (label 1) or 1 - p (label 0) after p is clamped to
    [clamp, 1 - clamp] in its own dtype.

    The clamp keeps the loss finite for saturated probabilities.  Its
    subgradient is 0 outside the open interval (clamp, 1 - clamp), and
    at its ends too.
    """
    if label not in (0, 1):
        raise ValueError(f"binary_cross_entropy: label must be 0 or 1, got {label!r}")
    clamped = np.clip(p.data, clamp, 1.0 - clamp)
    q = clamped if label == 1 else 1.0 - clamped
    out = Tensor(-np.log(q).mean(dtype=np.float64), _parents=(p,), _op="binary_cross_entropy")

    def bwd(g: np.ndarray) -> None:
        if p._needed:
            cot = np.asarray(-g / q.size, dtype=q.dtype) / q
            if label == 0:
                cot = -cot
            p._accum_cot(cot * ((p.data > clamp) & (p.data < 1.0 - clamp)))

    out._backward_fn = bwd
    return out


# ---------------------------------------------------------------------------
# network layers
# ---------------------------------------------------------------------------

ACTIVATIONS = ("linear", "leaky_relu", "tanh", "sigmoid")


def _sigmoid_in_place(h: np.ndarray) -> None:
    # Two-branch form: never exponentiates a large positive argument.
    # exp(-|h|) is exp(-h) where h >= 0 and exp(h) elsewhere.
    pos = h >= 0.0
    e = np.exp(-np.abs(h))
    denom = 1.0 + e
    np.divide(1.0, denom, out=h, where=pos)
    np.divide(e, denom, out=h, where=~pos)


def _leaky_factor(mask: np.ndarray, slope: float, dtype) -> np.ndarray:
    # 1 where mask, slope elsewhere, as 0·slope + 1 and 1·slope + 0: a
    # product and a sum per element, where a masked multiply or np.where
    # branches on every one.
    f = (~mask).astype(dtype)
    f *= slope
    f += mask
    return f


def dense(x: Tensor, w: Tensor, b: Tensor, activation: str = "linear", slope: float = 0.2) -> Tensor:
    """One fully connected layer, act(x @ w + b), as one node: input
    [n x k], weights [k x m], bias [m], output [n x m].

    ``activation`` is one of ``ACTIVATIONS``; ``slope`` is leaky_relu's
    slope below zero, whose subgradient at 0 it also is.  The bias and
    the activation run in place in the product, in the operands' one
    dtype.  Backward: with gh the cotangent through the activation,
    dx = gh wᵀ, dw = xᵀ gh and db = Σ_rows gh.

    leaky_relu multiplies by a factor built branch-free from the sign
    mask, exactly 1 where the pre-activation is positive and the slope
    in the operands' dtype elsewhere, so its values and cotangents are
    bitwise a branchy select's for every slope finite in that dtype
    (but -0.0, which acts as +0.0).
    The node keeps the one-byte mask and rebuilds the factor in the
    backward: a kept factor would hold a second output-sized array for
    as long as the graph lives.
    """
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1 or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(f"dense: incompatible shapes {x.shape} @ {w.shape} + {b.shape}")
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    _check_dtypes("dense", x, w, b)
    mask = None
    with np.errstate(over="ignore", invalid="ignore"):
        h = x.data @ w.data
        h += b.data
        # tanh and sigmoid would turn an inf into a finite value.
        if activation in ("tanh", "sigmoid") and not np.isfinite(h).all():
            raise NumericError("non-finite values produced by 'dense' before its activation")
        if activation == "leaky_relu":
            mask = h > 0.0
            h *= _leaky_factor(mask, slope, h.dtype)
        elif activation == "tanh":
            np.tanh(h, out=h)
        elif activation == "sigmoid":
            _sigmoid_in_place(h)
    out = Tensor(h, _parents=(x, w, b), _op="dense")

    def bwd(g: np.ndarray) -> None:
        # h holds the activation's output; mask, the sign before it.
        if activation == "leaky_relu":
            g = g * _leaky_factor(mask, slope, g.dtype)
        elif activation == "tanh":
            g = g * (1.0 - h * h)
        elif activation == "sigmoid":
            g = g * h * (1.0 - h)
        if x._needed:
            x._accum_cot(g @ w.data.T)
        if w._needed:
            w._accum_cot(x.data.T @ g)
        if b._needed:
            b._accum_cot(g.sum(axis=0))

    out._backward_fn = bwd
    return out


# ---------------------------------------------------------------------------
# Gaussian-mixture ops, batched over components
# ---------------------------------------------------------------------------

_LOG_TWO_PI = float(np.log(2.0 * np.pi))
_WEIGHT_FLOOR = 1e-300


def mixture_moments(z: Tensor, gamma: Tensor, eps: float,
                    degenerate_mass: float) -> tuple[Tensor, Tensor, Tensor]:
    """Membership-weighted mixture weights [K], means [K x d] and
    covariances [K x d x d].

    For n samples and component k with mass s_k = Σ_i γ_ik:

        weight_k = s_k · (1 / n)
        mean_k   = Σ_i γ_ik z_i / s_k
        cov_k    = sym(Σ_i γ_ik (z_i - mean_k)(z_i - mean_k)ᵀ / s_k) + eps·I

    A component with s_k < degenerate_mass gets the batch mean and
    eps·I, and passes no gradient to gamma through them.  The covariance
    backward has no term through the mean, because
    Σ_i γ_ik (z_i - mean_k) = 0.
    """
    if z.ndim != 2 or gamma.ndim != 2 or z.shape[0] != gamma.shape[0]:
        raise ShapeError(f"mixture_moments: incompatible shapes {z.shape} and {gamma.shape}")
    _check_float64("mixture_moments", z, gamma)
    n, d = z.shape
    mass = gamma.data.sum(axis=0)
    dead = mass < degenerate_mass
    inv_mass = np.where(dead, 0.0, 1.0 / np.where(dead, 1.0, mass))
    w = gamma.data * inv_mass                                # [n x K], zero columns for dead components
    mean_values = w.T @ z.data
    mean_values[dead] = z.data.mean(axis=0)
    centered = z.data[None, :, :] - mean_values[:, None, :]  # [K x n x d]
    weighted = w.T[:, :, None] * centered
    scatter = weighted.transpose(0, 2, 1) @ centered
    cov_values = (scatter + scatter.transpose(0, 2, 1)) / 2.0 + eps * np.eye(d)

    weights = Tensor(mass * (1.0 / n), _parents=(gamma,), _op="mixture_weights")
    means = Tensor(mean_values, _parents=(z, gamma), _op="mixture_means")
    covs = Tensor(cov_values, _parents=(z, gamma), _op="mixture_covariances")

    def weights_bwd(g: np.ndarray) -> None:
        if gamma._needed:
            gamma._accum_cot(np.broadcast_to(g * (1.0 / n), gamma.shape))

    def means_bwd(g: np.ndarray) -> None:
        if z._needed:
            z._accum_cot(w @ g + g[dead].sum(axis=0) / n)
        if gamma._needed:
            gamma._accum_cot(np.einsum("kid,kd->ik", centered, g) * inv_mass)

    def covs_bwd(g: np.ndarray) -> None:
        g_sym = (g + g.transpose(0, 2, 1)) / 2.0
        projected = centered @ g_sym                          # [K x n x d]
        if z._needed:
            z._accum_cot(2.0 * (w.T[:, :, None] * projected).sum(axis=0))
        if gamma._needed:
            quad = (projected * centered).sum(axis=2)         # [K x n]
            inner = (g_sym * scatter).sum(axis=(1, 2))
            gamma._accum_cot(((quad - inner[:, None]) * inv_mass[:, None]).T)

    weights._backward_fn = weights_bwd
    means._backward_fn = means_bwd
    covs._backward_fn = covs_bwd
    return weights, means, covs


def gaussian_log_densities(z: Tensor, means: Tensor, covs: Tensor) -> Tensor:
    """log N(z_i; mean_k, cov_k) for samples [n x d] and components
    ([K x d], [K x d x d]), as [n x K].

    Each covariance is read as (C + Cᵀ)/2 and factorised once, C = LLᵀ.
    With r_ik = cov_k⁻¹ (z_i - mean_k), the covariance gradient is
    ½ Σ_i g_ik (r_ik r_ikᵀ - cov_k⁻¹), exact for every entry of C.  The
    node solves once, for L⁻¹ in the forward, and takes L⁻¹(z_i - mean_k)
    from it there; the backward takes cov⁻¹ = L⁻ᵀL⁻¹ and r from the same
    L⁻¹ by batched products.  One solve with d right-hand sides and a
    product beat a solve with n of them.
    """
    if (z.ndim != 2 or means.ndim != 2 or covs.ndim != 3 or z.shape[1] != means.shape[1]
            or covs.shape != (means.shape[0], means.shape[1], means.shape[1])):
        raise ShapeError(
            f"gaussian_log_densities: incompatible shapes {z.shape}, {means.shape}, {covs.shape}"
        )
    _check_float64("gaussian_log_densities", z, means, covs)
    d = z.shape[1]
    try:
        chol = np.linalg.cholesky((covs.data + covs.data.transpose(0, 2, 1)) / 2.0)
    except np.linalg.LinAlgError as err:
        raise NumericError("gaussian_log_densities: covariance is not positive definite") from err
    chol_inv = np.linalg.solve(chol, np.broadcast_to(np.eye(d), chol.shape))
    centered = z.data[None, :, :] - means.data[:, None, :]   # [K x n x d]
    solved = chol_inv @ centered.transpose(0, 2, 1)          # L⁻¹ (z_i - mean_k), [K x d x n]
    quad = (solved * solved).sum(axis=1)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    out = Tensor((-0.5 * (quad + logdet[:, None] + d * _LOG_TWO_PI)).T,
                 _parents=(z, means, covs), _op="gaussian_log_densities")

    def bwd(g: np.ndarray) -> None:
        chol_inv_t = chol_inv.transpose(0, 2, 1)
        r = (chol_inv_t @ solved).transpose(0, 2, 1)            # [K x n x d]
        gr = g.T[:, :, None] * r
        if z._needed:
            z._accum_cot(-gr.sum(axis=0))
        if means._needed:
            means._accum_cot(gr.sum(axis=1))
        if covs._needed:
            inv = chol_inv_t @ chol_inv_t.transpose(0, 2, 1)
            covs._accum_cot(0.5 * (gr.transpose(0, 2, 1) @ r - g.sum(axis=0)[:, None, None] * inv))

    out._backward_fn = bwd
    return out


def mixture_energy(log_densities: Tensor, weights: Tensor) -> Tensor:
    """Sample energy -log Σ_k weights_k exp(log_densities[i, k]) of each
    row of [n x K], as [n], by log-sum-exp.

    Each weight is floored at 1e-300 before its log is taken, so a zero
    weight drops its component without a log of 0, and it gets the
    subgradient 0.  With γ_ik the row's softmax of
    log_densities[i, k] + log weights_k, the log densities get -g_i γ_ik
    and weight k gets -Σ_i g_i γ_ik / weights_k.
    """
    if (log_densities.ndim != 2 or weights.ndim != 1
            or log_densities.shape[1] != weights.shape[0]):
        raise ShapeError(f"mixture_energy: incompatible shapes {log_densities.shape} and {weights.shape}")
    _check_float64("mixture_energy", log_densities, weights)
    floored = np.maximum(weights.data, _WEIGHT_FLOOR)
    x = log_densities.data + np.log(floored)[None, :]
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=1, keepdims=True)
    out = Tensor(-(m + np.log(s)).reshape(-1), _parents=(log_densities, weights), _op="mixture_energy")

    def bwd(g: np.ndarray) -> None:
        cot = (-g)[:, None] * (e / s)
        if log_densities._needed:
            log_densities._accum_cot(cot)
        if weights._needed:
            weights._accum_cot(cot.sum(axis=0) / floored * (weights.data > _WEIGHT_FLOOR))

    out._backward_fn = bwd
    return out


def inverse_diagonal_sum(covs: Tensor) -> Tensor:
    """Σ_k Σ_j 1 / covs[k, j, j] over a stack [K x d x d], in float64.

    Each diagonal entry gets the cotangent -g / covs[k, j, j]²; the
    entries off the diagonal get 0.
    """
    if covs.ndim != 3 or covs.shape[1] != covs.shape[2]:
        raise ShapeError(f"inverse_diagonal_sum expects a stack of square matrices, got {covs.shape}")
    idx = np.arange(covs.shape[-1])
    diag = covs.data[:, idx, idx]
    with np.errstate(divide="ignore"):
        inverse = 1.0 / diag
    out = Tensor(inverse.sum(dtype=np.float64), _parents=(covs,), _op="inverse_diagonal_sum")

    def bwd(g: np.ndarray) -> None:
        if covs._needed:
            full = np.zeros_like(covs.data)
            full[:, idx, idx] = -g / (diag * diag)
            covs._accum_cot(full)

    out._backward_fn = bwd
    return out


# ---------------------------------------------------------------------------
# row-structured nonlinearities
# ---------------------------------------------------------------------------

def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of [n x K], stabilized by row-max subtraction."""
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows expects a matrix, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y, _parents=(x,), _op="softmax_rows")

    def bwd(g: np.ndarray) -> None:
        if x._needed:
            dot = (g * y).sum(axis=1, keepdims=True)
            x._accum_cot(y * (g - dot))

    out._backward_fn = bwd
    return out


# ---------------------------------------------------------------------------
# numeric differentiation (used by the verify command and the test suite)
# ---------------------------------------------------------------------------

_FD_STEP = 1e-5     # central-difference step


def numeric_gradient(f: Callable[[], Tensor], wrt: Tensor) -> np.ndarray:
    """Central finite differences of a scalar-valued closure w.r.t. one tensor.

    ``f`` must rebuild its graph from the current leaf values on every
    call; entries of ``wrt.data`` are perturbed in place.
    """
    base = wrt.data
    g = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + _FD_STEP
        hi = f().item()
        flat[i] = keep - _FD_STEP
        lo = f().item()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * _FD_STEP)
    return g


def gradient_check(f: Callable[[], Tensor], wrt: Tensor) -> float:
    """Max relative error |analytic - numeric| / max(1, |analytic|)."""
    analytic = backward(f(), [wrt])[0]
    numeric = numeric_gradient(f, wrt)
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))
