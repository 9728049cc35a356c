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
place.  A closure may therefore pass on the array it received (``add``
gives the same one to both operands) or a view (``mixture_moments``
gives ``gamma`` a transposed one), and no backward closure may write
into the cotangent it receives.
``backward`` copies a wanted gradient only when it is a view or already
handed out, so the arrays it returns never alias each other.

One dtype rule covers every op.  A ``Tensor`` keeps float32 input as
float32 and stores everything else as float64.  A Python scalar operand
takes its partner operand's dtype, so scaling a float32 tensor keeps it
float32.  An op on two tensors of different dtypes computes in float64
(numpy's promotion), and a node's cotangent is always cast to that
node's dtype, so the float32 side of such an op still gets a float32
gradient.  ``cast`` converts explicitly and is differentiable.  The
scalar reductions ``mean`` and ``tensor_sum`` accumulate in float64,
so every loss is a float64 scalar.

Shape discipline is strict: binary elementwise ops require equal shapes,
the only implicit broadcast is scalar-with-tensor.  Everything else is a
named structured op (``add_rowvec``, ``diag_part``, ...) whose shape
contract is part of its signature.  Every forward result is checked for
NaN/Inf and raises NumericError immediately, so a diverging computation
fails at the op that produced it rather than at the loss.
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
        if not np.all(np.isfinite(arr)):
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
        # cotangent is kept as given, and may be shared with another node
        # or be a view, so later ones are added out of place.  One in
        # another dtype is cast to this node's.
        if g.shape != self.data.shape:
            raise ShapeError(f"cotangent of shape {g.shape} for '{self._op}' of shape {self.shape}")
        if g.dtype != self.data.dtype:
            g = g.astype(self.data.dtype)
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

def _check_binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    # Equal shapes, or one side is a scalar (the only implicit broadcast).
    if a.shape != b.shape and a.ndim != 0 and b.ndim != 0:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Undo scalar broadcasting when accumulating into a scalar operand.
    if shape == ():
        return np.asarray(g.sum())
    return g


def _binary(a, b, fwd, da, db, name: str) -> Tensor:
    # A Python scalar takes its partner's dtype.
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    _check_binary_shapes(a, b, name)
    # Overflow/zero-division surface as NumericError via the finiteness
    # check in the constructor; numpy's own warning is redundant here.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = Tensor(fwd(a.data, b.data), _parents=(a, b), _op=name)

    def bwd(g: np.ndarray) -> None:
        if a._needed:
            a._accum_cot(_reduce_to(da(g, a.data, b.data), a.shape))
        if b._needed:
            b._accum_cot(_reduce_to(db(g, a.data, b.data), b.shape))

    out._backward_fn = bwd
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    return _binary(
        a, b,
        lambda x, y: x / y,
        lambda g, x, y: g / y,
        lambda g, x, y: -g * x / (y * y),
        "div",
    )


def _unary(a: Tensor, fwd, dfn, name: str) -> Tensor:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = Tensor(fwd(a.data), _parents=(a,), _op=name)
    y = out.data    # not ``out``: a closure holding its own node makes the graph a cycle

    def bwd(g: np.ndarray) -> None:
        if a._needed:
            a._accum_cot(dfn(g, a.data, y))

    out._backward_fn = bwd
    return out


def neg(a: Tensor) -> Tensor:
    return _unary(a, lambda x: -x, lambda g, x, y: -g, "neg")


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise NumericError("log of non-positive value")
    return _unary(a, np.log, lambda g, x, y: g / x, "log")


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    # Subgradient at 0 follows the negative branch (slope).
    return _unary(
        a,
        lambda x: np.where(x > 0.0, x, slope * x),
        lambda g, x, y: np.where(x > 0.0, g, slope * g),
        "leaky_relu",
    )


def tanh(a: Tensor) -> Tensor:
    return _unary(a, np.tanh, lambda g, x, y: g * (1.0 - y * y), "tanh")


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # Two-branch form: never exponentiates a large positive argument.
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid(a: Tensor) -> Tensor:
    return _unary(a, _sigmoid_values, lambda g, x, y: g * y * (1.0 - y), "sigmoid")


def absolute(a: Tensor) -> Tensor:
    # Subgradient of |x| at 0 is taken as 0.
    return _unary(a, np.abs, lambda g, x, y: g * np.sign(x), "abs")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    # Gradient passes only strictly inside the interval.
    return _unary(
        a,
        lambda x: np.clip(x, lo, hi),
        lambda g, x, y: g * ((x > lo) & (x < hi)),
        "clip",
    )


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
            a._accum_cot(g)

    out._backward_fn = bwd
    return out


# ---------------------------------------------------------------------------
# linear algebra and reductions
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product [m x k] @ [k x n]; backward dA = g Bᵀ, dB = Aᵀ g."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, _parents=(a, b), _op="matmul")

    def bwd(g: np.ndarray) -> None:
        if a._needed:
            a._accum_cot(g @ b.data.T)
        if b._needed:
            b._accum_cot(a.data.T @ g)

    out._backward_fn = bwd
    return out


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of every entry, accumulated in float64."""
    out = Tensor(a.data.sum(dtype=np.float64), _parents=(a,), _op="sum")

    def bwd(g: np.ndarray) -> None:
        if a._needed:
            a._accum_cot(np.full(a.shape, g, dtype=a.data.dtype))

    out._backward_fn = bwd
    return out


def mean(a: Tensor) -> Tensor:
    """Mean of every entry, accumulated in float64."""
    n = a.data.size
    out = Tensor(a.data.mean(dtype=np.float64), _parents=(a,), _op="mean")

    def bwd(g: np.ndarray) -> None:
        if a._needed:
            a._accum_cot(np.full(a.shape, g / n, dtype=a.data.dtype))

    out._backward_fn = bwd
    return out


def sum_axis(a: Tensor, axis: int) -> Tensor:
    if not (0 <= axis < a.ndim):
        raise ShapeError(f"sum_axis: axis {axis} out of range for shape {a.shape}")
    out = Tensor(a.data.sum(axis=axis), _parents=(a,), _op="sum_axis")

    def bwd(g: np.ndarray) -> None:
        if a._needed:
            a._accum_cot(np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())

    out._backward_fn = bwd
    return out


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a vector [d] to every row of a matrix [n x d]."""
    if x.ndim != 2 or v.ndim != 1 or x.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowvec: incompatible shapes {x.shape} and {v.shape}")
    out = Tensor(x.data + v.data[None, :], _parents=(x, v), _op="add_rowvec")

    def bwd(g: np.ndarray) -> None:
        if x._needed:
            x._accum_cot(g)
        if v._needed:
            v._accum_cot(g.sum(axis=0))

    out._backward_fn = bwd
    return out


def diag_part(a: Tensor) -> Tensor:
    """Diagonals of a square matrix [d x d] or of a stack [K x d x d],
    as [d] or [K x d]."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"diag_part expects square matrices, got {a.shape}")
    idx = np.arange(a.shape[-1])
    out = Tensor(a.data[..., idx, idx], _parents=(a,), _op="diag_part")

    def bwd(g: np.ndarray) -> None:
        if a._needed:
            full = np.zeros_like(a.data)
            full[..., idx, idx] = g
            a._accum_cot(full)

    out._backward_fn = bwd
    return out


# ---------------------------------------------------------------------------
# Gaussian-mixture ops, batched over components
# ---------------------------------------------------------------------------

_LOG_TWO_PI = float(np.log(2.0 * np.pi))


def mixture_moments(z: Tensor, gamma: Tensor, eps: float, degenerate_mass: float) -> tuple[Tensor, Tensor]:
    """Membership-weighted means [K x d] and covariances [K x d x d].

    For component k with mass s_k = Σ_i γ_ik:

        mean_k = Σ_i γ_ik z_i / s_k
        cov_k  = sym(Σ_i γ_ik (z_i - mean_k)(z_i - mean_k)ᵀ / s_k) + eps·I

    A component with s_k < degenerate_mass gets the batch mean and
    eps·I, and passes no gradient to gamma.  The covariance backward has
    no term through the mean, because Σ_i γ_ik (z_i - mean_k) = 0.
    """
    if z.ndim != 2 or gamma.ndim != 2 or z.shape[0] != gamma.shape[0]:
        raise ShapeError(f"mixture_moments: incompatible shapes {z.shape} and {gamma.shape}")
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

    means = Tensor(mean_values, _parents=(z, gamma), _op="mixture_means")
    covs = Tensor(cov_values, _parents=(z, gamma), _op="mixture_covariances")

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

    means._backward_fn = means_bwd
    covs._backward_fn = covs_bwd
    return means, covs


def gaussian_log_densities(z: Tensor, means: Tensor, covs: Tensor) -> Tensor:
    """log N(z_i; mean_k, cov_k) for samples [n x d] and components
    ([K x d], [K x d x d]), as [n x K].

    Each covariance is read as (C + Cᵀ)/2 and factorised once.  With
    r_ik = cov_k⁻¹ (z_i - mean_k), the covariance gradient is
    ½ Σ_i g_ik (r_ik r_ikᵀ - cov_k⁻¹), exact for every entry of C.
    """
    if (z.ndim != 2 or means.ndim != 2 or covs.ndim != 3 or z.shape[1] != means.shape[1]
            or covs.shape != (means.shape[0], means.shape[1], means.shape[1])):
        raise ShapeError(
            f"gaussian_log_densities: incompatible shapes {z.shape}, {means.shape}, {covs.shape}"
        )
    d = z.shape[1]
    try:
        chol = np.linalg.cholesky((covs.data + covs.data.transpose(0, 2, 1)) / 2.0)
    except np.linalg.LinAlgError as err:
        raise NumericError("gaussian_log_densities: covariance is not positive definite") from err
    centered = z.data[None, :, :] - means.data[:, None, :]   # [K x n x d]
    solved = np.linalg.solve(chol, centered.transpose(0, 2, 1))  # L⁻¹ (z_i - mean_k), [K x d x n]
    quad = (solved * solved).sum(axis=1)
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    out = Tensor((-0.5 * (quad + logdet[:, None] + d * _LOG_TWO_PI)).T,
                 _parents=(z, means, covs), _op="gaussian_log_densities")

    def bwd(g: np.ndarray) -> None:
        chol_t = chol.transpose(0, 2, 1)
        r = np.linalg.solve(chol_t, solved).transpose(0, 2, 1)  # [K x n x d]
        gr = g.T[:, :, None] * r
        if z._needed:
            z._accum_cot(-gr.sum(axis=0))
        if means._needed:
            means._accum_cot(gr.sum(axis=1))
        if covs._needed:
            eye = np.broadcast_to(np.eye(d), chol.shape)
            inv = np.linalg.solve(chol_t, np.linalg.solve(chol, eye))
            covs._accum_cot(0.5 * (gr.transpose(0, 2, 1) @ r - g.sum(axis=0)[:, None, None] * inv))

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


def logsumexp_rows(x: Tensor) -> Tensor:
    """Row-wise log-sum-exp of [n x K] as a vector [n]; backward is softmax."""
    if x.ndim != 2:
        raise ShapeError(f"logsumexp_rows expects a matrix, got shape {x.shape}")
    m = x.data.max(axis=1, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=1, keepdims=True)
    out = Tensor((m + np.log(s)).reshape(-1), _parents=(x,), _op="logsumexp_rows")

    def bwd(g: np.ndarray) -> None:
        if x._needed:
            x._accum_cot(g[:, None] * (e / s))

    out._backward_fn = bwd
    return out


def l2_norm_rows(x: Tensor) -> Tensor:
    """Euclidean norm of each row of [n x d]; subgradient 0 at zero rows."""
    if x.ndim != 2:
        raise ShapeError(f"l2_norm_rows expects a matrix, got shape {x.shape}")
    r = np.sqrt((x.data * x.data).sum(axis=1))
    out = Tensor(r, _parents=(x,), _op="l2_norm_rows")

    def bwd(g: np.ndarray) -> None:
        if x._needed:
            safe = np.where(r > 0.0, r, 1.0)
            x._accum_cot(np.where(r[:, None] > 0.0, g[:, None] * x.data / safe[:, None], 0.0))

    out._backward_fn = bwd
    return out


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Mean over the batch of the per-sample sum of absolute differences."""
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"l1_distance: expected two [n x d] batches, got {a.shape} and {b.shape}")
    return mean(sum_axis(absolute(sub(a, b)), 1))


def l2_distance(a: Tensor, b: Tensor) -> Tensor:
    """Mean over the batch of the per-sample Euclidean distance."""
    if a.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"l2_distance: expected two [n x d] batches, got {a.shape} and {b.shape}")
    return mean(l2_norm_rows(sub(a, b)))


# ---------------------------------------------------------------------------
# numeric differentiation (used by the verify command and the test suite)
# ---------------------------------------------------------------------------

def numeric_gradient(f: Callable[[], Tensor], wrt: Tensor, h: float = 1e-5) -> np.ndarray:
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
        flat[i] = keep + h
        hi = f().item()
        flat[i] = keep - h
        lo = f().item()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * h)
    return g


def gradient_check(f: Callable[[], Tensor], wrt: Tensor, h: float = 1e-5) -> float:
    """Max relative error |analytic - numeric| / max(1, |analytic|)."""
    analytic = backward(f(), [wrt])[0]
    numeric = numeric_gradient(f, wrt, h=h)
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))
