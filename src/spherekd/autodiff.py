"""Dense float64 tensors with reverse-mode automatic differentiation.

Design notes:
  * Data layout for feature maps is channels-last, (batch, h, w, c) row-major,
    which turns the 1x1 convolution into a plain matrix product per position.
  * Everything is float64. The toolkit runs at desk scale where exact
    finite-difference gradient checks matter more than speed.
  * The computation graph is implicit: each Tensor records its parents and a
    backward closure. `backward()` on a scalar walks the graph once in reverse
    topological order; accumulation order is fixed by construction order, so
    gradients are bitwise reproducible.
  * Inside `no_grad()` no graph is recorded, whatever the parameters'
    `requires_grad`: eval passes over a frozen or rebuilt network keep no
    closures and no saved activations alive.
  * The hot unit of the networks is three ops, each one graph node: the 3x3
    conv is one im2col matrix product per pass over the taps that read real
    pixels, and batch norm has its closed-form backward.

Only the operations defined here form the differentiable surface; network
layers and losses are compositions of them.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError

EPS_NORM = 1e-12

_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph inside the block: every op output is a constant leaf.

    Values are exactly those of a recording pass; only the parents and
    backward closures are dropped, so eval passes hold no saved arrays. The
    flag is process-wide: it also holds in other threads while the block runs.
    """
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


class Tensor:
    """N-d float64 array with optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- basic protocol ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        """Same values, severed from the graph (no gradient flows through)."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction helpers ----------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    # -- elementwise arithmetic (with numpy broadcasting) --------------------

    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(g):
            _accumulate(self, _unbroadcast(g, self.data.shape))
            _accumulate(other, _unbroadcast(g, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data - other.data

        def backward(g):
            _accumulate(self, _unbroadcast(g, self.data.shape))
            _accumulate(other, _unbroadcast(-g, other.data.shape))

        return self._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(g):
            _accumulate(self, _unbroadcast(g * other.data, self.data.shape))
            _accumulate(other, _unbroadcast(g * self.data, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(g):
            _accumulate(self, _unbroadcast(g / other.data, self.data.shape))
            _accumulate(other, _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape))

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(g):
            _accumulate(self, -g)

        return self._make(out_data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        p = float(exponent)
        out_data = self.data**p

        def backward(g):
            _accumulate(self, g * p * self.data ** (p - 1.0))

        return self._make(out_data, (self,), backward)

    # -- reductions and shape ------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            _accumulate(self, _spread(g, self.data.shape, axis, keepdims))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.mean(axis=axis, keepdims=keepdims)
        count = self.data.size / out_data.size

        def backward(g):
            _accumulate(self, _spread(g, self.data.shape, axis, keepdims) / count)

        return self._make(out_data, (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(g):
            _accumulate(self, g.reshape(self.data.shape))

        return self._make(out_data, (self,), backward)

    # -- graph execution -----------------------------------------------------

    def backward(self) -> None:
        """Populate grads of every requires_grad tensor reachable from this scalar."""
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            return
        self.grad = np.ones_like(self.data)
        for node in reversed(topo_order(self)):
            if node._backward is not None:
                node._backward(node.grad)


def topo_order(root: Tensor) -> list[Tensor]:
    """Parents-first ordering of the graph below `root`; each node once."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, inverting numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _spread(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduction gradient back to the input shape."""
    if axis is None:
        return np.broadcast_to(g, shape).astype(np.float64, copy=True)
    if not keepdims:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % len(shape) for a in axes)
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape).astype(np.float64, copy=True)


# -- linear algebra ----------------------------------------------------------


def transpose(x: Tensor) -> Tensor:
    """Swap the two axes of a matrix."""
    x = Tensor._lift(x)
    if x.ndim != 2:
        raise DimensionError(f"transpose expects a 2-d tensor, got {x.shape}")
    out_data = x.data.T.copy()

    def backward(g):
        _accumulate(x, g.T)

    return x._make(out_data, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [m,k] and b [k,p]."""
    a, b = Tensor._lift(a), Tensor._lift(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return a._make(out_data, (a, b), backward)


# -- convolutions ------------------------------------------------------------


def conv2d_1x1(x: Tensor, weight: Tensor) -> Tensor:
    """Per-position channel mixing: x [..., h, w, c_in] @ weight [c_in, c_out].

    Spatial dimensions pass through unchanged; works on batched or single maps.
    """
    x, weight = Tensor._lift(x), Tensor._lift(weight)
    if weight.ndim != 2:
        raise DimensionError(f"1x1 conv weight must be [c_in, c_out], got {weight.shape}")
    if x.ndim < 2 or x.shape[-1] != weight.shape[0]:
        raise DimensionError(
            f"1x1 conv channel mismatch: input {x.shape} vs weight {weight.shape}"
        )
    c_in, c_out = weight.shape

    def backward(g):
        _accumulate(x, np.matmul(g, weight.data.T))
        _accumulate(weight, x.data.reshape(-1, c_in).T @ g.reshape(-1, c_out))

    return x._make(np.matmul(x.data, weight.data), (x, weight), backward)


def _live_taps(size: int, size_out: int) -> slice:
    """Kernel taps along one axis whose windows read at least one real pixel.

    With padding 1, tap 0 reads position o*stride - 1, which is real for
    o = 1 whenever there are two outputs; tap 2 reads o*stride + 1, real for
    o = 0 whenever the input has two positions; the centre tap always reads
    real pixels. The remaining taps only ever multiply padding zeros.
    """
    return slice(0 if size_out >= 2 else 1, 3 if size >= 2 else 2)


def conv2d_3x3(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 1) -> Tensor:
    """3x3 convolution, channels-last, padding fixed to 1, stride 1 or 2.

    Output spatial dims are ceil(h/stride) x ceil(w/stride). Implemented as
    im2col: the windows of the live taps (see `_live_taps`: all nine while
    the input side is at least 2 and there are two outputs, four for a
    stride-2 step from 2x2 to 1x1, only the centre at 1x1) are gathered into
    one column matrix by a single copy, so each pass is one matrix product on
    BLAS, and backward scatters the column gradient back tap by tap (col2im).
    The column matrix stays in the graph node only when the weight needs its
    gradient.
    """
    if stride not in (1, 2):
        raise ConfigError(f"conv2d_3x3 supports stride 1 or 2, got {stride}")
    if padding != 1:
        raise ConfigError(f"conv2d_3x3 supports padding 1 only, got {padding}")
    x, weight = Tensor._lift(x), Tensor._lift(weight)
    if weight.ndim != 4 or weight.shape[:2] != (3, 3):
        raise DimensionError(f"3x3 conv weight must be [3,3,c_in,c_out], got {weight.shape}")
    squeeze = x.ndim == 3
    x4 = x.reshape((1,) + x.shape) if squeeze else x
    if x4.ndim != 4 or x4.shape[-1] != weight.shape[2]:
        raise DimensionError(
            f"3x3 conv channel mismatch: input {x.shape} vs weight {weight.shape}"
        )

    batch, h, w, c_in = x4.shape
    c_out = weight.shape[3]
    h_out = (h - 1) // stride + 1
    w_out = (w - 1) // stride + 1
    ti, tj = _live_taps(h, h_out), _live_taps(w, w_out)
    taps_i, taps_j = ti.stop - ti.start, tj.stop - tj.start
    xpad = np.zeros((batch, h + 2, w + 2, c_in))
    xpad[:, 1 : h + 1, 1 : w + 1, :] = x4.data
    # [batch, h, w, c_in, 3, 3] view -> live taps at the output positions,
    # laid out [batch, h_out, w_out, tap_i, tap_j, c_in] to match the weight
    windows = np.lib.stride_tricks.sliding_window_view(xpad, (3, 3), axis=(1, 2))
    windows = windows[:, ::stride, ::stride, :, ti, tj].transpose(0, 1, 2, 4, 5, 3)
    columns = windows.reshape(batch * h_out * w_out, taps_i * taps_j * c_in)
    wmat = weight.data[ti, tj].reshape(-1, c_out)
    out_data = (columns @ wmat).reshape(batch, h_out, w_out, c_out)
    saved = columns if weight.requires_grad else None

    def backward(g):
        gflat = g.reshape(-1, c_out)
        if weight.requires_grad:
            gw = np.zeros_like(weight.data)
            gw[ti, tj] = (saved.T @ gflat).reshape(taps_i, taps_j, c_in, c_out)
            _accumulate(weight, gw)
        if x4.requires_grad:
            # col2im: scatter each live tap's column gradient back to its window
            gcols = (gflat @ wmat.T).reshape(batch, h_out, w_out, taps_i, taps_j, c_in)
            gpad = np.zeros((batch, h + 2, w + 2, c_in))
            for a in range(taps_i):
                rows = slice(ti.start + a, ti.start + a + (h_out - 1) * stride + 1, stride)
                for b in range(taps_j):
                    cols = slice(tj.start + b, tj.start + b + (w_out - 1) * stride + 1, stride)
                    gpad[:, rows, cols, :] += gcols[:, :, :, a, b, :]
            _accumulate(x4, gpad[:, 1 : h + 1, 1 : w + 1, :])

    out = x4._make(out_data, (x4, weight), backward)
    return out.reshape(out.shape[1:]) if squeeze else out


# -- normalization -------------------------------------------------------------


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    eps: float,
    running: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Per-channel (last axis) normalization, then scale by gamma, shift by beta.

    With `running` None the statistics are the batch mean and biased variance
    over every non-channel axis, and the gradient flows through them in the
    closed form of Ioffe & Szegedy (2015). With `running` = (mean, var) those
    fixed estimates normalize, which makes the op affine in x. Returns the
    output and the (mean, var) that normalized it.
    """
    x, gamma, beta = Tensor._lift(x), Tensor._lift(gamma), Tensor._lift(beta)
    channels = x.shape[-1]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise DimensionError(
            f"batch norm scale {gamma.shape} / shift {beta.shape} do not match "
            f"channels of {x.shape}"
        )
    axes = tuple(range(x.ndim - 1))
    count = x.data.size // channels

    if running is not None:
        mean, var = running
        std = np.sqrt(var + eps)
        scale = gamma.data / std
        out_data = x.data * scale
        out_data += beta.data - mean * scale

        def backward(g):
            g2 = g.reshape(-1, channels)
            _accumulate(x, g * scale)
            if gamma.requires_grad:
                xhat = (x.data.reshape(-1, channels) - mean) / std
                _accumulate(gamma, (g2 * xhat).sum(axis=0))
            if beta.requires_grad:
                _accumulate(beta, g2.sum(axis=0))

        return x._make(out_data, (x, gamma, beta), backward), mean, var

    mean = x.data.mean(axis=axes)
    centered = x.data - mean
    var = (centered * centered).mean(axis=axes)
    std = np.sqrt(var + eps)
    xhat = centered / std
    out_data = xhat * gamma.data + beta.data

    def backward(g):
        g2, xhat2 = g.reshape(-1, channels), xhat.reshape(-1, channels)
        gbeta = g2.sum(axis=0)
        ggamma = (g2 * xhat2).sum(axis=0)
        if x.requires_grad:
            gx = (g - gbeta / count - xhat * (ggamma / count)) * (gamma.data / std)
            _accumulate(x, gx)
        _accumulate(gamma, ggamma)
        _accumulate(beta, gbeta)

    return x._make(out_data, (x, gamma, beta), backward), mean, var


# -- nonlinearities ----------------------------------------------------------


def prelu(x: Tensor, slope: Tensor) -> Tensor:
    """Leaky-linear unit with learnable per-channel negative slope (last axis)."""
    x, slope = Tensor._lift(x), Tensor._lift(slope)
    if slope.ndim != 1 or x.shape[-1] != slope.shape[0]:
        raise DimensionError(f"prelu slope {slope.shape} does not match channels of {x.shape}")
    neg = np.minimum(x.data, 0.0)
    out_data = np.maximum(x.data, 0.0) + slope.data * neg

    def backward(g):
        _accumulate(x, g * np.where(x.data > 0.0, 1.0, slope.data))
        if slope.requires_grad:
            _accumulate(slope, _unbroadcast(g * neg, slope.data.shape))

    return x._make(out_data, (x, slope), backward)


# -- hypersphere primitives ----------------------------------------------------


def l2_normalize(x: Tensor, eps: float = EPS_NORM) -> Tensor:
    """Scale rows (last axis) to unit Euclidean norm, guarding zeros with eps."""
    x = Tensor._lift(x)
    norm = np.linalg.norm(x.data, axis=-1, keepdims=True)
    denom = np.maximum(norm, eps)
    out_data = x.data / denom

    def backward(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        guarded = g / denom - np.where(norm >= eps, out_data * inner / denom, 0.0)
        _accumulate(x, guarded)

    return x._make(out_data, (x,), backward)


def _clip_passthrough(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values; the gradient ignores the clip (passes through unchanged)."""
    out_data = np.clip(x.data, lo, hi)

    def backward(g):
        _accumulate(x, g)

    return x._make(out_data, (x,), backward)


def cosine(a: Tensor, b: Tensor, eps: float = EPS_NORM) -> Tensor:
    """Cosine of the angle between vectors (or between rows of matrices).

    Result is clamped into [-1, 1]; the clamp is gradient-transparent.
    """
    a, b = Tensor._lift(a), Tensor._lift(b)
    if a.shape != b.shape:
        raise DimensionError(f"cosine operands must match, got {a.shape} and {b.shape}")
    dot = (l2_normalize(a, eps) * l2_normalize(b, eps)).sum(axis=-1)
    return _clip_passthrough(dot, -1.0, 1.0)


# -- classification loss -------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Negative log-softmax of the true class, computed with max subtraction.

    For 1-d logits and an integer label the result is a scalar; for a
    [batch, classes] matrix and an index vector it is the per-sample vector.
    """
    logits = Tensor._lift(logits)
    single = logits.ndim == 1
    mat = logits.data[None, :] if single else logits.data
    if logits.ndim not in (1, 2):
        raise DimensionError(f"logits must be 1-d or 2-d, got {logits.shape}")
    idx = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if idx.shape[0] != mat.shape[0]:
        raise DimensionError(f"{mat.shape[0]} rows of logits but {idx.shape[0]} labels")
    n_classes = mat.shape[1]
    if np.any(idx < 0) or np.any(idx >= n_classes):
        raise IndexError(f"label out of range [0, {n_classes})")

    shifted = mat - mat.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    losses = log_z - shifted[np.arange(mat.shape[0]), idx]
    out_data = losses[0] if single else losses

    def backward(g):
        softmax = np.exp(shifted)
        softmax /= softmax.sum(axis=1, keepdims=True)
        softmax[np.arange(mat.shape[0]), idx] -= 1.0
        grad = softmax * np.atleast_1d(g)[:, None]
        _accumulate(logits, grad[0] if single else grad)

    return logits._make(np.asarray(out_data), (logits,), backward)


# -- validation ----------------------------------------------------------------


def check_finite(t: Tensor, context: str = "tensor") -> Tensor:
    """Raise NumericError if `t` holds NaN or infinity; otherwise return it."""
    if not np.isfinite(t.data).all():
        raise NumericError(f"non-finite values in {context}")
    return t
