"""Dense float64 tensors with reverse-mode automatic differentiation.

Design notes:
  * Data layout for feature maps is channels-last, (batch, h, w, c) row-major,
    which turns the 1x1 convolution into a plain matrix product per position.
  * Everything is float64. The toolkit runs at desk scale where exact
    finite-difference gradient checks matter more than speed.
  * The computation graph is implicit: each Tensor records its parents and a
    backward closure. `backward()` on a scalar walks the graph once in reverse
    topological order; accumulation order is fixed by construction order, so
    gradients are bitwise reproducible. The walk frees each node's closure,
    parents and gradient once it has run, so a graph serves one backward.
  * An op records a graph node exactly when an input requires a gradient.
    A frozen network holds only constants, so its pass over a constant
    input records nothing and keeps no closures or saved activations alive.
  * A training unit of the networks is three ops, each one graph node: the
    3x3 conv is one im2col matrix product per pass over the taps that read
    real pixels, and batch norm, which normalizes with batch statistics, has
    its closed-form backward. A unit of a network that no longer changes is
    one op, `conv_unit`, with eval-mode batch norm folded into the conv:
    that is the only eval-mode batch norm.
  * Ops, network layers and losses take Tensors; only the arithmetic
    operators (+, -, *) lift an array or number operand to a constant.
    The 3x3 conv takes batched maps [batch, h, w, c] and softmax
    cross-entropy [batch, classes] logits with an index vector; a single
    map or a 1-d row of logits raises DimensionError. `Tensor` has the
    arithmetic the losses use (+, -, *, scalar powers), `sum` and `mean`
    over axes, and `reshape(*shape)`.

Only the operations defined here form the differentiable surface; network
layers and losses are compositions of them.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError

EPS_NORM = 1e-12


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

    # -- graph construction helpers ----------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
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

    def __pow__(self, exponent: float) -> "Tensor":
        p = float(exponent)
        out_data = self.data**p

        def backward(g):
            _accumulate(self, g * p * self.data ** (p - 1.0))

        return self._make(out_data, (self,), backward)

    # -- reductions and shape ------------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        out_data = self.data.sum(axis=axis)

        def backward(g):
            _accumulate(self, _spread(g, self.data.shape, axis))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None) -> "Tensor":
        out_data = self.data.mean(axis=axis)
        count = self.data.size / out_data.size

        def backward(g):
            _accumulate(self, _spread(g, self.data.shape, axis) / count)

        return self._make(out_data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(shape)

        def backward(g):
            _accumulate(self, g.reshape(self.data.shape))

        return self._make(out_data, (self,), backward)

    # -- graph execution -----------------------------------------------------

    def backward(self) -> None:
        """Populate grads of every requires_grad leaf reachable from this scalar.

        The graph is single-use. As soon as an interior node's backward has
        run, the node drops its closure (and the arrays it saved), its parents
        and its gradient, so a step's activations die while backward walks
        down. Leaves keep their gradients. Walking a used graph again, from
        this root or from another one that shares a node with it, raises
        ContractError.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            return
        self.grad = np.ones_like(self.data)
        order = topo_order(self)
        while order:
            node = order.pop()  # the list no longer keeps a visited node alive
            if node._backward is not None:
                node._backward(node.grad)
                node._backward, node._parents, node.grad = _used, (), None


def _used(g) -> None:
    """The backward of a node whose graph backward() has already walked."""
    raise ContractError("backward through a graph that backward() already used; build it again")


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


def _spread(g: np.ndarray, shape: tuple[int, ...], axis) -> np.ndarray:
    """Broadcast the gradient of a reduction over `axis` back to the input shape."""
    if axis is not None:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        g = np.expand_dims(g, tuple(a % len(shape) for a in axes))
    return np.broadcast_to(g, shape).astype(np.float64, copy=True)


# -- linear algebra ----------------------------------------------------------


def transpose(x: Tensor) -> Tensor:
    """Swap the two axes of a matrix."""
    if x.ndim != 2:
        raise DimensionError(f"transpose expects a 2-d tensor, got {x.shape}")
    out_data = x.data.T.copy()

    def backward(g):
        _accumulate(x, g.T)

    return x._make(out_data, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [m,k] and b [k,p]."""
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


def _window_plan(h: int, w: int, stride: int) -> tuple[int, int, slice, slice]:
    """Output sides and live taps (see `_live_taps`) of a padding-1 3x3 conv over h x w."""
    h_out, w_out = (h - 1) // stride + 1, (w - 1) // stride + 1
    return h_out, w_out, _live_taps(h, h_out), _live_taps(w, w_out)


def _columns(x: np.ndarray, stride: int) -> np.ndarray:
    """im2col of a padding-1 3x3 conv over x [batch, h, w, c_in].

    One row per output position, laid out [tap_i, tap_j, c_in] over the live
    taps to match `tap_matrix`: a strided view of the padded input, copied once.
    """
    batch, h, w, c_in = x.shape
    h_out, w_out, ti, tj = _window_plan(h, w, stride)
    xpad = np.zeros((batch, h + 2, w + 2, c_in))
    xpad[:, 1 : h + 1, 1 : w + 1, :] = x
    sb, sh, sw, sc = xpad.strides
    windows = np.lib.stride_tricks.as_strided(
        xpad[:, ti.start :, tj.start :],
        (batch, h_out, w_out, ti.stop - ti.start, tj.stop - tj.start, c_in),
        (sb, stride * sh, stride * sw, sh, sw, sc),
    )
    return windows.reshape(batch * h_out * w_out, -1)


def _col2im(gcols: np.ndarray, shape: tuple[int, ...], stride: int) -> np.ndarray:
    """Input gradient of `_columns`: each live tap's column gradient added back to its window."""
    batch, h, w, c_in = shape
    h_out, w_out, ti, tj = _window_plan(h, w, stride)
    taps_i, taps_j = ti.stop - ti.start, tj.stop - tj.start
    gcols = gcols.reshape(batch, h_out, w_out, taps_i, taps_j, c_in)
    gpad = np.zeros((batch, h + 2, w + 2, c_in))
    for a in range(taps_i):
        rows = slice(ti.start + a, ti.start + a + (h_out - 1) * stride + 1, stride)
        for b in range(taps_j):
            cols = slice(tj.start + b, tj.start + b + (w_out - 1) * stride + 1, stride)
            gpad[:, rows, cols, :] += gcols[:, :, :, a, b, :]
    return gpad[:, 1 : h + 1, 1 : w + 1, :]


def tap_matrix(weight: np.ndarray, h: int, w: int, stride: int) -> np.ndarray:
    """The live taps of a [3,3,c_in,c_out] weight over an h x w input, as [taps*c_in, c_out]."""
    _, _, ti, tj = _window_plan(h, w, stride)
    return weight[ti, tj].reshape(-1, weight.shape[3])


def conv2d_3x3(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 1) -> Tensor:
    """3x3 convolution of x [batch, h, w, c_in], channels-last, padding fixed to 1, stride 1 or 2.

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
    if weight.ndim != 4 or weight.shape[:2] != (3, 3):
        raise DimensionError(f"3x3 conv weight must be [3,3,c_in,c_out], got {weight.shape}")
    if x.ndim != 4 or x.shape[-1] != weight.shape[2]:
        raise DimensionError(
            f"3x3 conv expects input [B,h,w,{weight.shape[2]}], got {x.shape}"
        )

    batch, h, w, _ = x.shape
    c_out = weight.shape[3]
    h_out, w_out, ti, tj = _window_plan(h, w, stride)
    columns = _columns(x.data, stride)
    wmat = tap_matrix(weight.data, h, w, stride)
    out_data = (columns @ wmat).reshape(batch, h_out, w_out, c_out)
    saved = columns if weight.requires_grad else None

    def backward(g):
        gflat = g.reshape(-1, c_out)
        if weight.requires_grad:
            gw = np.zeros_like(weight.data)
            gw[ti, tj] = (saved.T @ gflat).reshape(gw[ti, tj].shape)
            _accumulate(weight, gw)
        if x.requires_grad:
            _accumulate(x, _col2im(gflat @ wmat.T, x.shape, stride))

    return x._make(out_data, (x, weight), backward)


def conv_unit(
    x: Tensor, wmat: np.ndarray, shift: np.ndarray, slope: np.ndarray, stride: int
) -> Tensor:
    """A conv unit of a network that no longer changes, as one op.

    The padding-1 3x3 conv of x [batch, h, w, c_in] by the live-tap weight
    matrix `wmat` (see `tap_matrix`, with eval-mode batch norm's scale folded
    in), plus the per-channel `shift`, then PReLU with per-channel `slope` as
    max(y, 0) + slope * min(y, 0). `wmat`, `shift` and `slope` are constants:
    backward returns only the input gradient.
    """
    if x.ndim != 4:
        raise DimensionError(f"conv unit expects input [B,h,w,c], got {x.shape}")
    batch, h, w, c_in = x.shape
    h_out, w_out, ti, tj = _window_plan(h, w, stride)
    if wmat.shape[0] != (ti.stop - ti.start) * (tj.stop - tj.start) * c_in:
        raise DimensionError(f"conv unit weight matrix {wmat.shape} does not match input {x.shape}")
    c_out = wmat.shape[1]
    y = _columns(x.data, stride) @ wmat
    y += shift
    neg = np.minimum(y, 0.0)
    neg *= slope
    out = np.maximum(y, 0.0)
    out += neg

    def backward(g):
        gy = g.reshape(-1, c_out) * np.where(y > 0.0, 1.0, slope)
        _accumulate(x, _col2im(gy @ wmat.T, x.shape, stride))

    return x._make(out.reshape(batch, h_out, w_out, c_out), (x,), backward)


# -- normalization -------------------------------------------------------------


def batch_norm(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Per-channel (last axis) normalization, then scale by gamma, shift by beta.

    The statistics are the batch mean and biased variance over every
    non-channel axis, and the gradient flows through them in the closed form
    of Ioffe & Szegedy (2015). Returns the output and the (mean, var) that
    normalized it. Eval mode, which normalizes with running estimates, exists
    only folded into `conv_unit`.
    """
    channels = x.shape[-1]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise DimensionError(
            f"batch norm scale {gamma.shape} / shift {beta.shape} do not match "
            f"channels of {x.shape}"
        )
    axes = tuple(range(x.ndim - 1))
    count = x.data.size // channels

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


def l2_normalize(x: Tensor) -> Tensor:
    """Scale rows (last axis) to unit Euclidean norm, guarding zeros with EPS_NORM."""
    norm = np.linalg.norm(x.data, axis=-1, keepdims=True)
    denom = np.maximum(norm, EPS_NORM)
    out_data = x.data / denom

    def backward(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        guarded = g / denom - np.where(norm >= EPS_NORM, out_data * inner / denom, 0.0)
        _accumulate(x, guarded)

    return x._make(out_data, (x,), backward)


def _clip_passthrough(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values; the gradient ignores the clip (passes through unchanged)."""
    out_data = np.clip(x.data, lo, hi)

    def backward(g):
        _accumulate(x, g)

    return x._make(out_data, (x,), backward)


def cosine(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of the angle between vectors (or between rows of matrices).

    Result is clamped into [-1, 1]; the clamp is gradient-transparent.
    """
    if a.shape != b.shape:
        raise DimensionError(f"cosine operands must match, got {a.shape} and {b.shape}")
    dot = (l2_normalize(a) * l2_normalize(b)).sum(axis=-1)
    return _clip_passthrough(dot, -1.0, 1.0)


# -- classification loss -------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Per-sample negative log-softmax of the true class, computed with max subtraction.

    `logits` is a [batch, classes] matrix and `labels` an index vector of
    length batch; the result is the vector of the batch's losses.
    """
    if logits.ndim != 2:
        raise DimensionError(f"logits must be [batch, classes], got {logits.shape}")
    idx = np.asarray(labels, dtype=np.int64)
    if idx.shape != logits.shape[:1]:
        raise DimensionError(f"{logits.shape[0]} rows of logits but labels of shape {idx.shape}")
    rows, n_classes = logits.shape
    if np.any(idx < 0) or np.any(idx >= n_classes):
        raise IndexError(f"label out of range [0, {n_classes})")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    losses = log_z - shifted[np.arange(rows), idx]

    def backward(g):
        softmax = np.exp(shifted)
        softmax /= softmax.sum(axis=1, keepdims=True)
        softmax[np.arange(rows), idx] -= 1.0
        _accumulate(logits, softmax * g[:, None])

    return logits._make(losses, (logits,), backward)


# -- validation ----------------------------------------------------------------


def quiet_float_errors() -> np.errstate:
    """Numpy's error state, in the calling thread, for work that a finite check follows.

    Overflow, division by zero and invalid operations give inf or NaN without a warning.
    """
    return np.errstate(divide="ignore", over="ignore", invalid="ignore")


def check_finite(t: Tensor, context: str) -> Tensor:
    """Raise NumericError if `t` holds NaN or infinity; otherwise return it."""
    if not np.isfinite(t.data).all():
        raise NumericError(f"non-finite values in {context}")
    return t
