"""Dense float64 tensors with a minimal reverse-mode autodiff core.

Values are immutable once created; an operation records its parents and
a vector-Jacobian closure, and ``backward`` replays the record in reverse
topological order.  Gradients accumulate additively, so shared
subexpressions are handled correctly.  Only what the layers in this
package need is implemented: no broadcasting beyond bias addition, no
views, float64 everywhere.
"""
from __future__ import annotations

from contextvars import ContextVar

import numpy as np

from .errors import ShapeError

# Per thread (and per asyncio task): one thread evaluating under
# ``no_grad`` leaves another thread's graph recording on.
_GRAD_ENABLED = ContextVar("hxnn_grad_enabled", default=True)


class no_grad:
    """Context manager that suspends graph recording (evaluation mode)
    in the current thread."""

    def __enter__(self):
        self._token = _GRAD_ENABLED.set(False)
        return self

    def __exit__(self, *exc):
        _GRAD_ENABLED.reset(self._token)
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self) -> float:
        return float(self.data)


def _node(data, parents, vjp):
    """Create a result tensor, recording the op only if gradients flow."""
    out = Tensor(data)
    if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def backward(loss: Tensor):
    """Accumulate gradients of a scalar ``loss`` into every reachable
    tensor that requires grad.  Leaves that do not participate keep
    ``grad is None`` (semantically zero)."""
    if loss.data.shape != ():
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")

    order, seen = [], set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))

    grads = {id(loss): np.ones(())}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        node.grad = g if node.grad is None else node.grad + g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            if pg.shape != parent.data.shape:
                raise ShapeError(
                    f"gradient shape {pg.shape} != value shape {parent.data.shape}"
                )
            key = id(parent)
            grads[key] = pg if key not in grads else grads[key] + pg
        node._vjp = None
        node._parents = ()


# -----------------------------------------------------------------------------
# elementwise and structural ops


def _same_shape(a, b, opname):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{opname}: shapes {a.data.shape} and {b.data.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _node(a.data + b.data, (a, b), lambda g: (g, g))


def neg(a: Tensor) -> Tensor:
    return _node(-a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    return _node(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, alpha: float) -> Tensor:
    return _node(alpha * a.data, (a,), lambda g: (alpha * g,))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-C vector along axis 1 of a 2-d or 4-d tensor."""
    if b.data.ndim != 1 or x.data.ndim not in (2, 4) or x.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"bias_add: shapes {x.data.shape} and {b.data.shape}")
    if x.data.ndim == 2:
        out = x.data + b.data[None, :]
        reduce_axes = (0,)
    else:
        out = x.data + b.data[None, :, None, None]
        reduce_axes = (0, 2, 3)
    return _node(out, (x, b), lambda g: (g, g.sum(axis=reduce_axes)))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.data.shape}")
    return _node(a.data.T.copy(), (a,), lambda g: (g.T.copy(),))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    out = np.swapaxes(a.data, ax1, ax2).copy()
    return _node(out, (a,), lambda g: (np.swapaxes(g, ax1, ax2).copy(),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(a.data.shape)) != int(np.prod(shape)):
        raise ShapeError(f"reshape: cannot view {a.data.shape} as {shape}")
    old = a.data.shape
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    ref = list(tensors[0].data.shape)
    for t in tensors[1:]:
        s = list(t.data.shape)
        s[axis] = ref[axis]
        if s != ref:
            raise ShapeError(
                f"concat: shape {t.data.shape} incompatible with {tensors[0].data.shape}"
            )
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(piece.copy() for piece in np.split(g, splits, axis=axis))

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    if not (0 <= start and 0 <= length and start + length <= a.data.shape[axis]):
        raise ShapeError(
            f"narrow: [{start}:{start + length}] out of range on axis {axis} "
            f"of shape {a.data.shape}"
        )
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _node(a.data[idx].copy(), (a,), vjp)


def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        axes = tuple(range(a.data.ndim))
    elif isinstance(axis, int):
        axes = (axis,)
    else:
        axes = tuple(axis)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _node(out, (a,), vjp)


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return scale(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


# -----------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices, or of two stacks of them."""
    ad, bd = a.data, b.data
    if (ad.ndim not in (2, 3) or bd.ndim != ad.ndim
            or ad.shape[:-2] != bd.shape[:-2] or ad.shape[-1] != bd.shape[-2]):
        raise ShapeError(f"matmul: shapes {ad.shape} and {bd.shape}")
    return _node(ad @ bd, (a, b),
                 lambda g: (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g))


def kron(a: Tensor, b: Tensor) -> Tensor:
    """Kronecker product of two matrices."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"kron expects matrices, got {a.data.shape}, {b.data.shape}")
    (ra, ca), (rb, cb) = a.data.shape, b.data.shape

    def vjp(g):
        g4 = g.reshape(ra, rb, ca, cb)
        ga = np.einsum("ipjq,pq->ij", g4, b.data)
        gb = np.einsum("ipjq,ij->pq", g4, a.data)
        return ga, gb

    return _node(np.kron(a.data, b.data), (a, b), vjp)


def blockwise_kron2d(a: Tensor, f: Tensor) -> Tensor:
    """Kronecker expansion of a grid matrix over the channel blocks of a
    conv filter bank: (n, n) x (o, i, k, k) -> (n*o, n*i, k, k)."""
    if a.data.ndim != 2 or f.data.ndim != 4:
        raise ShapeError(
            f"blockwise_kron2d: shapes {a.data.shape} and {f.data.shape}"
        )
    n, n2 = a.data.shape
    o, i, kh, kw = f.data.shape
    out = np.einsum("rc,pqxy->rpcqxy", a.data, f.data).reshape(n * o, n2 * i, kh, kw)

    def vjp(g):
        g6 = g.reshape(n, o, n2, i, kh, kw)
        ga = np.einsum("rpcqxy,pqxy->rc", g6, f.data)
        gf = np.einsum("rpcqxy,rc->pqxy", g6, a.data)
        return ga, gf

    return _node(out, (a, f), vjp)


def kron_sum(a_list, f_list) -> Tensor:
    """Kronecker sum W = sum_i A_i (x) F_i of n grid matrices A_i (n, n)
    and n blocks F_i, either (p, q) -> (n*p, n*q) or conv filter banks
    (p, q, kh, kw) -> (n*p, n*q, kh, kw), expanded over the channel axes.

    One GEMM with inner dimension n builds every block cell at once:
    cell (r, c) of W is sum_i A_i[r, c] F_i.  The vector-Jacobian product
    is one GEMM for the F_i, plus one for the A_i only when one of them
    requires grad (constant algebra grids never do).
    """
    a_list, f_list = tuple(a_list), tuple(f_list)
    n = len(a_list)
    block = f_list[0].data.shape if f_list else ()
    if (n == 0 or len(f_list) != n or len(block) not in (2, 4)
            or any(t.data.shape != (n, n) for t in a_list)
            or any(t.data.shape != block for t in f_list)):
        raise ShapeError(
            f"kron_sum: grids {[t.data.shape for t in a_list]} "
            f"and blocks {[t.data.shape for t in f_list]}"
        )
    p, q, *k = block
    a2 = np.stack([t.data for t in a_list]).reshape(n, n * n)  # [i, (r, c)]
    f2 = np.stack([t.data for t in f_list]).reshape(n, -1)     # [i, (p, q, k...)]
    cells = (n, n, p, q, *k)
    perm = (0, 2, 1, 3, *range(4, len(cells)))  # (r, c, p, q) <-> (r, p, c, q)
    out = (a2.T @ f2).reshape(cells).transpose(perm).reshape(n * p, n * q, *k)
    learn_a = any(t.requires_grad for t in a_list)

    def vjp(g):
        g2 = g.reshape(n, p, n, q, *k).transpose(perm).reshape(n * n, -1)
        # Written as G'^T A^T, BLAS accumulates the n*n cells of each block
        # in row-major order (blocks of one entry excepted, which take its
        # vector path), so an algebra-bound layer's block gradients equal,
        # bit for bit, the sum of its +-G cells taken one by one.
        gf = (g2.T @ a2.T).T.reshape(n, *block)
        ga = (f2 @ g2.T).reshape(n, n, n) if learn_a else (None,) * n
        return (*ga, *gf)

    return _node(out, a_list + f_list, vjp)


# -----------------------------------------------------------------------------
# convolution


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of an NCHW input with an OIkk filter bank,
    with symmetric zero padding.

    The forward unfolds the input into per-sample (C*k*k, L) columns
    (im2col, L = output pixels) and multiplies each by the (O, C*k*k)
    filter matrix.  In the vector-Jacobian product the filter gradient is
    one GEMM per sample, summed over the batch.  The input gradient, one
    GEMM into columns folded back tap by tap (col2im), is computed only
    if the input requires grad; a constant input (the images fed to a
    network's first conv) gets ``None``.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: shapes {x.data.shape} and {w.data.shape}")
    n, c, h, wd = x.data.shape
    o, ci, kh, kw = w.data.shape
    if c != ci:
        raise ShapeError(
            f"conv2d: input channels {c} != filter input channels {ci}"
        )
    if stride < 1 or padding < 0:
        raise ValueError(f"conv2d: bad stride {stride} or padding {padding}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"conv2d: kernel {(kh, kw)} too large for padded input {(hp, wp)}"
        )
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, ho, wo))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    cols2 = cols.reshape(n, c * kh * kw, ho * wo)
    wf = w.data.reshape(o, c * kh * kw)
    out = (wf @ cols2).reshape(n, o, ho, wo)

    def vjp(g):
        g2 = g.reshape(n, o, ho * wo)
        gw = (g2 @ cols2.transpose(0, 2, 1)).sum(axis=0).reshape(o, c, kh, kw)
        if not x.requires_grad:
            return None, gw
        gcols = (wf.T @ g2).reshape(n, c, kh, kw, ho, wo)
        gxp = np.zeros((n, c, hp, wp))
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[:, :, i, j]
        return gxp[:, :, padding : padding + h, padding : padding + wd].copy(), gw

    return _node(out, (x, w), vjp)


def avg_pool2d(x: Tensor, window: int) -> Tensor:
    """Non-overlapping window mean over the spatial axes of an NCHW tensor.

    One node.  The forward adds the window taps with strided adds in the
    order numpy's ``sum(axis=(3, 5))`` over the (N, C, H/k, k, W/k, k)
    view reduces them: each window row in turn, onto +0.0.  So the result
    is the same to the bit, and a one-column output, whose windows numpy
    sums as one contiguous run, takes that reduction itself.  The
    vector-Jacobian product spreads ``g`` times 1/k**2 over each window.
    """
    n, c, h, w = x.data.shape
    if h % window or w % window:
        raise ShapeError(f"avg_pool2d: window {window} does not tile {(h, w)}")
    ho, wo = h // window, w // window
    xr = x.data.reshape(n, c, ho, window, wo, window)
    if wo == 1:
        total = xr.sum(axis=(3, 5))
    else:
        total = np.zeros((n, c, ho, wo))
        for i in range(window):
            row = xr[:, :, :, i, :, 0].copy()
            for j in range(1, window):
                row += xr[:, :, :, i, :, j]
            total += row
    alpha = 1.0 / (window * window)
    total *= alpha

    def vjp(g):
        return (np.repeat(np.repeat(alpha * g, window, axis=3), window, axis=2),)

    return _node(total, (x,), vjp)


# -----------------------------------------------------------------------------
# nonlinearities


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient 0 at the kink
    return _node(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        y = np.where(a.data >= 0, 1.0 / (1.0 + np.exp(-a.data)),
                     np.exp(a.data) / (1.0 + np.exp(a.data)))
    return _node(y, (a,), lambda g: (g * y * (1.0 - y),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _node(y, (a,), vjp)


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return _node(y, (a,), lambda g: (g * y,))


def log(a: Tensor) -> Tensor:
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


# -----------------------------------------------------------------------------
# gradient checking


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between the analytic gradient of the scalar
    function ``f`` at ``x`` and central finite differences."""
    if not x.requires_grad:
        raise ValueError("grad_check needs a tensor with requires_grad=True")
    x.grad = None
    out = f(x)
    backward(out)
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)

    numeric = np.zeros_like(x.data)
    with no_grad():
        for idx in np.ndindex(x.data.shape):
            orig = x.data[idx]
            x.data[idx] = orig + eps
            hi = float(f(x).data)
            x.data[idx] = orig - eps
            lo = float(f(x).data)
            x.data[idx] = orig
            numeric[idx] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
