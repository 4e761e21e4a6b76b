"""Dense float64 tensors with a minimal reverse-mode autodiff core.

Values are immutable once created; an operation records its parents and
a vector-Jacobian closure, and ``backward`` replays the record in reverse
topological order.  Gradients accumulate additively, so shared
subexpressions are handled correctly.  ``backward`` frees the graph it
walks; walking it again raises ``GraphFreed``.  Only what the layers in
this package need is implemented: no broadcasting beyond bias addition,
no views, float64 everywhere.

Every recorded node costs a Python closure, a slot in the topological
sort and a dictionary entry, which on small layers outweighs the
arithmetic.  So the chains every training step records are fused into
one node each: ``kron_linear`` (act(x W^T + b) with W = kron_sum(a, f),
every Kronecker FC and graph layer), ``bias_act`` (act(x + b) after a
conv), ``mean`` (a scaled sum) and, in ``training``, the MSE and
log-softmax-NLL losses.
Each fused node performs the same numpy operations as the chain it
replaces, in the same order, so its value and gradients are the same to
the bit.  An activation may overwrite the array it is given, so each
fused node hands it a fresh pre-activation, never an input's data: relu
writes its output once, into that array.
"""
from __future__ import annotations

from contextvars import ContextVar

import numpy as np

from .errors import ConfigError, GraphFreed, ShapeError

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
    """Create a result tensor, recording the op only if gradients flow.
    The loss nodes in ``training`` are made here too."""
    out = Tensor(data)
    if _GRAD_ENABLED.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


_FREED = object()  # the vjp slot of a node that ``backward`` has freed


def backward(loss: Tensor):
    """Accumulate gradients of a scalar ``loss`` into every reachable
    tensor that requires grad.  Leaves that do not participate keep
    ``grad is None`` (semantically zero).

    Each op node is freed once its gradient has passed to its parents.
    Reaching a freed node, from the same loss or a new one built on it,
    raises ``GraphFreed`` before any gradient changes: the tensors behind
    it would otherwise keep stale gradients.  A leaf may be the root of
    any number of calls."""
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
        if node._vjp is _FREED:
            raise GraphFreed("backward reached a graph that an earlier backward freed")
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
        node._vjp = _FREED
        node._parents = ()


# -----------------------------------------------------------------------------
# elementwise and structural ops


def _same_shape(a, b, opname):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{opname}: shapes {a.data.shape} and {b.data.shape} differ")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    return _node(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, alpha: float) -> Tensor:
    return _node(alpha * a.data, (a,), lambda g: (alpha * g,))


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


def _axes(a: Tensor, axis):
    if axis is None:
        return tuple(range(a.data.ndim))
    return (axis,) if isinstance(axis, int) else tuple(axis)


def sum_(a: Tensor, axis=None) -> Tensor:
    axes = _axes(a, axis)
    return _node(a.data.sum(axis=axes), (a,),
                 lambda g: (np.broadcast_to(np.expand_dims(g, axes), a.data.shape).copy(),))


def mean(a: Tensor, axis=None) -> Tensor:
    """One node, the same numpy ops in the same order as
    ``scale(sum_(a, axis), 1 / count)``, count the entries summed into
    each output."""
    axes = _axes(a, axis)
    if 0 in (a.data.shape[ax] for ax in axes):
        raise ShapeError(f"mean: axes {axes} of shape {a.data.shape} hold no entries")
    alpha = 1.0 / int(np.prod([a.data.shape[ax] for ax in axes]))
    return _node(alpha * a.data.sum(axis=axes), (a,),
                 lambda g: (np.broadcast_to(np.expand_dims(alpha * g, axes), a.data.shape).copy(),))


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


def _kron_cells(a, f):
    """The block cells of W = sum_i a[i] (x) f[i], from one GEMM with
    inner dimension n: row (r, c) of the (n*n, p*q*k...) result is
    cell (r, c) of W, sum_i A_i[r, c] F_i.  Also returns the grid and
    block matrices the GEMM ran on, which the vjp reuses."""
    n = f.data.shape[0] if f.data.ndim in (3, 5) else 0
    if n == 0 or a.data.shape != (n, n, n):
        raise ShapeError(f"kron_sum: grids {a.data.shape} and blocks {f.data.shape}")
    a2 = a.data.reshape(n, n * n)
    f2 = f.data.reshape(n, -1)  # [i, (p, q, k...)]
    return a2.T @ f2, a2, f2


def _kron_cell_grads(learn_a, f, a2, f2, g2):
    """The gradients of ``a`` (only when ``learn_a``) and ``f`` from g2,
    the gradient of the cells as one contiguous (n*n, p*q*k...) array."""
    # Written as G'^T A^T, BLAS accumulates the n*n cells of each block
    # in row-major order (blocks of one entry excepted, which take its
    # vector path), so an algebra-bound layer's block gradients equal,
    # bit for bit, the sum of its +-G cells taken one by one.
    gf = (g2.T @ a2.T).T.reshape(f.data.shape)
    n = len(a2)
    return ((f2 @ g2.T).reshape(n, n, n), gf) if learn_a else (gf,)


def kron_sum(a, f) -> Tensor:
    """Kronecker sum W = sum_i A_i (x) F_i of the n grid matrices
    A_i = a[i] of one (n, n, n) tensor ``a`` and the n blocks F_i = f[i]
    of one (n, *block) tensor ``f``, either (p, q) -> (n*p, n*q) or conv
    filter banks (p, q, kh, kw) -> (n*p, n*q, kh, kw), expanded over the
    channel axes.

    One GEMM with inner dimension n builds every block cell at once:
    cell (r, c) of W is sum_i A_i[r, c] F_i.  The vector-Jacobian product
    is one GEMM for ``f``, plus one for ``a`` only when ``a`` requires
    grad (constant algebra grids never do); only then is ``a`` a parent
    of the node, which otherwise has ``f`` alone.
    """
    cells2, a2, f2 = _kron_cells(a, f)
    n, p, q, *k = f.data.shape
    cells = (n, n, p, q, *k)
    perm = (0, 2, 1, 3, *range(4, len(cells)))  # (r, c, p, q) <-> (r, p, c, q)
    out = cells2.reshape(cells).transpose(perm).reshape(n * p, n * q, *k)
    learn_a = a.requires_grad

    def vjp(g):
        g2 = g.reshape(n, p, n, q, *k).transpose(perm).reshape(n * n, -1)
        return _kron_cell_grads(learn_a, f, a2, f2, g2)

    return _node(out, (a, f) if learn_a else (f,), vjp)


# -----------------------------------------------------------------------------
# convolution


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of an NCHW input with an OIkk filter bank,
    with symmetric zero padding.

    The forward reshapes a strided window view of the zero-padded input
    into per-sample (C*kh*kw, L) columns (im2col, L = output pixels) and
    multiplies each by the (O, C*kh*kw) filter matrix; the filter
    gradient is one GEMM per sample, summed over the batch.  The input
    gradient (``None`` for a constant input, such as a network's images)
    lays ``g`` channel-major onto a grid of hs x ws cells per sample, one
    cell per stride x stride phase block of the padded input, with the
    batch in the columns.  Tap (i, j) is one GEMM and one contiguous
    shifted add into phase (i % s, j % s): each input element sums
    im2col's products in its tap order, plus exact zeros.  The grid is
    the smallest that keeps those sums:
    ``hs = max(ho + max((kh - 1) // s - p // s, 0), ceil((p + h) / s))``,
    and ``ws`` alike.  The first term makes every tap read for a kept
    pixel land in its own sample's rows of ``g`` or in a zero row; its
    inner max keeps ``ho`` rows when the padding exceeds kh - 1.  The
    second keeps the crop of the padding inside each cell.  One spare
    zero cell follows the last sample: BLAS computes a GEMM's last
    columns another way, so they must fall where no kept pixel is.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: shapes {x.data.shape} and {w.data.shape}")
    n, c, h, wd = x.data.shape
    o, ci, kh, kw = w.data.shape
    if c != ci:
        raise ShapeError(f"conv2d: input channels {c} != filter input channels {ci}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d: bad stride {stride} or padding {padding}")
    hp, wp = h + 2 * padding, wd + 2 * padding
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"conv2d: kernel {(kh, kw)} too large for padded input {(hp, wp)}")
    xp = np.zeros((n, c, hp, wp))
    xp[:, :, padding : padding + h, padding : padding + wd] = x.data
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (n, c, kh, kw, ho, wo), (sn, sc, sh, sw, sh * stride, sw * stride), writeable=False)
    # a view of xp for a 1x1 kernel at stride 1, else a copy; a reshape that views
    # overlapping windows is copied too, as matmul would sum it in another order
    cols2 = np.ascontiguousarray(windows.reshape(n, c * kh * kw, ho * wo))
    wf = w.data.reshape(o, c * kh * kw)
    out = (wf @ cols2).reshape(n, o, ho, wo)

    def vjp(g):
        g2 = g.reshape(n, o, ho * wo)
        gw = (g2 @ cols2.transpose(0, 2, 1)).sum(axis=0).reshape(o, c, kh, kw)
        if not x.requires_grad:
            return None, gw
        hs = max(ho + max((kh - 1) // stride - padding // stride, 0), -(-(padding + h) // stride))
        ws = max(wo + max((kw - 1) // stride - padding // stride, 0), -(-(padding + wd) // stride))
        size = (n + 1) * hs * ws  # the last cell is a spare, all zeros
        gp = np.zeros((o, size))
        gp.reshape(o, n + 1, hs, ws)[:, :n, :ho, :wo] = g.transpose(1, 0, 2, 3)
        taps = w.data.transpose(2, 3, 0, 1).copy()  # (o, c) blocks used transposed, as wf.T was: same bits
        phases = np.zeros((stride, stride, c, size))
        for i, j in np.ndindex(kh, kw):
            off = i // stride * ws + j // stride  # gp's last off columns hold no output pixel
            phases[i % stride, j % stride, :, off:] += taps[i, j].T @ gp[:, : size - off]
        grid = phases[..., : n * hs * ws].reshape(stride, stride, c, n, hs, ws).transpose(3, 2, 4, 0, 5, 1)
        grid = grid.reshape(n, c, stride * hs, stride * ws)
        return grid[:, :, padding : padding + h, padding : padding + wd].copy(), gw

    return _node(out, (x, w), vjp)


def avg_pool2d(x: Tensor, window: int) -> Tensor:
    """Non-overlapping window mean over the spatial axes of an NCHW tensor.

    One node.  The forward adds the taps in the order numpy's ``sum(axis=
    (3, 5))`` over the (N, C, H/k, k, W/k, k) view does, so the result is
    the same to the bit: every row's k taps in one pass over the (N, C, H,
    W/k, k) view, then each window's k rows onto +0.0.  A one-column
    output, whose windows numpy sums as one contiguous run, takes that
    reduction itself.  The vjp spreads ``g`` times 1/k**2 over each window.
    """
    n, c, h, w = x.data.shape
    if h % window or w % window:
        raise ShapeError(f"avg_pool2d: window {window} does not tile {(h, w)}")
    ho, wo = h // window, w // window
    if wo == 1:
        total = x.data.reshape(n, c, ho, window, wo, window).sum(axis=(3, 5))
    else:
        xr = x.data.reshape(n, c, h, wo, window)
        rows = np.add(xr[..., 0], xr[..., 1]) if window > 1 else xr[..., 0]
        for j in range(2, window):
            rows += xr[..., j]
        rows = rows.reshape(n, c, ho, window, wo)
        total = np.zeros((n, c, ho, wo))
        for i in range(window):
            total += rows[:, :, :, i]
    alpha = 1.0 / (window * window)
    total *= alpha

    def vjp(g):
        return (np.repeat(np.repeat(alpha * g, window, axis=3), window, axis=2),)

    return _node(total, (x,), vjp)


# -----------------------------------------------------------------------------
# nonlinearities
#
# Each activation maps an array to its value and to the function that
# carries a gradient back through it; ``bias_act`` and ``kron_linear`` apply
# them.  An activation may overwrite the array it is given (relu does),
# so callers pass a fresh array that nothing else holds.


def _relu(y):
    mask = y > 0  # subgradient 0 at the kink
    y *= mask
    return y, lambda g: g * mask


def _sigmoid(y):
    with np.errstate(over="ignore"):
        s = np.where(y >= 0, 1.0 / (1.0 + np.exp(-y)), np.exp(y) / (1.0 + np.exp(y)))
    return s, lambda g: g * s * (1.0 - s)


def _identity(y):
    return y, lambda g: g


ACTIVATIONS = {"relu": _relu, "sigmoid": _sigmoid, "none": _identity}


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _node(y, (a,), vjp)


# -----------------------------------------------------------------------------
# fused nodes: one node, and one vjp, for a chain every training step records


def _biased(y, b):
    """``y`` plus the length-C bias ``b`` along axis 1 of a 2-d or 4-d
    ``y``, and the axes the bias gradient sums over (``y`` itself and
    None when ``b`` is None)."""
    if b is None:
        return y, None
    if b.data.ndim != 1 or y.ndim not in (2, 4) or y.shape[1] != b.data.shape[0]:
        raise ShapeError(f"bias: shapes {y.shape} and {b.data.shape}")
    if y.ndim == 2:
        return y + b.data[None, :], (0,)
    return y + b.data[None, :, None, None], (0, 2, 3)


def kron_linear(x: Tensor, a: Tensor, f: Tensor, b: Tensor | None, activation: str) -> Tensor:
    """act(x W^T + b) with W = kron_sum(a, f) of shape (n*p, n*q), from
    (n, n, n) grids ``a`` and (n, p, q) blocks ``f``, for x of shape
    (batch, n*q) or (batch, tokens, n*q), tokens folded into the batch:
    the value and gradients of the kron_sum, transpose, matmul, bias and
    activation chain in one node, bit for bit.

    The forward lays the cells of ``_kron_cells`` straight out as a
    contiguous W^T.  The vjp computes g (W^T)^T only if x requires grad,
    and rearranges x^T g, the gradient of W^T, into one contiguous array
    of cells, which ``kron_sum``'s cell GEMMs turn into the gradient of
    ``f``, and of ``a`` only when ``a`` requires grad (only then is it a
    parent).  Both rearranged arrays are made contiguous: where n = 1 or
    p = 1 the W^T reshape is a strided view, on which BLAS would take its
    transposed path and change last bits.
    """
    if f.data.ndim != 3:
        raise ShapeError(f"kron_linear: grids {a.data.shape} and blocks {f.data.shape}")
    cells2, a2, f2 = _kron_cells(a, f)
    n, p, q = f.data.shape
    xd = x.data
    if xd.ndim not in (2, 3) or xd.shape[-1] != n * q:
        raise ShapeError(f"kron_linear: shapes {xd.shape} and {(n * p, n * q)}")
    wt = np.ascontiguousarray(cells2.reshape(n, n, p, q).transpose(1, 3, 0, 2).reshape(n * q, n * p))
    x2 = xd if xd.ndim == 2 else xd.reshape(xd.shape[0] * xd.shape[1], xd.shape[2])
    pre, axes = _biased(x2 @ wt, b)
    y, back = ACTIVATIONS[activation](pre)
    learn_a = a.requires_grad
    weights = (a, f) if learn_a else (f,)
    learn_w = learn_a or f.requires_grad

    def vjp(g):
        g = back(g.reshape(len(x2), n * p))  # not pre.shape, which would keep pre alive
        gx = (g @ wt.T).reshape(xd.shape) if x.requires_grad else None
        if learn_w:  # x^T g, laid out as W^T: [(c, q), (r, p)]
            m = (x2.T @ g).reshape(n, q, n, p)
            g2 = np.ascontiguousarray(m.transpose(2, 0, 3, 1).reshape(n * n, p * q))
            gw = _kron_cell_grads(learn_a, f, a2, f2, g2)
        else:
            gw = (None,) * len(weights)
        return (gx, *gw) if b is None else (gx, *gw, g.sum(axis=axes))

    out = y if xd.ndim == 2 else y.reshape(*xd.shape[:2], n * p)
    return _node(out, (x, *weights) if b is None else (x, *weights, b), vjp)


def bias_act(x: Tensor, b: Tensor | None, activation: str) -> Tensor:
    """act(x + b) with the length-C bias ``b`` added along axis 1 of a
    2-d or 4-d ``x`` (the step after a conv), or
    act(x) of any ``x`` when ``b`` is None.  ``activation`` is a key of
    ``ACTIVATIONS``."""
    if b is None and activation == "none":
        return x
    pre, axes = _biased(x.data, b)
    if b is None and activation == "relu":
        pre = pre.copy()  # relu writes into its argument, and x.data is not ours
    y, back = ACTIVATIONS[activation](pre)

    def vjp(g):
        g = back(g)
        return (g,) if b is None else (g, g.sum(axis=axes))

    return _node(y, (x,) if b is None else (x, b), vjp)


# -----------------------------------------------------------------------------
# gradient checking


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between the analytic gradient of the scalar
    function ``f`` at ``x`` and central finite differences."""
    if not x.requires_grad:
        raise ConfigError("grad_check needs a tensor with requires_grad=True")
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
