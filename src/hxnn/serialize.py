"""Binary model files: magic "HXNN", version, descriptor, layer specs,
then one flat little-endian float64 payload.  Round trips are bit-exact.
Save and load are one pass over the layers each; load checks the
declared tensor sizes against the payload bytes left before it builds
any layer.  A layer with learned grids stores them as n (n, n) entries
and n ``frozen`` flags; its grids freeze together, so the flags are all
0 or all 1, and a file with mixed flags raises ``FormatError``.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from . import tensor as T
from . import training as tr
from .algebra import builtin
from .errors import FormatError
from .layers import HAttBlock, HConv2DLayer, HFCLayer, HGraphConvLayer, KronLayer
from .phlayers import PHAttBlock, PHCLayer, PHGraphLayer, PHMLayer, grid_owners

MAGIC = b"HXNN"
VERSION = 1


def _cfg_str(cfg: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in cfg.items())


def _cfg_parse(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if line:
            k, v = line.split("=", 1)
            out[k] = v
    return out


# kind -> (class, config keys in the order of the constructor's positional
# arguments).  This is the one list of layer kinds and their file keys: a
# key reads the layer attribute of the same name ("in"/"out": the channel
# counts), and the file stores "algebra" by name and "bias" as 0/1.
KINDS = {
    "hfc": (HFCLayer, ("algebra", "d", "s", "activation", "bias")),
    "hconv2d": (HConv2DLayer, ("algebra", "in", "out", "kernel", "stride", "padding",
                               "activation", "bias")),
    "hatt": (HAttBlock, ("algebra", "channels", "kernel", "gate")),
    "hgraph": (HGraphConvLayer, ("algebra", "d", "s", "activation")),
    "phm": (PHMLayer, ("n", "d", "s", "activation", "bias")),
    "phc": (PHCLayer, ("n", "in", "out", "kernel", "stride", "padding", "activation", "bias")),
    "phatt": (PHAttBlock, ("n", "features", "heads", "activation", "mode")),
    "phgraph": (PHGraphLayer, ("n", "d", "s", "activation")),
    "avgpool": (tr.AvgPool, ("window",)),
    "globalavgpool": (tr.GlobalAvgPool, ()),
    "narrow": (tr.Narrow, ("start", "length")),
}
_ATTRS = {"in": "in_channels", "out": "out_channels"}
_ENCODE = {"algebra": lambda a: a.name, "bias": lambda b: int(b is not None)}
_DECODE = {"algebra": builtin, "bias": lambda v: bool(int(v)),
           "activation": str, "gate": str, "mode": str}  # every other key: int

# "frozen" holds the n grid flags, all 0 or all 1, of a layer's first grid
# owner (``phlayers.grid_owners``); the i-th owner's flags are written as
# "frozen_<i-th name>" only where they differ from the first's.
_OWNER_NAMES = ("q", "k", "v", "out")


def _frozen_flags(n, frozen):
    return ",".join(["1" if frozen else "0"] * n)


def _stored(layer):
    """The tensors the file stores for ``layer``, in order: per Kronecker
    layer each grid matrix as a view of ``a``, frozen or not, if it learns
    them, then each weight block as a view of ``f``, then the bias."""
    if not isinstance(layer, KronLayer):
        return [p for sub in layer.sublayers for p in _stored(sub)]
    grids = layer.a.data if isinstance(layer, (PHMLayer, PHCLayer)) else []
    bias = [layer.bias] if layer.bias is not None else []
    return [*map(T.Tensor, grids), *map(T.Tensor, layer.f.data), *bias]


def _describe(layer):
    """(kind, cfg dict, ordered stored tensors) of one layer.  The kind
    is looked up by exact class: a graph layer is also an FC layer."""
    kind = next((k for k, (cls, _) in KINDS.items() if type(layer) is cls), None)
    if kind is None:
        raise FormatError(f"cannot serialize layer of type {type(layer).__name__}")
    cfg = {}
    for key in KINDS[kind][1]:
        value = getattr(layer, _ATTRS.get(key, key))
        cfg[key] = _ENCODE[key](value) if key in _ENCODE else value
    flags = [_frozen_flags(sub.n, not sub.a.requires_grad) for sub in grid_owners(layer)]
    if flags:
        cfg["frozen"] = flags[0]
    for name, owner_flags in zip(_OWNER_NAMES, flags):
        if owner_flags != flags[0]:
            cfg[f"frozen_{name}"] = owner_flags
    return kind, cfg, _stored(layer)


def _apply_frozen(layer, cfg, key):
    key = key if key in cfg else "frozen"
    if key in cfg:
        if cfg[key] not in (_frozen_flags(layer.n, False), _frozen_flags(layer.n, True)):
            raise FormatError(
                f"{key}={cfg[key]!r}: want {layer.n} comma-separated flags, all 0 or all 1"
            )
        layer.a.requires_grad = cfg[key] == _frozen_flags(layer.n, False)


def _rebuild(kind, cfg):
    """A fresh layer with the shapes and grid flags ``cfg`` describes."""
    if kind not in KINDS:
        raise FormatError(f"unknown layer kind {kind!r}")
    cls, keys = KINDS[kind]
    layer = cls(*(_DECODE.get(key, int)(cfg[key]) for key in keys))
    for name, sub in zip(_OWNER_NAMES, grid_owners(layer)):
        _apply_frozen(sub, cfg, f"frozen_{name}")
    return layer


def _descriptor(cfgs):
    names = set()
    n = 1
    for cfg in cfgs:
        if "n" in cfg:
            names.add("parameterized")
            n = max(n, cfg["n"])
        elif "algebra" in cfg:
            names.add(cfg["algebra"])
            n = max(n, builtin(cfg["algebra"]).n)
    if len(names) == 1:
        return names.pop(), n
    return ("mixed" if names else "real"), n


def save_model(model: tr.Network, path):
    described = [_describe(layer) for layer in model.layers]
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    name, n = _descriptor(cfg for _, cfg, _ in described)
    nb = name.encode("utf-8")
    chunks.append(struct.pack("<IH", n, len(nb)) + nb)
    chunks.append(struct.pack("<I", len(described)))
    payload = []
    for kind, cfg, params in described:
        kb = kind.encode("utf-8")
        cb = _cfg_str(cfg).encode("utf-8")
        chunks.append(struct.pack("<H", len(kb)) + kb)
        chunks.append(struct.pack("<I", len(cb)) + cb)
        chunks.append(struct.pack("<I", len(params)))
        for p in params:
            chunks.append(struct.pack(f"<B{p.data.ndim}I", p.data.ndim, *p.data.shape))
            payload.append(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    blob = b"".join(chunks) + b"".join(payload)
    with open(path, "wb") as fh:
        fh.write(blob)


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, count) -> bytes:
        if self.pos + count > len(self.blob):
            raise FormatError("model file truncated")
        out = self.blob[self.pos : self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_model(path) -> tr.Network:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise FormatError("bad magic: not a model file")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise FormatError(f"model format version {version}, this build reads {VERSION}")
    _n, name_len = r.unpack("<IH")
    r.take(name_len)  # descriptor is informational
    (layer_count,) = r.unpack("<I")
    headers = []  # (kind, cfg bytes, declared tensor shapes) per layer
    for index in range(layer_count):
        (klen,) = r.unpack("<H")
        try:
            kind = r.take(klen).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"layer {index}: kind is not UTF-8: {exc}") from exc
        (clen,) = r.unpack("<I")
        cfg_text = r.take(clen)
        (nparams,) = r.unpack("<I")
        shapes = []
        for _ in range(nparams):
            (rank,) = r.unpack("<B")
            shapes.append(r.unpack(f"<{rank}I"))
        headers.append((kind, cfg_text, shapes))
    payload = 8 * sum(math.prod(shape) for *_, shapes in headers for shape in shapes)
    left = len(blob) - r.pos
    if payload != left:  # checked before any layer is built
        raise FormatError("model file truncated" if payload > left
                          else "trailing bytes after model payload")
    layers = []
    for index, (kind, cfg_text, shapes) in enumerate(headers):
        try:
            layer = _rebuild(kind, _cfg_parse(cfg_text.decode("utf-8")))
        except KeyError as exc:
            raise FormatError(f"layer {index} ({kind}): missing config key {exc}") from exc
        except ValueError as exc:
            raise FormatError(f"layer {index} ({kind}): {exc}") from exc
        _, _, params = _describe(layer)
        if [p.data.shape for p in params] != shapes:
            raise FormatError(f"layer {index} ({kind}): parameter shapes {shapes} != "
                              f"expected {[p.data.shape for p in params]}")
        for p, shape in zip(params, shapes):
            p.data[...] = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
        layers.append(layer)
    return tr.Network(layers)
