"""Binary model files: magic "HXNN", version, descriptor, layer specs,
then one flat little-endian float64 payload.  Round trips are bit-exact.
"""
from __future__ import annotations

import struct

import numpy as np

from . import training as tr
from .algebra import builtin
from .errors import FormatError
from .layers import HAttBlock, HConv2DLayer, HFCLayer, HGraphConvLayer
from .phlayers import PHAttBlock, PHCLayer, PHGraphLayer, PHMLayer
from .tensor import Tensor

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


def _bool_list(flags):
    return ",".join("1" if f else "0" for f in flags)


# PHAttBlock.projections in order; "frozen" holds q's flags, and
# "frozen_<name>" is written only for a projection whose flags differ.
_PHATT_PROJECTIONS = ("q", "k", "v", "out")


# --- per-kind (describe, rebuild) ---------------------------------------------
# describe(layer) -> (cfg dict, ordered param tensors)
# rebuild(cfg) -> fresh layer with the same shapes


def _describe(layer):
    if isinstance(layer, HFCLayer):
        return "hfc", {
            "algebra": layer.algebra.name, "d": layer.d, "s": layer.s,
            "activation": layer.activation, "bias": int(layer.bias is not None),
        }, layer.parameters()
    if isinstance(layer, HConv2DLayer):
        return "hconv2d", {
            "algebra": layer.algebra.name,
            "in": layer.in_channels, "out": layer.out_channels,
            "kernel": layer.kernel, "stride": layer.stride, "padding": layer.padding,
            "activation": layer.activation, "bias": int(layer.bias is not None),
        }, layer.parameters()
    if isinstance(layer, HAttBlock):
        return "hatt", {
            "algebra": layer.algebra.name, "channels": layer.channels,
            "kernel": layer.feature.kernel, "gate": layer.gate,
        }, layer.parameters()
    if isinstance(layer, HGraphConvLayer):
        return "hgraph", {
            "algebra": layer.algebra.name, "d": layer.d, "s": layer.s,
            "activation": layer.activation,
        }, layer.parameters()
    if isinstance(layer, PHMLayer):
        return "phm", {
            "n": layer.n, "d": layer.d, "s": layer.s,
            "activation": layer.activation, "bias": int(layer.bias is not None),
            "frozen": _bool_list(layer.a_frozen),
        }, layer.a + layer.f + ([layer.bias] if layer.bias is not None else [])
    if isinstance(layer, PHCLayer):
        return "phc", {
            "n": layer.n, "in": layer.in_channels, "out": layer.out_channels,
            "kernel": layer.kernel, "stride": layer.stride, "padding": layer.padding,
            "activation": layer.activation, "bias": int(layer.bias is not None),
            "frozen": _bool_list(layer.a_frozen),
        }, layer.a + layer.f + ([layer.bias] if layer.bias is not None else [])
    if isinstance(layer, PHAttBlock):
        params = []
        cfg = {
            "n": layer.n, "features": layer.features, "heads": layer.heads,
            "activation": layer.activation, "mode": layer.mode,
            "frozen": _bool_list(layer.q.a_frozen),
        }
        for name, sub in zip(_PHATT_PROJECTIONS, layer.projections):
            params += sub.a + sub.f + [sub.bias]
            if sub.a_frozen != layer.q.a_frozen:
                cfg[f"frozen_{name}"] = _bool_list(sub.a_frozen)
        return "phatt", cfg, params
    if isinstance(layer, PHGraphLayer):
        return "phgraph", {
            "n": layer.n, "d": layer.d, "s": layer.s,
            "activation": layer.activation,
            "frozen": _bool_list(layer.inner.a_frozen),
        }, layer.inner.a + layer.inner.f + [layer.inner.bias]
    if isinstance(layer, tr.Flatten):
        return "flatten", {}, []
    if isinstance(layer, tr.AvgPool):
        return "avgpool", {"window": layer.window}, []
    if isinstance(layer, tr.GlobalAvgPool):
        return "globalavgpool", {}, []
    if isinstance(layer, tr.Narrow):
        return "narrow", {"start": layer.start, "length": layer.length}, []
    raise FormatError(f"cannot serialize layer of type {type(layer).__name__}")


def _apply_frozen(layer, cfg, key="frozen"):
    key = key if key in cfg else "frozen"
    if key in cfg:
        flags = cfg[key].split(",")
        if len(flags) != len(layer.a) or any(f not in ("0", "1") for f in flags):
            raise FormatError(
                f"{key}={cfg[key]!r}: want {len(layer.a)} comma-separated 0/1 flags"
            )
        for a, fr in zip(layer.a, flags):
            a.requires_grad = fr == "0"
    return layer


def _rebuild(kind, cfg):
    if kind == "hfc":
        return HFCLayer(builtin(cfg["algebra"]), int(cfg["d"]), int(cfg["s"]),
                        activation=cfg["activation"], bias=bool(int(cfg["bias"])))
    if kind == "hconv2d":
        return HConv2DLayer(builtin(cfg["algebra"]), int(cfg["in"]), int(cfg["out"]),
                            int(cfg["kernel"]), stride=int(cfg["stride"]),
                            padding=int(cfg["padding"]), activation=cfg["activation"],
                            bias=bool(int(cfg["bias"])))
    if kind == "hatt":
        return HAttBlock(builtin(cfg["algebra"]), int(cfg["channels"]),
                         kernel=int(cfg["kernel"]), gate=cfg["gate"])
    if kind == "hgraph":
        return HGraphConvLayer(builtin(cfg["algebra"]), int(cfg["d"]), int(cfg["s"]),
                               activation=cfg["activation"])
    if kind == "phm":
        return _apply_frozen(
            PHMLayer(int(cfg["n"]), int(cfg["d"]), int(cfg["s"]),
                     activation=cfg["activation"], bias=bool(int(cfg["bias"]))), cfg)
    if kind == "phc":
        return _apply_frozen(
            PHCLayer(int(cfg["n"]), int(cfg["in"]), int(cfg["out"]), int(cfg["kernel"]),
                     stride=int(cfg["stride"]), padding=int(cfg["padding"]),
                     activation=cfg["activation"], bias=bool(int(cfg["bias"]))), cfg)
    if kind == "phatt":
        block = PHAttBlock(int(cfg["n"]), int(cfg["features"]), heads=int(cfg["heads"]),
                           activation=cfg["activation"], mode=cfg["mode"])
        for name, sub in zip(_PHATT_PROJECTIONS, block.projections):
            _apply_frozen(sub, cfg, f"frozen_{name}")
        return block
    if kind == "phgraph":
        layer = PHGraphLayer(int(cfg["n"]), int(cfg["d"]), int(cfg["s"]),
                             activation=cfg["activation"])
        _apply_frozen(layer.inner, cfg)
        return layer
    if kind == "flatten":
        return tr.Flatten()
    if kind == "avgpool":
        return tr.AvgPool(int(cfg["window"]))
    if kind == "globalavgpool":
        return tr.GlobalAvgPool()
    if kind == "narrow":
        return tr.Narrow(int(cfg["start"]), int(cfg["length"]))
    raise FormatError(f"unknown layer kind {kind!r}")


def _descriptor(layers):
    names = set()
    n = 1
    for layer in layers:
        kind, cfg, _ = _describe(layer)
        if kind in ("phm", "phc", "phatt", "phgraph"):
            names.add("parameterized")
            n = max(n, int(cfg["n"]))
        elif "algebra" in cfg:
            names.add(cfg["algebra"])
            n = max(n, builtin(cfg["algebra"]).n)
    if len(names) == 1:
        return names.pop(), n
    return ("mixed" if names else "real"), n


def save_model(model: tr.Network, path):
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    name, n = _descriptor(model.layers)
    nb = name.encode("utf-8")
    chunks.append(struct.pack("<IH", n, len(nb)) + nb)
    chunks.append(struct.pack("<I", len(model.layers)))
    payload = []
    for layer in model.layers:
        kind, cfg, params = _describe(layer)
        kb = kind.encode("utf-8")
        cb = _cfg_str(cfg).encode("utf-8")
        chunks.append(struct.pack("<H", len(kb)) + kb)
        chunks.append(struct.pack("<I", len(cb)) + cb)
        chunks.append(struct.pack("<I", len(params)))
        for p in params:
            dims = p.data.shape
            chunks.append(struct.pack("<B", len(dims)))
            chunks.append(struct.pack(f"<{len(dims)}I", *dims) if dims else b"")
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
    layers, shapes = [], []
    for index in range(layer_count):
        (klen,) = r.unpack("<H")
        kind = r.take(klen).decode("utf-8")
        (clen,) = r.unpack("<I")
        cfg_text = r.take(clen)
        (nparams,) = r.unpack("<I")
        layer_shapes = []
        for _ in range(nparams):
            (rank,) = r.unpack("<B")
            dims = r.unpack(f"<{rank}I") if rank else ()
            layer_shapes.append(tuple(dims))
        try:
            layer = _rebuild(kind, _cfg_parse(cfg_text.decode("utf-8")))
        except KeyError as exc:
            raise FormatError(f"layer {index} ({kind}): missing config key {exc}") from exc
        except (NameError, ValueError) as exc:
            raise FormatError(f"layer {index} ({kind}): {exc}") from exc
        layers.append(layer)
        shapes.append(layer_shapes)
    for layer, layer_shapes in zip(layers, shapes):
        _, _, params = _describe(layer)
        if len(params) != len(layer_shapes):
            raise FormatError("parameter count mismatch after rebuild")
        for p, shape in zip(params, layer_shapes):
            if p.data.shape != shape:
                raise FormatError(f"parameter shape {shape} != expected {p.data.shape}")
            raw = r.take(int(np.prod(shape, dtype=np.int64)) * 8)
            p.data[...] = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if r.pos != len(blob):
        raise FormatError("trailing bytes after model payload")
    return tr.Network(layers)
