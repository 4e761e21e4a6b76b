"""Model files: the wire format pinned byte for byte, and malformed
grid-freezing flags rejected."""
import hashlib
import struct

import numpy as np
import pytest

from hxnn import serialize as S
from hxnn import training as tr
from hxnn.algebra import builtin
from hxnn.errors import FormatError
from hxnn.layers import HAttBlock, HConv2DLayer, HFCLayer, HGraphConvLayer
from hxnn.phlayers import PHAttBlock, PHCLayer, PHGraphLayer, PHMLayer, collapse_to_algebra


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def pinned_layers():
    """One layer of every kind, plus a collapsed PHM, at fixed seeds."""
    q = builtin("quaternion")
    collapsed = PHMLayer(4, 8, 8, rng=rng(9))
    collapse_to_algebra(collapsed, q)
    return {
        "hfc": HFCLayer(q, 8, 12, rng=rng(1)),
        "hconv2d": HConv2DLayer(q, 4, 8, 3, padding=1, rng=rng(2)),
        "hatt": HAttBlock(q, 4, kernel=3, rng=rng(3)),
        "hgraph": HGraphConvLayer(q, 8, 8, rng=rng(4)),
        "phm": PHMLayer(3, 6, 9, activation="relu", rng=rng(5)),
        "phc": PHCLayer(3, 3, 6, 3, padding=1, rng=rng(6)),
        "phatt": PHAttBlock(2, 8, heads=2, rng=rng(7)),
        "phgraph": PHGraphLayer(4, 8, 8, rng=rng(8)),
        "phm_collapsed": collapsed,
    }


# sha256 of each saved one-layer model: seeded init and the wire format
PINNED_SHA256 = {
    "hfc": "1bb928ed3041f4ad8942d8906a8a7d54ea2d3cfe50f5feca08cb662510210e11",
    "hconv2d": "3a668f66b559fbc1255c84d2d0696312929d5df9a68ada37c22af10de1b5a642",
    "hatt": "7c1eec43ab3b364ebbcd4a85b2e5a94a23e73cf7bbe8b755d0c6a817be0c3a16",
    "hgraph": "1c8177510acf12a7dd29ad2a798014a48b44e63e8cc83bb1a4fb954ba00d6148",
    "phm": "356e710dc3271d2525547d4e31172b9d41a157a91b2c79a1425df3f710ae298e",
    "phc": "b66d02b9e5274f9ffaf67acbc268316e43179efde7e01082f9ad0170fda5c890",
    "phatt": "d4f5fc1ea2c38a63e818c15305ef39e070d191d1ec8b567e8394ebff3751aea9",
    "phgraph": "a5c0039279d808aff7e5fefc178e930ce8830e2db1d9b9be8de22bc6c5f3f4f8",
    "phm_collapsed": "1cacb71a75e299f937f54a232be3269256961cb51f847ee4a188000b3be7ea01",
}


@pytest.mark.parametrize("kind", sorted(PINNED_SHA256))
def test_model_file_bytes_are_pinned(kind, tmp_path):
    path = tmp_path / "m.hxnn"
    S.save_model(tr.Network([pinned_layers()[kind]]), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[kind]


def phm_file_with_frozen(tmp_path, flags):
    """A saved PHMLayer(4, 8, 8) whose config line reads frozen=<flags>."""
    path = tmp_path / "m.hxnn"
    S.save_model(tr.Network([PHMLayer(4, 8, 8, rng=rng(0))]), path)
    blob = path.read_bytes()
    start = blob.index(b"n=4\n")
    (length,) = struct.unpack_from("<I", blob, start - 4)
    cfg = blob[start:start + length].replace(b"frozen=0,0,0,0\n", f"frozen={flags}\n".encode())
    path.write_bytes(blob[:start - 4] + struct.pack("<I", len(cfg)) + cfg + blob[start + length:])
    return path


# A layer's grids are frozen together: mixed flags ("1,0,1,0") are rejected.
@pytest.mark.parametrize("flags", ["1,0", "1,0,0,0,1", "1,x,junk,0,1,1", "", "1,0,2,0",
                                   "true,0,0,0", "1, 0,0,0", "1,0,1,0"])
def test_malformed_frozen_flags_rejected(flags, tmp_path):
    with pytest.raises(FormatError, match="frozen"):
        S.load_model(phm_file_with_frozen(tmp_path, flags))


def test_phatt_keeps_each_projections_frozen_grids(tmp_path):
    block = PHAttBlock(2, 4, rng=rng(11))
    block.q.a.requires_grad = block.v.a.requires_grad = False
    assert S._describe(block)[1]["frozen"] == "1,1"
    assert S._describe(block)[1]["frozen_k"] == "0,0"
    path = tmp_path / "m.hxnn"
    S.save_model(tr.Network([block]), path)
    (loaded,) = S.load_model(path).layers
    assert [p.a.requires_grad for p in loaded.projections] == [False, True, False]
    assert len(loaded.parameters()) == len(block.parameters()) == 7


def file_with_cfg(tmp_path, layer, old, new):
    """A saved one-layer model whose config text has ``old`` replaced by ``new``."""
    path = tmp_path / "m.hxnn"
    S.save_model(tr.Network([layer]), path)
    blob = path.read_bytes()
    cfg = S._cfg_str(S._describe(layer)[1]).encode()
    assert old in cfg
    edited = cfg.replace(old, new)
    head = struct.pack("<I", len(cfg)) + cfg
    path.write_bytes(blob.replace(head, struct.pack("<I", len(edited)) + edited, 1))
    return path


def test_missing_config_key_is_a_format_error(tmp_path):
    path = file_with_cfg(tmp_path, HFCLayer(builtin("quaternion"), 8, 12, rng=rng(1)),
                         b"s=12\n", b"")
    with pytest.raises(FormatError, match=r"layer 0 \(hfc\): missing config key 's'"):
        S.load_model(path)


def test_non_integer_config_field_is_a_format_error(tmp_path):
    path = file_with_cfg(tmp_path, PHCLayer(3, 3, 6, 3, padding=1, rng=rng(6)),
                         b"kernel=3\n", b"kernel=three\n")
    with pytest.raises(FormatError, match=r"layer 0 \(phc\): .*three"):
        S.load_model(path)


def test_unknown_algebra_is_a_format_error(tmp_path):
    path = file_with_cfg(tmp_path, HGraphConvLayer(builtin("quaternion"), 8, 8, rng=rng(4)),
                         b"algebra=quaternion\n", b"algebra=quaternoin\n")
    with pytest.raises(FormatError, match=r"layer 0 \(hgraph\): unknown algebra"):
        S.load_model(path)
