"""A model file is one pass each way: ``save_model`` describes each layer
once, ``load_model`` takes each rebuilt layer's stored tensors once
without describing it, and ``load_model`` checks the declared tensor
sizes against the payload bytes left before it rebuilds any layer, so a
payload short or long by any number of bytes raises ``FormatError``
with no layer built."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hxnn import serialize as S
from hxnn import training as tr
from hxnn.algebra import builtin
from hxnn.errors import FormatError
from hxnn.layers import HFCLayer
from hxnn.phlayers import PHMLayer
from test_typed_errors import load_bytes, saved_blob


def three_layer_model():
    r = np.random.Generator(np.random.PCG64(5))
    return tr.Network([PHMLayer(2, 4, 8, rng=r), HFCLayer(builtin("quaternion"), 8, 4, rng=r),
                       HFCLayer(builtin("real"), 4, 2, activation="none", rng=r)])


BLOB = saved_blob(three_layer_model())
PAYLOAD = 8 * sum(p.data.size for p in three_layer_model().parameters())


def counted(name):
    """Patch ``serialize.<name>`` with a mock that counts its calls."""
    return mock.patch.object(S, name, wraps=getattr(S, name))


@given(st.integers(1, len(BLOB)))
@settings(max_examples=100, deadline=None)
def test_a_cut_file_raises_format_error_before_any_layer_is_rebuilt(cut):
    with counted("_rebuild") as rebuild, pytest.raises(FormatError, match="truncated"):
        load_bytes(BLOB[:-cut])
    assert rebuild.call_count == 0


@given(st.binary(min_size=1, max_size=4 * PAYLOAD))
@settings(max_examples=100, deadline=None)
def test_a_padded_file_raises_format_error_before_any_layer_is_rebuilt(pad):
    with counted("_rebuild") as rebuild, pytest.raises(FormatError, match="trailing bytes"):
        load_bytes(BLOB + pad)
    assert rebuild.call_count == 0


def test_save_describes_and_load_stores_every_layer_once():
    model = three_layer_model()
    with counted("_describe") as describe:
        assert saved_blob(model) == BLOB
    assert describe.call_count == len(model.layers)
    with counted("_describe") as describe, counted("_stored") as stored, \
            counted("_rebuild") as rebuild:
        loaded = load_bytes(BLOB)
    assert describe.call_count == 0
    assert stored.call_count == rebuild.call_count == len(model.layers)
    assert [p.data.tobytes() for p in loaded.parameters()] == [
        p.data.tobytes() for p in model.parameters()]
