"""Every function the benchmark harness wraps still lives where it looks.

``perfbench/instrument.py`` replaces ``owner.__dict__[attr]`` for each
entry of ``SPAN_POINTS`` and ``COUNT_POINTS``; a moved, renamed or
inherited-instead-of-defined name would break every traced run.  The
module is loaded read-only from its file and nothing is installed.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

import hxnn

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"


def load_instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INSTR = load_instrument()


@pytest.mark.parametrize("path, attr, name", INSTR.SPAN_POINTS + INSTR.COUNT_POINTS)
def test_patch_point_resolves_in_the_owner_dict(path, attr, name):
    importlib.import_module(f"hxnn.{path.split('.')[0]}")
    owner = INSTR._owner(hxnn, path)
    assert attr in vars(owner), f"{path}.{attr} ({name}) is not defined on its owner"
    assert callable(owner.__dict__[attr])
