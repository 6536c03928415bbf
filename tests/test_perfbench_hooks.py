"""The benchmark in ``perfbench/`` times the codec by replacing package
attributes with wrappers. Installing its hooks must find every name it
wraps, and restoring them must leave the package exactly as it was."""

import sys
from pathlib import Path

import pytest

from tricodec import checkpoint, encoder, model, quantizer, signal, training
from tricodec.model import Codec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# import the benchmark's modules without writing bytecode under perfbench/
sys.path.insert(0, str(PERFBENCH))
_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True
try:
    import workloads
    from tracer import Tracer
finally:
    sys.dont_write_bytecode = _dont_write

OWNERS = (checkpoint, encoder, model, quantizer, signal, training, Codec, training.AdamW)


def attributes():
    return [dict(vars(owner)) for owner in OWNERS]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_install_wraps_and_restore_puts_back(name, traced):
    before = attributes()
    tracer = Tracer()
    try:
        workloads.install(tracer, workloads.WORKLOADS[name], workloads.Record(), traced, calibrator=None)
        wrapped = [
            (owner, attr)
            for owner, old, new in zip(OWNERS, before, attributes())
            for attr in new
            if new[attr] is not old.get(attr)
        ]
        assert wrapped
    finally:
        tracer.restore()
    for owner, old, new in zip(OWNERS, before, attributes()):
        assert new.keys() == old.keys(), owner
        assert all(new[attr] is old[attr] for attr in old), owner
