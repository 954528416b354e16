"""The benchmark's tracer (perfbench/tracer.py) patches fastslow by name
and skips a name it cannot find, so a renamed function or method would
make a per-layer metric read 0 without failing anything.  This test
checks that every name it patches exists."""

import dataclasses
import importlib
import types
from pathlib import Path

from fastslow.fields import ReducedField
from fastslow.model import Coupling, KuramotoCoupling

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_name_the_tracer_patches_exists():
    # executed from its source, so nothing is written under perfbench/
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    for span, sites in tracer.SPAN_TARGETS:
        for module, attr in sites:
            assert hasattr(importlib.import_module(f"fastslow.{module}"),
                           attr), (span, module, attr)
    # the coupling-evaluation counters patch KuramotoCoupling's own methods
    assert [f.name for f in dataclasses.fields(Coupling)
            if f.name not in KuramotoCoupling.__dict__] == []
    assert "__call__" in vars(ReducedField)
