"""The benchmark tracer hooks `grrs` callables by name; pin those names.

`bench/tracer.py` lists its traced callables as (module, qualified name)
pairs and `Tracer.install()` looks each one up: functions as module
attributes, methods in the class `__dict__`, and classmethods through their
underlying function.  A rename in `grrs` breaks `bench/run.py --trace 1`
without failing any other test, so the lookups are repeated here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, qualname", _traced())
def test_traced_callable_resolves(module, qualname):
    owner = importlib.import_module(f"grrs.{module}")
    if "." in qualname:
        clsname, attr = qualname.split(".")
        raw = vars(getattr(owner, clsname))[attr]
        assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)
    else:
        assert callable(getattr(owner, qualname))


def test_from_vectors_stays_a_classmethod():
    from grrs.linalg import Lattice

    assert isinstance(vars(Lattice)["from_vectors"], classmethod)
