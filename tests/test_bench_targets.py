"""The benchmark's tracer wraps dpimpute attributes by name; a rename that
leaves ``bench/tracing.py`` behind must fail here, not only under tracing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr", [t[:2] for t in load_targets()])
def test_target_resolves(module, attr):
    owner = importlib.import_module(f"dpimpute.{module}")
    if "." in attr:  # a method, wrapped in the class's own namespace
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(meth))
    else:
        assert callable(getattr(owner, attr, None))
