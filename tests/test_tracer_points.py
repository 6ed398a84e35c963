"""The benchmark's tracer wraps library functions by name; every name must resolve.

``perfbench/tracer.py`` is loaded from its file as it is, without the
benchmark harness, so a function renamed or deleted here fails this test
instead of failing a traced benchmark run with an AttributeError.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_trace_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for group, module, owner, attr, _recursive in tracer.POINTS:
        home = importlib.import_module(f"lieyamaguti.{module}")
        target = getattr(home, owner, None) if owner else home
        found = attr in vars(target) if owner and target is not None else hasattr(target, attr)
        if not found or not callable(getattr(target, attr)):
            missing.append(f"{group}: lieyamaguti.{module}.{owner + '.' if owner else ''}{attr}")
    assert tracer.POINTS and not missing, missing
