import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    """The benchmark's tracer wraps library functions by (module, attr); a
    renamed or deleted target would silently drop its layer from the
    benchmark, so each one must still name a callable."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t for ts in tracer.LAYERS.values() for t in ts]
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(
                   f"{tracer.PACKAGE}.{module}"), attr, None))]
    assert not missing
