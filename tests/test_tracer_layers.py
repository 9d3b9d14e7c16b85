"""The benchmark's per-layer tracer wraps kernel functions by name; a
renamed or deleted function would make `--trace 1` fail only when run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracer = _tracer()
    missing = []
    for table in (tracer.LAYERS, tracer.COUNTED):
        for mod, fns in table.items():
            module = importlib.import_module(f"medial.{mod}")
            for fn in fns:
                owner = module
                for part in fn.split("."):  # Builder methods live on the class
                    owner = getattr(owner, part, None)
                if not callable(owner):
                    missing.append(f"{mod}.{fn}")
    assert missing == []
