"""The package names the benchmark's span tracer wraps (`bench/spans.py`)."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_span_target_is_a_callable_of_the_package():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for span, (mod_name, path) in spans.TARGETS.items():
        obj = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{span}: {mod_name}.{path} is gone"
            obj = getattr(obj, attr)
        assert callable(obj), f"{span}: {mod_name}.{path} is not callable"
