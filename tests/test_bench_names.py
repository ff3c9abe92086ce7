"""Every function the benchmark's traced run wraps still exists.

`bench/spans.py` reports a traced name it cannot find as absent and goes
on, which would zero that layer's metrics; this test makes such a rename
fail instead.
"""

import importlib
import importlib.util
from pathlib import Path


def _traced():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    missing = []
    for module, attribute, _ in traced:
        obj = importlib.import_module(module)
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attribute}")
    assert not missing, missing
