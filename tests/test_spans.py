"""Every name the traced benchmark run rebinds still exists, so dropping or
renaming one fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for path, _name in spans.TARGETS:
        mod, *attrs = path.split(".")
        owner = importlib.import_module(f"quasigray.{mod}")
        for a in attrs:
            assert hasattr(owner, a), f"{path}: no {a} on {owner!r}"
            owner = getattr(owner, a)
        assert callable(owner), path
