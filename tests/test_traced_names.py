"""The benchmark's tracer (`perfbench/spans.py`) wraps carpetdim functions by
name, so deleting or renaming one breaks the traced benchmark. This checks
every traced name against the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

from carpetdim.words import DigitWord

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    """perfbench/spans.py as a module, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_name_exists():
    spans = _load_spans()
    missing = [
        f"carpetdim.{module}.{name}"
        for module, names in spans.FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"carpetdim.{module}"), name, None))
    ]
    missing += [f"DigitWord.{name}" for name in spans.DIGITWORD_METHODS
                if name not in DigitWord.__dict__]
    assert not missing
