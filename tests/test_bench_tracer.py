"""The benchmark's tracer (kcbench/tracer.py) wraps package functions by
name, so every name it lists must stay a callable of the package."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "kcbench" / "tracer.py"


def _tracer_targets():
    # parsed, not imported: the benchmark's file is only read
    tree = ast.parse(TRACER.read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in n.targets))
    return ast.literal_eval(node.value)


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert "orbits" in targets
    for module, attrs in targets.items():
        home = importlib.import_module("kamcrit." + module)
        for attr in attrs:
            obj = home
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            assert callable(obj), f"kamcrit.{module}.{attr} is gone"
