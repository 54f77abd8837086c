"""Every layer the traced benchmark wraps still resolves to its owner.

``perfbench/run.py`` names each layer it times as (label, module,
attribute). When a traced cycle starts, its tracer imports the module and
looks up every dotted part of the attribute but the last; either step
failing fails the whole traced run. A missing last part (a deleted
function) is only skipped and reads as zero calls, so it is not checked
here. ``LAYERS`` is read from the file's syntax tree, so the benchmark's
own modules are never imported into the test process.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _layers() -> list:
    """(label, module, attribute) of each entry of LAYERS in perfbench/run.py."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["LAYERS"]:
            return [tuple(ast.literal_eval(part) for part in entry.elts[:3])
                    for entry in node.value.elts]
    raise AssertionError(f"no LAYERS assignment in {RUN_PY}")


LAYERS = _layers()


@pytest.mark.parametrize("label, module_name, attribute", LAYERS,
                         ids=[label for label, *_ in LAYERS])
def test_layer_owner_resolves(label, module_name, attribute):
    owner = importlib.import_module(module_name)
    for part in attribute.split(".")[:-1]:
        assert hasattr(owner, part), f"{label}: {owner.__name__} has no {part!r}"
        owner = getattr(owner, part)
