"""The benchmark's tracer wraps the functions that ``benchmark/spans.py``
names in ``TARGETS``; a rename in the package must not strand one."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from algebroids import legendre

SPANS = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def targets():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name,module_name,path", targets())
def test_target_resolves(name, module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = owner.__dict__[attr]
    if not outer:
        # A plain function is wrapped wherever an algebroids module holds it.
        modules = [m for n, m in sys.modules.items() if n == "algebroids" or n.startswith("algebroids.")]
        assert any(value is original for m in modules for value in vars(m).values()), name


def test_fiber_solves_are_distinct_functions():
    # Each span wraps its function by identity; one alias would time both.
    assert legendre.solve_fiber is not legendre.solve_fiber_h
