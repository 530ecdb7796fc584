"""The package names that the benchmark harness reaches by string.

A ``<module>.<qualname>.calls`` or ``.self_s`` metric in ``BENCHMARK.json``
is read off the call counts and spans of that callable; a renamed or moved
callable leaves the metric unset, and ``bench/run.py --trace 1`` stops on a
``KeyError`` when it reports it.  The counting pass also patches
``linalg._rref_rows`` and re-wraps ``Subspace.from_vectors`` as a
classmethod.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from algdeform import linalg

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
AGGREGATES = {"linalg.elim"}  # summed by the harness over several entry points


def layer_callables():
    names = []
    for metric in json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]:
        base, _, suffix = metric["name"].rpartition(".")
        if suffix in ("calls", "self_s") and base not in AGGREGATES:
            names.append(base)
    return sorted(set(names))


def test_the_spec_names_layer_callables():
    assert "cli.main" in layer_callables()


@pytest.mark.parametrize("name", layer_callables())
def test_each_layer_metric_names_a_callable_defined_where_it_says(name):
    module, *path = name.split(".")
    obj = importlib.import_module(f"algdeform.{module}")
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj)
    # the tracers name a callable by its defining module and qualified name
    assert obj.__module__ == f"algdeform.{module}"
    assert obj.__qualname__ == ".".join(path)


def test_the_counted_elimination_hooks_exist():
    assert inspect.isfunction(linalg._rref_rows)
    assert isinstance(vars(linalg.Subspace)["from_vectors"], classmethod)
