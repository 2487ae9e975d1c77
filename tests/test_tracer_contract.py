"""The names the benchmark's tracer wraps must exist in the package.

`perfbench/spans.py` replaces each traced function by name at every
module binding, and stops with "no binding found" when a name is gone, so
a refactor that renames or inlines one of them breaks `perfbench/run.py
--trace 1`.  The tracer is loaded by path and only read: installing it
would rebind the package's functions for the rest of the session.
"""

import importlib.util
from pathlib import Path

import pytest

import cyclicsource
from cyclicsource import cli, verify  # noqa: F401 (cli loads every module)

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_the_package(spans):
    missing = [span for span, mod, attr in spans.TRACED
               if not callable(getattr(getattr(cyclicsource, mod, None),
                                       attr, None))]
    assert missing == []


def test_traced_modules_exist(spans):
    assert [m for m in spans.MODULES if not hasattr(cyclicsource, m)] == []


def test_traced_suites_are_the_verify_suites(spans):
    assert spans.SUITES == tuple(verify.SUITES)
