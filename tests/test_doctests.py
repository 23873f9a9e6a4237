"""The examples in the package's docstrings run and give what they show."""

import doctest
import importlib
import pkgutil

import pytest

import expriordan

# __main__ runs the CLI on import, so it is not imported here.
MODULES = ["expriordan"] + sorted(
    f"expriordan.{m.name}" for m in pkgutil.iter_modules(expriordan.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


def test_series_examples_are_run():
    assert doctest.testmod(importlib.import_module("expriordan.series")).attempted > 0
