"""Execute the usage examples embedded in the library docstrings and the README."""

import doctest
from pathlib import Path

import pytest

import wamlab.arith
import wamlab.critical
import wamlab.ffpoly
import wamlab.triples
import wamlab.wamcore
import wamlab.zeros

MODULES = [
    wamlab.arith,
    wamlab.critical,
    wamlab.ffpoly,
    wamlab.triples,
    wamlab.wamcore,
    wamlab.zeros,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failed, attempted = doctest.testmod(module)
    assert failed == 0
    assert attempted > 0, f"{module.__name__} should document at least one example"


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    failed, attempted = doctest.testfile(str(readme), module_relative=False)
    assert failed == 0
    assert attempted > 0
