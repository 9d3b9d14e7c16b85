"""Fixtures shared across test modules, and the order of the modules."""

from __future__ import annotations

import time
from typing import NamedTuple

import pytest

from medial.derivations import Derivation
from medial.system_p import is_tautology, prove_tautology
from medial.terms import Formula, Variable

from helpers import enumerate_formulas

LEAVES = (Variable("x"), Variable("x", True), Variable("y"), Variable("y", True))


class Height3(NamedTuple):
    tautologies: list[Formula]  # in enumeration order
    proofs: list[Derivation]  # proofs[i] proves tautologies[i]
    seconds: float  # wall time to enumerate, filter and prove them


@pytest.fixture(scope="session")
def height3() -> Height3:
    """The 2,008 tautologies of height at most 3 over x, ~x, y, ~y and
    their synthesised proofs, built once for the tests that only read
    them.  Tests that count constructions or collect garbage while proving
    build their own."""
    start = time.time()
    tautologies = [f for f in enumerate_formulas(3, LEAVES) if is_tautology(f)]
    proofs = [prove_tautology(f) for f in tautologies]
    return Height3(tautologies, proofs, time.time() - start)


def pytest_collection_modifyitems(items) -> None:
    # the shared proofs keep their terms and rule instances alive until the
    # session ends, and a test that counts what the kernel interns, builds
    # or frees would count against them: the modules that read them run last
    late = {item.module for item in items if "height3" in item.fixturenames}
    items.sort(key=lambda item: item.module in late)
