import random

import pytest

from medial.derivations import Builder, check, identity, placed
from medial.generators import (
    CheckFailed,
    NotStrong,
    NotWeak,
    atomic_deduction,
    derive_contraction,
    derive_excluded_middle,
)
from medial.system_p import is_tautology, make_p_spec
from medial.terms import Compound, Constant, Variable, negate, parse_formula, size

from helpers import random_formula

spec = make_p_spec()
T = Constant("T")


def non_equational_steps(d):
    return sum(1 for s in d.steps if s.rule.scheme.is_medial)


def test_excluded_middle_variable():
    d = derive_excluded_middle(spec, "&", Variable("x"))
    assert d.premise == T
    assert d.conclusion == parse_formula("(x | ~x)")
    assert len(d.steps) == 1
    assert check(spec, d) is None


def test_excluded_middle_compound_uses_split():
    d = derive_excluded_middle(spec, "&", parse_formula("(x & y)"))
    assert d.conclusion == parse_formula("((x & y) | (~x | ~y))")
    assert any(s.rule.rule_id == "sd" for s in d.steps)
    assert check(spec, d) is None


def test_excluded_middle_projection_self_dual():
    d = derive_excluded_middle(spec, "&", parse_formula("(x p0 y)"))
    assert d.conclusion == parse_formula("((x p0 y) | (~x p0 ~y))")
    assert any(s.rule.rule_id == "ai0d" for s in d.steps)
    assert check(spec, d) is None


def test_excluded_middle_not_strong():
    with pytest.raises(NotStrong):
        derive_excluded_middle(spec, "|", Variable("x"))


def test_excluded_middle_random_properties():
    rng = random.Random(10)
    for _ in range(100):
        f = random_formula(rng, 3)
        d = derive_excluded_middle(spec, "&", f)
        assert check(spec, d) is None
        assert d.conclusion == Compound("|", f, negate(spec, f))
        assert is_tautology(d.conclusion)
        assert non_equational_steps(d) <= 4 * size(f)


def test_contraction_base_cases():
    d = derive_contraction(spec, "|", Variable("x"))
    assert d.premise == parse_formula("(x | x)")
    assert d.conclusion == Variable("x")
    assert len(d.steps) == 1 and d.steps[0].rule.axiom_id == "var_idem"
    assert check(spec, d) is None


def test_contraction_compound_uses_medial():
    d = derive_contraction(spec, "|", parse_formula("(x & y)"))
    assert any(s.rule.rule_id == "md" for s in d.steps)
    assert check(spec, d) is None
    assert d.conclusion == parse_formula("(x & y)")


def test_contraction_disjunction_is_equational():
    d = derive_contraction(spec, "|", parse_formula("(x | y)"))
    assert non_equational_steps(d) == 0
    assert check(spec, d) is None


def test_contraction_places_each_subformula_lemma_once():
    # the two copies of (x & y) are contracted by one derivation, placed
    # by reference at both sides of the medial step
    d = derive_contraction(spec, "|", parse_formula("((x & y) & (x & y))"))
    assert check(spec, d) is None
    halves = {"L": [], "R": []}
    for ctx, step in placed(d.steps):
        if ctx:
            halves[ctx[0].hole_side].append(step)
    left, right = halves["L"], halves["R"]
    assert len(left) == len(right) == 3
    assert all(a is b for a, b in zip(left, right))


def test_contraction_not_weak():
    with pytest.raises(NotWeak):
        derive_contraction(spec, "&", Variable("x"))


def test_contraction_random_properties():
    rng = random.Random(11)
    for _ in range(100):
        f = random_formula(rng, 3)
        d = derive_contraction(spec, "|", f)
        assert check(spec, d) is None
        assert d.premise == Compound("|", f, f)
        assert d.conclusion == f


def test_atomic_deduction_variable_head():
    em = derive_excluded_middle(spec, "&", Variable("x"))
    d = atomic_deduction(spec, "|", Variable("x"), parse_formula("~x"), em)
    assert d.premise == parse_formula("~x")
    assert d.conclusion == parse_formula("~x")
    assert check(spec, d) is None


def test_atomic_deduction_constant_head():
    b = Builder(spec, T)
    b.apply_eq((), "const_em", dict(U=Constant("F")), direction="bwd")
    p = b.derivation()  # T -> (F | T)
    d = atomic_deduction(spec, "|", Constant("F"), T, p)
    assert d.premise == T
    assert d.conclusion == T
    assert check(spec, d) is None


def test_atomic_deduction_rejects_bad_proof():
    bogus = identity(parse_formula("(x | y)"))
    with pytest.raises(CheckFailed):
        atomic_deduction(spec, "|", Variable("x"), Variable("y"), bogus)
