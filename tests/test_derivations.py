import random
from dataclasses import replace

import pytest

from medial.derivations import (
    Builder,
    Derivation,
    JointMismatch,
    NonEquationalStep,
    Step,
    check,
    concat,
    dualize,
    from_text,
    identity,
    length,
    nest,
    reverse_equational,
    to_text,
)
from medial.generators import derive_excluded_middle
from medial.system_p import make_p_spec, prove_tautology
from medial.systems import Scheme
from medial.terms import (
    Compound,
    Constant,
    Metavar,
    Variable,
    context_at,
    negate,
    parse_formula,
)

from helpers import random_formula

spec = make_p_spec()
T = Constant("T")
x = Variable("x")


def em_step_derivation():
    b = Builder(spec, T)
    b.apply_eq((), "var_em", dict(X=x), direction="bwd")
    return b.derivation()


def test_check_one_step():
    d = em_step_derivation()
    assert d.conclusion == parse_formula("(x | ~x)")
    assert check(spec, d) is None


def test_check_thread_broken():
    d = em_step_derivation()
    bad = Derivation(d.premise, d.steps, parse_formula("(y | ~y)"))
    failure = check(spec, bad)
    assert failure is not None and "ThreadBroken" in failure.reason
    assert failure.step_index == 1


def test_check_undeclared_axiom_rejected():
    d = em_step_derivation()
    step = d.steps[0]
    bad_rule = replace(step.rule, axiom_id="no_such_axiom", rule_id="eq:no_such_axiom")
    bad = Derivation(d.premise, (type(step)(step.context, bad_rule),), d.conclusion)
    failure = check(spec, bad)
    assert failure is not None


@pytest.mark.parametrize(
    "label, relabel",
    [("sd", "ai0d"), ("eq:const_idem:n", "eq:p0_select"), ("acr", "sd")],
)
def test_check_rejects_mislabelled_step(label, relabel):
    # the step keeps its formulas and bindings; only its label lies
    d = prove_tautology(parse_formula("((x & y) | (~x | ~y))"))
    assert check(spec, d) is None
    i = next(i for i, s in enumerate(d.steps) if s.rule.rule_id == label)
    steps = list(d.steps)
    steps[i] = Step(steps[i].context, replace(steps[i].rule, rule_id=relabel))
    failure = check(spec, Derivation(d.premise, tuple(steps), d.conclusion))
    assert failure is not None and failure.step_index == i
    assert relabel in failure.reason


@pytest.mark.parametrize(
    "junk",
    [parse_formula("(x zz y)"), Constant("Q"), Metavar("B")],
    ids=["relation", "constant", "metavariable"],
)
def test_check_rejects_undeclared_symbol_in_binding(junk):
    # p0_select backwards binds B to material no premise holds
    b = Builder(spec, T)
    b.apply_eq((), "p0_select", dict(A=T, B=junk), direction="bwd")
    failure = check(spec, b.derivation())
    assert failure is not None and failure.step_index == 0
    assert "binding B" in failure.reason


def test_length_examples():
    assert length(spec, em_step_derivation()) == 0  # x | ~x = T is free
    b = Builder(spec, parse_formula("((a | b) & (c | d))"))
    b.apply_scheme((), Scheme.SPLIT_DOWN,
                   dict(A=Variable("a"), B=Variable("b"),
                        C=Variable("c"), D=Variable("d")), "&", "|")
    assert length(spec, b.derivation()) == 1
    b = Builder(spec, T)
    b.apply_eq((), "const_idem", dict(U=Constant("F")), negated=True, direction="bwd")
    assert b.current == parse_formula("(T & T)")
    assert length(spec, b.derivation()) == 1  # co-unit merges are counted


def test_length_additive_under_concat_invariant_under_nest():
    rng = random.Random(6)
    for _ in range(20):
        d1 = derive_excluded_middle(spec, "&", random_formula(rng, 2))
        ctx = context_at(Compound("|", d1.premise, Variable("w")), ("L",))
        assert length(spec, nest(ctx, d1)) == length(spec, d1)
    d = derive_excluded_middle(spec, "&", parse_formula("(x & y)"))
    dd = concat(spec, identity(d.premise), d)
    assert length(spec, dd) == length(spec, d)


def test_dualize_excluded_middle():
    d = em_step_derivation()
    dual = dualize(spec, d)
    assert dual.premise == parse_formula("(~x & x)")
    assert dual.conclusion == Constant("F")
    assert check(spec, dual) is None
    twice = dualize(spec, dual)
    assert twice.premise == d.premise and twice.conclusion == d.conclusion
    assert check(spec, twice) is None


def test_dualize_identity_and_errors():
    d = identity(parse_formula("(x | y)"))
    dual = dualize(spec, d)
    assert dual.premise == parse_formula("(~x & ~y)")
    with pytest.raises(NonEquationalStep):
        dualize(spec, derive_excluded_middle(spec, "&", parse_formula("(x & y)")))


def test_dualize_random_equational_chains():
    rng = random.Random(7)
    F = Constant("F")
    for _ in range(50):
        f = random_formula(rng, 2)
        b = Builder(spec, Compound("|", f, F))
        b.apply_eq((), "or_unit", dict(A=f))
        b.apply_eq((), "or_unit", dict(A=f), direction="bwd")
        d = b.derivation()
        dual = dualize(spec, d)
        assert check(spec, dual) is None
        # acr steps and negated-axiom steps, at the root and in a context
        b.apply_eq((), "or_unit", dict(A=f))
        b.apply_eq((), "or_unit", dict(A=negate(spec, f)), negated=True, direction="bwd")
        b.acr((), Compound("&", T, f))
        b.apply_eq(("R",), "or_unit", dict(A=f), direction="bwd")
        b.acr(("R",), Compound("|", F, f))
        b.acr((), Compound("&", Compound("|", f, F), T))
        b.apply_eq((), "or_unit", dict(A=negate(spec, Compound("|", f, F))), negated=True)
        d = b.derivation()
        assert check(spec, d) is None
        assert {s.rule.rule_id for s in d.steps} == {"eq:or_unit", "eq:or_unit:n", "acr"}
        for flip in (lambda e: reverse_equational(spec, e), lambda e: dualize(spec, e)):
            once = flip(d)
            assert check(spec, once) is None
            assert flip(once) == d


def test_reverse_equational_rejects_medial_step():
    d = derive_excluded_middle(spec, "&", parse_formula("(x & y)"))
    assert any(s.rule.scheme.is_medial for s in d.steps)
    with pytest.raises(NonEquationalStep):
        reverse_equational(spec, d)


def test_nest():
    d = em_step_derivation()
    assert nest((), d) == d
    ctx = context_at(Compound("|", T, Variable("y")), ("L",))
    nested = nest(ctx, d)
    assert nested.premise == parse_formula("(T | y)")
    assert nested.conclusion == parse_formula("((x | ~x) | y)")
    assert check(spec, nested) is None


def test_nest_random_property():
    rng = random.Random(8)
    for _ in range(100):
        d = derive_excluded_middle(spec, "&", random_formula(rng, 2))
        host = random_formula(rng, 2)
        side = rng.choice("LR")
        outer = (
            Compound("|", d.premise, host) if side == "L"
            else Compound("&", host, d.premise)
        )
        ctx = context_at(outer, (side,) if side == "L" else ("R",))
        assert check(spec, nest(ctx, d)) is None


def test_concat():
    d = em_step_derivation()
    joined = concat(spec, d, identity(parse_formula("(~x | x)")))
    assert check(spec, joined) is None
    with pytest.raises(JointMismatch):
        concat(spec, d, identity(parse_formula("(x | x)")))


def test_reverse_equational():
    d = em_step_derivation()
    r = reverse_equational(spec, d)
    assert r.premise == d.conclusion and r.conclusion == d.premise
    assert check(spec, r) is None


def test_exactify_and_serialize_round_trip():
    rng = random.Random(9)
    for _ in range(25):
        d = derive_excluded_middle(spec, "&", random_formula(rng, 2))
        text = to_text(spec, d)
        got_spec, d2 = from_text(text, lambda name: spec)
        assert got_spec is spec
        assert to_text(spec, d2) == text
        assert check(spec, d2) is None
