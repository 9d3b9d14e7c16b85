import hashlib
import itertools
import random

import pytest

from medial.derivations import check, to_text
from medial.system_p import (
    NotATautology,
    UnboundVariable,
    VariableMismatch,
    all_valuations,
    audit_soundness,
    evaluate,
    is_tautology,
    make_p_spec,
    opposite_literal,
    prove_line,
    prove_tautology,
)
from medial.systems import instantiate, validate_spec
from medial.terms import Compound, Constant, Variable, parse_formula, variables

from helpers import random_formula

spec = make_p_spec()
T, F = Constant("T"), Constant("F")

# the four binary truth tables, rows (F,F) (F,T) (T,F) (T,T)
P_TABLES = {
    "&": (False, False, False, True),
    "|": (False, True, True, True),
    "p0": (False, False, True, True),
    "p1": (False, True, False, True),
}


def test_spec_validates():
    assert validate_spec(spec) == []


def test_eval_examples():
    assert evaluate(parse_formula("(F p0 T)"), {}) is False
    for v in ({"x": True}, {"x": False}):
        assert evaluate(parse_formula("(x | ~x)"), v) is True
    with pytest.raises(UnboundVariable):
        evaluate(Variable("q"), {})


def test_eval_matches_tables_on_constants():
    for rel, table in P_TABLES.items():
        for i, (a, b) in enumerate(itertools.product("FT", repeat=2)):
            f = Compound(rel, Constant(a), Constant(b))
            assert evaluate(f, {}) == table[i]


def test_is_tautology():
    assert is_tautology(parse_formula("(x | ~x)"))
    assert not is_tautology(Variable("x"))
    assert is_tautology(parse_formula("((x & y) | ~x | ~y)"))


def test_audit_soundness_all_rules():
    report = audit_soundness()
    assert len(report) == 12
    assert all(ok for _, ok in report)


def test_audit_catches_corrupt_rule():
    # the converse of a strict implication must fail the 16-row audit
    from medial.systems import instantiate_rule, Scheme

    fresh = dict(A=Variable("a"), B=Variable("b"), C=Variable("c"), D=Variable("d"))
    rule = instantiate_rule(spec, Scheme.SPLIT_DOWN, fresh, "&", "|")
    from medial.system_p import all_valuations

    backwards = all(
        (not evaluate(rule.conclusion, v)) or evaluate(rule.premise, v)
        for v in all_valuations(("a", "b", "c", "d"))
    )
    assert not backwards


def test_congruence_axioms_respect_semantics():
    rng = random.Random(12)
    for ax in spec.axioms:
        for _ in range(20):
            bindings = {}
            for t in {m for m in ax.metavars()}:
                sort = next(
                    s.sort
                    for s in _pattern_metavars(ax.lhs, ax.rhs)
                    if s.name == t
                )
                if sort == "constant":
                    bindings[t] = Constant(rng.choice("TF"))
                elif sort == "literal":
                    bindings[t] = Variable(rng.choice("xyz"), rng.random() < 0.5)
                else:
                    bindings[t] = random_formula(rng, 2)
            lhs = instantiate(spec, ax.lhs, bindings)
            rhs = instantiate(spec, ax.rhs, bindings)
            names = sorted(variables(lhs) | variables(rhs))
            from medial.system_p import all_valuations

            for v in all_valuations(names):
                assert evaluate(lhs, v) == evaluate(rhs, v)


def _pattern_metavars(*patterns):
    from medial.terms import Metavar, subterms

    for p in patterns:
        for t in subterms(p):
            if isinstance(t, Metavar):
                yield t


def test_prove_line_examples():
    d = prove_line(Variable("x"), {"x": True})
    assert d.premise == T
    assert d.conclusion == parse_formula("(x | ~x)")
    assert check(spec, d) is None

    # projections route through the selection axioms
    d = prove_line(parse_formula("(x p0 y)"), {"x": True, "y": True})
    assert check(spec, d) is None
    assert d.conclusion == parse_formula("((x p0 y) | ~x | ~y)")

    # a falsified conjunction is signed negatively
    valuation = {"x": True, "y": False}
    d = prove_line(parse_formula("(x & y)"), valuation)
    assert check(spec, d) is None
    assert d.conclusion == parse_formula("((~x | ~y) | ~x | y)")
    assert evaluate(d.conclusion, valuation) is True


def test_prove_line_signs_cover_all_patterns():
    f = parse_formula("(x & y)")
    seen = set()
    for valuation in all_valuations(("x", "y")):
        d = prove_line(f, valuation)
        assert check(spec, d) is None
        assert evaluate(d.conclusion, valuation) is True
        opps = tuple(opposite_literal(n, valuation).negated for n in ("x", "y"))
        seen.add(opps)
    assert len(seen) == 4


def test_prove_line_variable_mismatch():
    with pytest.raises(VariableMismatch):
        prove_line(Variable("x"), {"x": False, "y": False})


def test_prove_tautology_plain():
    d = prove_tautology(parse_formula("(x | ~x)"))
    assert d.premise == T
    assert d.conclusion == parse_formula("(x | ~x)")
    assert check(spec, d) is None


def test_prove_tautology_with_hypotheses():
    d = prove_tautology(Variable("x"), [parse_formula("(x & y)")])
    assert d.conclusion == parse_formula("(x | (~x | ~y))")
    assert check(spec, d) is None


def test_prove_tautology_closed():
    d = prove_tautology(parse_formula("(T | F)"))
    assert check(spec, d) is None
    assert d.conclusion == parse_formula("(T | F)")


@pytest.mark.parametrize("text", ["(x | (y p1 (x | ~x)))", "(T | ((x | x) p0 y))"])
def test_prove_tautology_disjunction_under_projection(text):
    # the projection's kept side is a disjunction, inserted part by part
    d = prove_tautology(parse_formula(text))
    assert d.premise == T and d.conclusion == parse_formula(text)
    assert check(spec, d) is None


def _all_true_or_some_false(n):
    """(x0 & ... & xn-1) | ~x0 | ... | ~xn-1."""
    names = [f"x{i}" for i in range(n)]
    return parse_formula(
        "((" + " & ".join(names) + ") | " + " | ".join("~" + m for m in names) + ")"
    )


# the benchmark's tautologies have at most two variables; these pin the
# fold order over three and four
@pytest.mark.parametrize("goal, hypotheses, digest", [
    (_all_true_or_some_false(3), (),
     "4aa5a35914a649218419e42809f0c9f1244cc2825b8fc46809615881d0503eba"),
    (_all_true_or_some_false(4), (),
     "025574fb871f314a113a949b31fbafec0a2d84eafb4af7218a69f67fd6c76ebc"),
    (parse_formula("((x p0 y) & (z p1 y))"),
     (parse_formula("x"), parse_formula("(y & z)")),
     "4c2646128824d3813051a9c121c98d27ae79dcfa0318f37c440c7f16f7db0364"),
])
def test_prove_tautology_output_is_pinned(goal, hypotheses, digest):
    d = prove_tautology(goal, hypotheses)
    assert check(spec, d) is None
    assert hashlib.sha256(to_text(spec, d).encode()).hexdigest() == digest


def test_prove_tautology_random_with_constants():
    rng = random.Random(5)
    proved = 0
    while proved < 300:
        f = random_formula(rng, 3, names=("x", "y"))
        if not is_tautology(f):
            continue
        d = prove_tautology(f)
        assert d.premise == T and d.conclusion == f
        assert check(spec, d) is None, f
        proved += 1


def test_prove_tautology_rejects_falsifiable():
    with pytest.raises(NotATautology):
        prove_tautology(Variable("x"))
