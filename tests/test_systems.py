import itertools
import random

import pytest

import medial.systems as systems
from medial.system_p import make_p_spec
from medial.systems import (
    MatchBudgetExhausted,
    Metavar,
    RelationSymbol,
    Scheme,
    SideConditionViolated,
    SystemSpec,
    ac_instance,
    classify_relation,
    eq_instance,
    eq_step_for,
    instantiate_rule,
    iter_matches,
    spec_from_text,
    validate_spec,
)
from medial.terms import (
    Constant,
    Variable,
    equal_mod_ac,
    negate,
    parse_formula,
    print_formula,
    subterms,
)

from helpers import P_TEXT, ac_flag_shapes, enumerate_formulas, random_formula

spec = make_p_spec()
a, b, c, d = (Variable(n) for n in "abcd")
ABCD = dict(A=a, B=b, C=c, D=d)


def test_validate_p_ok():
    assert validate_spec(spec) == []


def test_validate_catches_reflexive_order():
    bad = SystemSpec(
        name="bad",
        constants=("T", "F"),
        constant_negation={"T": "F", "F": "T"},
        relations=(RelationSymbol("r", "r"),),
        order=(("r", "r"),),
    )
    assert any("irreflexive" in issue for issue in validate_spec(bad))


def test_validate_flags_exclusive():
    bad = SystemSpec(
        name="bad",
        constants=("T", "F"),
        constant_negation={"T": "F", "F": "T"},
        relations=(RelationSymbol("r", "r", unitary="T", right_weakening=True),),
    )
    assert any("exclusive" in issue for issue in validate_spec(bad))


def test_validate_flags_repeated_rule_shape():
    # a step of either rule would be rebuilt under one label only
    twin = spec_from_text(P_TEXT + "rule: sd2 split_down & |\n")
    assert validate_spec(twin) == ["rule sd shares its shape with sd2"]


def test_validate_reports_repeated_axiom_id():
    # the second const_idem would replace the first in every table keyed by id
    twin = spec_from_text(P_TEXT.replace("axiom: var_idem", "axiom: const_idem"))
    assert len(twin.axioms_by_id) == len(twin.axioms) - 1
    assert validate_spec(twin) == ["axiom id const_idem declared 2 times"]


def test_validate_reports_repeated_rule_id():
    # a p1 contraction labelled c0d would be written as a step that reads
    # back as the p0 rule of that id
    twin = spec_from_text(P_TEXT.replace("rule: c1d", "rule: c0d"))
    assert twin.rules_by_id["c0d"].alpha == "p1"
    assert validate_spec(twin) == ["rule id c0d declared 2 times"]


def test_validate_reports_axiom_with_undeclared_symbol():
    # reported before the unit probe, which would negate zz
    own = spec_from_text(P_TEXT + "axiom: foo (A zz B) = A\n")
    assert validate_spec(own) == ["axiom foo cannot be negated: no negation declared for zz"]
    own = spec_from_text(P_TEXT.replace("negation: F = T\n", ""))
    assert [i for i in validate_spec(own) if i.startswith("axiom")] == [
        "axiom or_unit cannot be negated: no negation declared for F",
        "axiom and_false cannot be negated: no negation declared for F",
    ]


def test_validate_reports_rules_that_cannot_be_instantiated():
    for line, issue in (
        ("rule: x split_down & zz", "split_down needs order between &,zz"),
        ("rule: x eq_down & |", "eq_down is not a medial scheme"),
        ("rule: x split_up & |", "split_up needs order between &,|"),
    ):
        issues = validate_spec(spec_from_text(P_TEXT + line + "\n"))
        assert issues == [f"rule x cannot be instantiated: {issue}"]


def test_classify_relation():
    assert classify_relation(spec, "&") == "strong"
    assert classify_relation(spec, "|") == "weak"
    assert classify_relation(spec, "p0") == "intermediate"
    assert classify_relation(spec, "p1") == "intermediate"


def test_instantiate_rule_switch():
    rule = instantiate_rule(spec, Scheme.SPLIT_DOWN, ABCD, "&", "|")
    assert rule.premise == parse_formula("((a | b) & (c | d))")
    assert rule.conclusion == parse_formula("((a & c) | (b | d))")
    assert rule.rule_id == "sd"


def test_instantiate_rule_projection_self_dual():
    rule = instantiate_rule(spec, Scheme.SPLIT_DOWN, ABCD, "p0", "|")
    assert rule.premise == parse_formula("((a | b) p0 (c | d))")
    assert rule.conclusion == parse_formula("((a p0 c) | (b p0 d))")


def test_instantiate_rule_side_condition():
    with pytest.raises(SideConditionViolated):
        instantiate_rule(spec, Scheme.SPLIT_DOWN, ABCD, "|", "|")


def test_rule_rebuild_round_trip():
    for decl in spec.rules:
        rule = instantiate_rule(spec, decl.scheme, ABCD, decl.alpha, decl.beta)
        assert rule.rule_id == decl.rule_id
        rebuilt = instantiate_rule(
            spec, decl.scheme, dict(rule.bindings), decl.alpha, decl.beta
        )
        assert rebuilt.premise == rule.premise
        assert rebuilt.conclusion == rule.conclusion


def test_split_down_up_are_inverse_shapes():
    from medial.systems import _scheme_shapes

    down_prem, down_conc = _scheme_shapes(spec, Scheme.SPLIT_DOWN, "p0", "|", a, b, c, d)
    up_prem, up_conc = _scheme_shapes(spec, Scheme.SPLIT_UP, "p0", "|", a, b, c, d)
    assert down_prem == up_conc
    assert down_conc == up_prem


def test_eq_step_for_orientations():
    # forward, backward, and negated instances are all found
    inst = eq_step_for(spec, parse_formula("(x | ~x)"), Constant("T"))
    assert inst.axiom_id == "var_em" and inst.direction == "fwd"
    inst = eq_step_for(spec, Constant("T"), parse_formula("(x | ~x)"))
    assert inst.direction == "bwd"
    inst = eq_step_for(spec, parse_formula("(x & y)"), parse_formula("((x & y) & T)"))
    assert inst.axiom_id == "or_unit" and inst.negated
    assert eq_step_for(spec, parse_formula("(x | y)"), Constant("T")) is None


def test_match_pattern_respects_sorts():
    ax = spec.axioms_by_id["var_idem"]
    assert next(iter_matches(spec, ax.lhs, parse_formula("(x | x)")), None) is not None
    assert next(iter_matches(spec, ax.lhs, parse_formula("((x & y) | (x & y))")), None) is None


def test_spec_file_round_trip():
    again = spec_from_text(P_TEXT)
    assert validate_spec(again) == []
    rule = instantiate_rule(again, Scheme.SPLIT_DOWN, ABCD, "&", "|")
    assert rule.rule_id == "sd"


def test_classify_stable_under_incomparable_additions():
    base = dict(
        constants=("T", "F"),
        constant_negation={"T": "F", "F": "T"},
        order=(("a", "b"),),
    )
    small = SystemSpec(
        name="small",
        relations=(RelationSymbol("a", "a"), RelationSymbol("b", "b")),
        **base,
    )
    widened = SystemSpec(
        name="widened",
        relations=(
            RelationSymbol("a", "a"),
            RelationSymbol("b", "b"),
            RelationSymbol("c", "c"),
        ),
        **base,
    )
    for rel in ("a", "b"):
        assert classify_relation(small, rel) == classify_relation(widened, rel)


# ---------------------------------------------------------------------------
# eq_step_for against the exhaustive search it replaced


def _reference_eq_step_for(spec, lhs, rhs):
    """The axiom search as it was before AC-silent axioms were skipped and
    pattern roots prefiltered: every axiom, negated and not, both ways."""
    for ax in spec.axioms:
        for negated in (False, True):
            pl, pr = ax.lhs, ax.rhs
            if negated:
                pl, pr = negate(spec, pl), negate(spec, pr)
            for direction, (pp, pc) in (("fwd", (pl, pr)), ("bwd", (pr, pl))):
                for b in iter_matches(spec, pp, lhs):
                    b2 = next(iter_matches(spec, pc, rhs, b), None)
                    if b2 is None:
                        continue
                    if set(b2) != ax.metavars():
                        continue
                    inst = eq_instance(spec, ax.axiom_id, b2, negated, direction)
                    if equal_mod_ac(spec, inst.premise, lhs) and equal_mod_ac(
                        spec, inst.conclusion, rhs
                    ):
                        return inst
    return None


def _fresh_p_spec():
    """A private copy of P, so the queries below fill no shared cache."""
    return spec_from_text(P_TEXT)


def _one_step_instances(spec, oriented, bindings_by_sort):
    ax = oriented.axiom
    sorts = {t.name: t.sort for t in subterms(ax.lhs) if isinstance(t, Metavar)}
    names = sorted(sorts)
    for combo in itertools.product(*(bindings_by_sort[sorts[n]] for n in names)):
        yield eq_instance(
            spec, ax.axiom_id, dict(zip(names, combo)), oriented.negated, oriented.direction
        )


LEAVES = (Variable("x"), Variable("x", True), Variable("y"))
CONSTANTS = (Constant("T"), Constant("F"))


def test_oriented_axioms_table():
    table = spec.oriented_axioms
    assert len(table) == 4 * len(spec.axioms)
    o = table[("or_unit", True, "bwd")]
    assert o.premise == Metavar("A", True)
    assert o.conclusion == parse_formula("(~A & T)", metavars=True)
    # associativity and commutativity are flags: no orientation restates them
    assert not [o for o in table.values() if equal_mod_ac(spec, o.premise, o.conclusion)]


def test_validate_reports_ac_silent_axioms():
    # P's former assoc/comm axioms, each declared again, name the flag that
    # already says what they say
    names = ("assoc_and", "assoc_or", "assoc_p0", "assoc_p1", "comm_and", "comm_or")
    flags = ("assoc",) * 4 + ("comm",) * 2
    for name, (lhs, rhs), flag in zip(names, ac_flag_shapes(), flags):
        sides = " = ".join(print_formula(p, spaces=False) for p in (lhs, rhs))
        own = spec_from_text(P_TEXT + f"axiom: {name} {sides}\n")
        assert validate_spec(own) == [f"axiom {name} is AC-silent: {lhs.rel} is declared {flag}"]
    for sides, issue in (
        ("(A&(B|C)) = (A&(C|B))", "is AC-silent: | is declared comm"),
        ("((A&B)&C) = (C&(B&A))", "is AC-silent: & is declared comm"),
        ("((A&B)&C) = (A&(C&B))", "is AC-silent: & is declared assoc and comm"),
        ("(((A|B) p0 C) p0 D) = ((B|A) p0 (C p0 D))", "is AC-silent: p0 is declared assoc"),
        ("(A|B) = (A|B)", "has one formula on both sides"),
    ):
        own = spec_from_text(P_TEXT + f"axiom: silent {sides}\n")
        assert validate_spec(own) == [f"axiom silent {issue}"]


def test_eq_step_for_agrees_with_reference_search():
    # every one-step instance of every P axiom, both directions, negated or
    # not, with formula metavariables bound to formulas of height <= 2 over
    # {x, ~x, y}
    fresh = _fresh_p_spec()
    by_sort = {
        "formula": enumerate_formulas(2, LEAVES),
        "literal": LEAVES,
        "constant": CONSTANTS,
    }
    queries = {}
    for oriented in fresh.oriented_axioms.values():
        for inst in _one_step_instances(fresh, oriented, by_sort):
            queries.setdefault((inst.premise, inst.conclusion), inst)
    assert len(queries) > 10000
    for lhs, rhs in queries:
        assert not equal_mod_ac(fresh, lhs, rhs)
        assert eq_step_for(fresh, lhs, rhs) == _reference_eq_step_for(fresh, lhs, rhs)


def test_eq_step_for_ac_equal_pairs_get_acr():
    # associativity and commutativity are flags, not axioms: the pairs their
    # former axioms related, bound to atoms, both ways and negated, are
    # answered by a rearrangement
    fresh = _fresh_p_spec()
    pairs = 0
    for shape in ac_flag_shapes():
        for negated, direction in itertools.product((False, True), repeat=2):
            lhs, rhs = (negate(fresh, p) if negated else p for p in shape)
            if direction:
                lhs, rhs = rhs, lhs
            for combo in itertools.product(LEAVES, repeat=3):
                binding = dict(zip("ABC", combo))
                lhs_i, rhs_i = (systems.instantiate(fresh, p, binding) for p in (lhs, rhs))
                assert eq_step_for(fresh, lhs_i, rhs_i) == ac_instance(fresh, lhs_i, rhs_i)
                pairs += 1
    assert pairs == 6 * 4 * 27
    lhs, rhs = parse_formula("((x & y) | z)"), parse_formula("(z | (y & x))")
    got = eq_step_for(fresh, lhs, rhs)
    assert got.rule_id == "acr" and (got.premise, got.conclusion) == (lhs, rhs)


def test_eq_step_for_reports_exhausted_budget(monkeypatch):
    fresh = _fresh_p_spec()
    lhs, rhs = parse_formula("(x | ~x)"), Constant("T")
    monkeypatch.setattr(systems, "_MATCH_CAP", 1)
    with pytest.raises(MatchBudgetExhausted):
        eq_step_for(fresh, lhs, rhs)
    assert (lhs, rhs) not in fresh.eq_cache
    monkeypatch.undo()
    assert eq_step_for(fresh, lhs, rhs).axiom_id == "var_em"
