"""The kernel's records, RuleInstance, Step, PathStep and Derivation, are
slotted and frozen: they carry no __dict__, refuse assignment to any name,
take exactly their init fields and read every field back.  A RuleInstance
hashes by rule id, premise and conclusion alone, and `check` still judges
each distinct instance value once.  The rule-instance constructors return
the live instance built from the same inputs, per descriptor, and `check`
still rejects an altered copy of one."""

import collections
import inspect
import weakref
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest

import medial.derivations as derivations
import medial.system_p as system_p
from medial.derivations import Derivation, Step, check, steps_length, to_text
from medial.system_p import is_tautology, make_p_spec, prove_tautology
from medial.systems import (
    RuleInstance,
    Scheme,
    ac_instance,
    check_rule_instance,
    eq_instance,
    instantiate_rule,
    spec_from_text,
)
from medial.terms import Compound, PathStep, Variable, parse_formula

from helpers import P_TEXT, enumerate_formulas


LEAVES = (Variable("x"), Variable("x", True), Variable("y"), Variable("y", True))

x, y = Variable("x"), Variable("y")
PATH = PathStep("|", "L", y)
RULE = RuleInstance(Scheme.EQ, "eq:ax", x, Compound("&", x, y), (("A", x),), ("&", "|"),
                    "ax", True, "bwd")
STEP = Step((PATH,), RULE)
DERIVATION = Derivation(x, (STEP,), y)

# each record with the value every field should read back, init=False ones included
RECORDS = [
    (PATH, {"rel": "|", "hole_side": "L", "sibling": y}),
    (RULE, {"scheme": Scheme.EQ, "rule_id": "eq:ax", "premise": x,
            "conclusion": Compound("&", x, y), "bindings": (("A", x),),
            "relations": ("&", "|"), "axiom_id": "ax", "negated": True,
            "direction": "bwd", "cost_memo": None}),
    (STEP, {"context": (PATH,), "rule": RULE}),
    (DERIVATION, {"premise": x, "steps": (STEP,), "conclusion": y}),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, values", RECORDS, ids=IDS)
def test_record_is_slotted_and_frozen(record, values):
    assert not hasattr(record, "__dict__")
    for f in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, None)
    assert {f.name: getattr(record, f.name) for f in fields(record)} == values


@pytest.mark.parametrize("record, values", RECORDS, ids=IDS)
def test_record_refuses_any_name(record, values):
    # a name that is no field raises the same error as a field does
    with pytest.raises(FrozenInstanceError):
        record.foo = 1
    with pytest.raises(FrozenInstanceError):
        del record.foo
    assert not hasattr(record, "foo")


@pytest.mark.parametrize("record, values", RECORDS, ids=IDS)
def test_record_takes_exactly_its_init_fields(record, values):
    cls = type(record)
    empty = inspect.Parameter.empty
    signature = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
    init = [(f.name, empty if f.default is MISSING else f.default) for f in fields(cls) if f.init]
    assert signature == init
    copy = replace(record)
    assert copy is not record and copy == record and hash(copy) == hash(record)


def test_rule_instance_hashes_by_rule_id_premise_and_conclusion():
    assert hash(RULE) == hash((RULE.rule_id, RULE.premise, RULE.conclusion))
    relabelled = replace(RULE, direction="fwd")
    assert relabelled != RULE and hash(relabelled) == hash(RULE)
    assert len({RULE, replace(RULE), relabelled}) == 2


def test_marks_write_through_the_frozen_records():
    d = Derivation(x, (STEP,), y)
    assert d == DERIVATION and weakref.ref(d)() is d
    # a rule instance keeps its cost under the spec that costed it
    rule = replace(RULE)
    steps_length(make_p_spec(), (Step((PATH,), rule),))
    assert rule.cost_memo is not None and rule == RULE


def _value(rule: RuleInstance) -> tuple:
    return tuple([getattr(rule, f.name) for f in fields(rule) if f.compare])


def test_check_judges_each_distinct_instance_value_once(monkeypatch, height3):
    spec = make_p_spec()
    assert len(height3.tautologies) == 2008
    judged: collections.Counter = collections.Counter()
    original = derivations.check_rule_instance

    def counted(spec, rule):
        judged[_value(rule)] += 1
        return original(spec, rule)

    monkeypatch.setattr(derivations, "check_rule_instance", counted)
    equal_but_distinct = 0
    for d in height3.proofs:
        # the constructors return one object per value, so every other step
        # of this copy holds an equal instance built apart by replace
        steps = tuple([Step(s.context, replace(s.rule) if i % 2 else s.rule)
                       for i, s in enumerate(d.steps)])
        judged.clear()
        assert check(spec, Derivation(d.premise, steps, d.conclusion)) is None
        rules = [s.rule for s in steps]
        assert judged == collections.Counter({_value(r) for r in rules})
        equal_but_distinct += len({id(r) for r in rules}) - len(judged)
    assert equal_but_distinct > 0


def test_synthesis_builds_each_rule_instance_once_while_it_lives(monkeypatch):
    # proving, printing and checking the 2,008 height-3 tautologies, one
    # after another, built 203,489 rule instances when each call built its own.
    # They are proved in a copy of P, whose instances are its own, so that
    # no live proof of another test lends this one its instances
    spec = spec_from_text(P_TEXT)
    monkeypatch.setattr(system_p, "make_p_spec", lambda: spec)
    tautologies = [f for f in enumerate_formulas(3, LEAVES) if is_tautology(f)]
    built = 0
    init = RuleInstance.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RuleInstance, "__init__", counted)
    for f in tautologies:
        d = prove_tautology(f)
        to_text(spec, d)
        assert check(spec, d) is None
    assert built <= 110_000


p, q = parse_formula("((x | y) & z)"), parse_formula("(z & (y | x))")
MEDIAL = dict(A=x, B=y, C=Variable("z"), D=x)


def _built(spec):
    """One instance from each constructor, from fixed inputs."""
    return (ac_instance(spec, p, q),
            eq_instance(spec, "or_unit", {"A": p}, True, "bwd"),
            instantiate_rule(spec, Scheme.SPLIT_DOWN, MEDIAL, "&", "|"))


def test_constructors_return_the_live_instance_per_descriptor():
    spec = make_p_spec()
    first = _built(spec)
    again = _built(spec)
    assert all(a is b for a, b in zip(first, again))
    # the bindings' order does not matter, nor do names a medial rule ignores
    shuffled = dict(reversed(MEDIAL.items()), E=y)
    assert instantiate_rule(spec, Scheme.SPLIT_DOWN, shuffled, "&", "|") is first[2]
    # a copy of the descriptor has a token of its own, so instances of its own
    own = spec_from_text(P_TEXT)
    copies = _built(own)
    assert all(a == b and a is not b for a, b in zip(first, copies))
    assert all(check_rule_instance(own, r) is None for r in first + copies)


def test_check_rejects_an_altered_copy_of_a_live_instance():
    spec = make_p_spec()
    acr, eq, medial = _built(spec)
    r = parse_formula("(z & (x | x))")
    altered = [
        replace(acr, rule_id="ac"),
        replace(acr, conclusion=r, bindings=(("A", p), ("B", r))),
        replace(acr, bindings=(("A", p), ("B", p))),
        replace(acr, negated=True),
        replace(eq, direction="fwd"),
        replace(eq, conclusion=p),
        replace(medial, relations=("&", "&")),
        replace(medial, rule_id="s_up"),
        replace(medial, premise=q),
    ]
    assert all(check_rule_instance(spec, a) is not None for a in altered)
    assert all(check_rule_instance(spec, r) is None for r in (acr, eq, medial))
