"""The kernel's records, RuleInstance, Step, PathStep and Derivation, are
slotted and frozen: they carry no __dict__, refuse assignment, take exactly
their init fields and read every field back.  A RuleInstance hashes by rule
id, premise and conclusion alone, and `check` still judges each distinct
instance value once."""

import collections
import inspect
import weakref
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest

import medial.derivations as derivations
from medial.derivations import Derivation, Step, check, mark_exact
from medial.system_p import is_tautology, make_p_spec, prove_tautology
from medial.systems import RuleInstance, Scheme
from medial.terms import Compound, PathStep, Variable

from helpers import enumerate_formulas


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
    (DERIVATION, {"premise": x, "steps": (STEP,), "conclusion": y, "exact": False}),
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
    assert mark_exact(d) is d and d.exact and d == DERIVATION
    assert weakref.ref(d)() is d


def _value(rule: RuleInstance) -> tuple:
    return tuple([getattr(rule, f.name) for f in fields(rule) if f.compare])


def test_check_judges_each_distinct_instance_value_once(monkeypatch):
    spec = make_p_spec()
    tautologies = [f for f in enumerate_formulas(3, LEAVES) if is_tautology(f)]
    assert len(tautologies) == 2008
    judged: collections.Counter = collections.Counter()
    original = derivations.check_rule_instance

    def counted(spec, rule):
        judged[_value(rule)] += 1
        return original(spec, rule)

    monkeypatch.setattr(derivations, "check_rule_instance", counted)
    equal_but_distinct = 0
    for f in tautologies:
        d = prove_tautology(f)
        judged.clear()
        assert check(spec, d) is None
        rules = [s.rule for s in d.steps]
        assert judged == collections.Counter({_value(r) for r in rules})
        equal_but_distinct += len({id(r) for r in rules}) - len(judged)
    # the proofs hold equal instances built apart, which check dedups by value
    assert equal_but_distinct > 0
