"""The kernel's records are slotted classes on one base, `terms._Record`.
RuleInstance, Step, PathStep and Derivation are frozen: they carry no
__dict__, refuse assignment to any name, take exactly their init fields
and read every field back.  Every record prints as it did when it was a
dataclass, and importing the kernel loads neither `dataclasses` nor
`inspect`.  A RuleInstance hashes by rule id, premise and conclusion
alone, and `check` still judges each distinct instance value once.  The
rule-instance constructors return the live instance built from the same
inputs, per descriptor, and `check` still rejects an altered copy of one."""

import collections
import copy as _copy
import inspect
import os
import pickle
import subprocess
import sys
import weakref

import pytest

import medial.derivations as derivations
import medial.system_p as system_p
import medial.systems as systems
from medial.clones import NOT, BoolFn
from medial.derivations import (
    CheckFailure,
    Derivation,
    Step,
    check,
    identity,
    steps_length,
    to_text,
)
from medial.r23 import R23Rule
from medial.splitting import ContextReduction, SplitRecord, SplitResult, make_fragment
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
from medial.terms import (
    Compound,
    FrozenInstanceError,
    Metavar,
    PathStep,
    Variable,
    parse_formula,
)

from helpers import P_TEXT, enumerate_formulas, fields, replace


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
# the constructor defaults of each record that has any
DEFAULTS = {RuleInstance: {"relations": None, "axiom_id": None, "negated": False,
                           "direction": "fwd"}}


@pytest.mark.parametrize("record, values", RECORDS, ids=IDS)
def test_record_is_slotted_and_frozen(record, values):
    assert not hasattr(record, "__dict__")
    for f in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f, None)
    assert {f: getattr(record, f) for f in fields(record)} == values


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
    init = [(f, DEFAULTS.get(cls, {}).get(f, empty)) for f in cls._fields]
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


# the parts of the pinned reprs below
X, Y = "Variable(name='x', negated=False)", "Variable(name='y', negated=False)"
MA, MB = ("Metavar(name='A', negated=False, sort='formula')",
          "Metavar(name='B', negated=False, sort='formula')")
PATH_REPR = f"PathStep(rel='|', hole_side='L', sibling={Y})"
RULE_REPR = (f"RuleInstance(scheme=<Scheme.EQ: 'eq_down'>, rule_id='eq:ax', premise={X}, "
             f"conclusion=Compound(rel='&', left={X}, right={Y}), bindings=(('A', {X}),), "
             "relations=('&', '|'), axiom_id='ax', negated=True, direction='bwd')")
STEP_REPR = f"Step(context=({PATH_REPR},), rule={RULE_REPR})"
ID_X = f"Derivation(premise={X}, steps=(), conclusion={X})"
ID_Y = f"Derivation(premise={Y}, steps=(), conclusion={Y})"


def _one_of_each_record() -> list:
    """(record, its repr as the kernel printed it while its records were
    dataclasses); P's descriptor prints as <spec>."""
    spec = make_p_spec()
    rule = replace(RULE)
    steps_length(spec, (Step((PATH,), rule),))  # the cost it keeps is not printed
    A, B = Metavar("A"), Metavar("B")
    return [
        (PATH, PATH_REPR),
        (spec.relation("&"), "RelationSymbol(name='&', dual='|', associative=True, "
         "commutative=True, unitary='T', right_weakening=False, left_weakening=False)"),
        (spec.axioms_by_id["or_unit"], f"Axiom(axiom_id='or_unit', lhs=Compound(rel='|', "
         f"left={MA}, right=Constant(name='F')), rhs={MA})"),
        (spec.rules[0], "RuleDecl(rule_id='ai0d', scheme=<Scheme.SPLIT_DOWN: 'split_down'>, "
         "alpha='p0', beta='|')"),
        (rule, RULE_REPR),
        (STEP, STEP_REPR),
        (DERIVATION, f"Derivation(premise={X}, steps=({STEP_REPR},), conclusion={Y})"),
        (CheckFailure(3, "ThreadBroken: step premise does not match"),
         "CheckFailure(step_index=3, reason='ThreadBroken: step premise does not match')"),
        (make_fragment(spec), "SplittableFragment(spec=<spec>, down_rules=('ai0d', 'ai1d', "
         "'sd'), up_rules=('ai0u', 'ai1u', 'su'))"),
        (SplitRecord("&", "unitary", 4, 2, None),
         "SplitRecord(alpha='&', kind='unitary', len_p=4, len_q0=2, len_q1=None)"),
        (SplitResult("unitary", "&", x, y, identity(x), None, identity(y)),
         f"SplitResult(kind='unitary', alpha='&', k0={X}, k1={Y}, d={ID_X}, q0=None, "
         f"q1={ID_Y})"),
        (ContextReduction(x, identity(y), identity(x)),
         f"ContextReduction(k={X}, ctx={ID_Y}, q={ID_X})"),
        (NOT, "BoolFn(arity=1, table=(True, False))"),
        (R23Rule("L.x", Compound("->", A, B), Compound("<-", B, A)),
         f"R23Rule(rule_id='L.x', premise=Compound(rel='->', left={MA}, right={MB}), "
         f"conclusion=Compound(rel='<-', left={MB}, right={MA}))"),
    ]


def test_every_record_prints_as_before():
    # a message that embeds a record, such as "length bound violated:
    # SplitRecord(...)", reads as it did
    spec = make_p_spec()
    pinned = _one_of_each_record()
    assert len({type(record) for record, _ in pinned}) == 14
    for record, text in pinned:
        assert repr(record).replace(repr(spec), "<spec>") == text


def test_records_compare_hash_and_pickle_by_value():
    # a copy is rebuilt through the constructor; pickling goes the same way
    assert all(pickle.loads(pickle.dumps(record)) == record for record, _ in RECORDS)
    for record, _ in _one_of_each_record():
        copy = _copy.copy(record)
        assert copy == record and copy is not record
        assert record != tuple([getattr(record, f) for f in record._fields])
        if type(record) is SplitRecord:  # the one mutable record
            with pytest.raises(TypeError):
                hash(record)
            copy.len_p += 1
            assert copy != record
        else:
            assert hash(copy) == hash(record)
            with pytest.raises(FrozenInstanceError):
                copy.foo = 1
    assert issubclass(FrozenInstanceError, AttributeError)
    with pytest.raises(systems.SystemError, match="table length"):
        BoolFn(1, (True,))


def test_importing_the_kernel_loads_neither_dataclasses_nor_inspect():
    # the command line imports every kernel module; its start-up runs no
    # record decorator, and so compiles no generated source
    src = os.path.dirname(os.path.dirname(os.path.abspath(derivations.__file__)))
    code = ("import sys, medial.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def _value(rule: RuleInstance) -> tuple:
    return tuple([getattr(rule, f) for f in rule._fields])


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
