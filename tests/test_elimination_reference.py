"""The elimination path against the loops it replaced, and the work it may
do: unit pads are built from the spec's named unit axiom instead of searched,
each rule instance is costed once, `instantiate_hole` fills each node once,
`from_text` parses each binding text once and the splitter builds no
`Builder` for a part that already ends where it is pinned."""

import collections
import hashlib
import random
from dataclasses import replace

import pytest

import medial.derivations as derivations
import medial.splitting as splitting
import medial.systems as systems
import medial.terms as terms
from medial.derivations import (
    Builder,
    Derivation,
    Step,
    dualize,
    from_text,
    length,
    mark_exact,
    step_cost,
    to_text,
)
from medial.splitting import (
    HOLE,
    IrreducibleCase,
    context_reduce,
    eliminate_all_up,
    first_up_index,
    instantiate_hole,
    make_fragment,
)
from medial.system_p import make_p_spec, prove_tautology
from medial.systems import Scheme, instantiate, spec_from_text, spec_to_text
from medial.terms import (
    Compound,
    Constant,
    PathStep,
    Variable,
    equal_mod_ac,
    join,
    negate,
    parse_formula,
)

from helpers import ac_flag_shapes, injected_corpus, random_formula

spec = make_p_spec()
PAIRS = spec.weak_units
T, F = Constant("T"), Constant("F")


def _fresh_spec():
    """A copy of P with caches of its own, so that counts do not depend on
    what other tests left in the shared spec's caches."""
    return spec_from_text(spec_to_text(spec))


@pytest.fixture(scope="module")
def corpus_and_eliminated():
    frag = make_fragment(spec)
    corpus = injected_corpus(seed=20240817, size=100)
    return corpus, [eliminate_all_up(frag, d) for d in corpus]


@pytest.fixture(scope="module")
def synthesised(height3):
    return height3.proofs[:300]


# ---------------------------------------------------------------------------
# Unit pads by name


def _is_pad(spec, lhs, rhs):
    """Is lhs -> rhs a query X -> (X' rel u), X' AC-equal to X, at a pad?"""
    return (isinstance(rhs, Compound) and (rhs.rel, rhs.right) in spec.pads
            and equal_mod_ac(spec, rhs.left, lhs))


def _pads_reached(monkeypatch, frag, corpus):
    """(X, target) of every pad the elimination of corpus asks eq_step_for,
    directly or through Builder.rewrite."""
    reached = []
    original = systems.eq_step_for

    def recording(spec, lhs, rhs):
        if _is_pad(spec, lhs, rhs):
            reached.append((lhs, rhs))
        return original(spec, lhs, rhs)

    for module in (splitting, derivations):
        monkeypatch.setattr(module, "eq_step_for", recording)
    for d in corpus:
        eliminate_all_up(frag, d)
    monkeypatch.undo()
    return reached


def test_named_pads_are_what_the_search_finds(monkeypatch):
    frag = make_fragment(spec)
    assert set(spec.pads) == {("|", F), ("&", T)}
    reached = _pads_reached(monkeypatch, frag, injected_corpus(seed=20240817, size=100))
    assert len(reached) > 1000
    assert {(t.rel, t.right) for _, t in reached} == set(spec.pads)
    rng = random.Random(20261019)
    xs = [T, F, Variable("x"), Variable("x", True)]
    while len(xs) < 1200:
        r = random_formula(rng, rng.randint(1, 4))
        xs.append(r)
        # weak-rooted formulas holding the unit or the co-unit among their
        # elements, where a unit axiom could match more than one way
        xs.append(join("|", [r, F, random_formula(rng, 2)]))
        xs.append(Compound("&", T, Compound("&", r, T)))
    cases = reached + [
        (x, Compound(rel, x, c)) for x in xs for rel, c in spec.pads
    ]
    # every pad is answered from spec.pads: neither searched nor cached
    searched, search = [], systems._eq_step_for

    def counted_search(spec, lhs, rhs):
        searched.append((lhs, rhs))
        return search(spec, lhs, rhs)

    monkeypatch.setattr(systems, "_eq_step_for", counted_search)
    cached = len(spec.eq_cache)
    named = [systems.eq_step_for(spec, x, target) for x, target in cases]
    monkeypatch.undo()
    assert searched == [] and len(spec.eq_cache) == cached
    for (x, target), inst in zip(cases, named):
        assert inst.premise is x
        assert inst == systems._eq_step_for(spec, x, target), (x, target)


def test_a_pad_another_axiom_could_answer_first_is_searched():
    # idempotence ahead of the unit axiom answers F -> (F | F) by itself
    text = spec_to_text(spec).replace(
        "axiom: or_unit", "axiom: idem (A|A) = A\naxiom: or_unit"
    )
    own = spec_from_text(text)
    frag = make_fragment(own)
    assert own.pads == {}
    assert systems._eq_step_for(own, F, Compound("|", F, F)).axiom_id == "idem"
    x = Variable("x")
    assert systems._eq_step_for(own, x, Compound("|", x, F)).axiom_id == "or_unit"
    for d in injected_corpus(seed=20240817, size=10):
        assert derivations.check(own, eliminate_all_up(frag, d)) is None


# ---------------------------------------------------------------------------
# Costs


def _reference_is_weak_axiom_step(spec, pairs, prem, conc):
    """_is_weak_axiom_step as it was before it tested roots and elements:
    every candidate canonicalised."""
    if equal_mod_ac(spec, prem, conc):
        return True
    for beta, unit, co_unit in pairs:
        u, nu = Constant(unit), Constant(co_unit)
        for big, small in ((prem, conc), (conc, prem)):
            if equal_mod_ac(spec, big, Compound(beta, small, u)):
                return True
            if (
                small == nu
                and isinstance(big, Compound)
                and big.rel == beta
                and isinstance(big.left, (Constant, Variable))
                and negate(spec, big.left) == big.right
            ):
                return True
    return False


def _reference_cost(step):
    rule = step.rule
    if rule.scheme is Scheme.AC:
        return 0
    if rule.scheme.is_medial:
        return 1
    return 0 if _reference_is_weak_axiom_step(spec, PAIRS, rule.premise, rule.conclusion) else 1


def test_filtered_step_cost_agrees_with_reference(corpus_and_eliminated, synthesised):
    corpus, eliminated = corpus_and_eliminated
    costs = collections.Counter()
    for d in corpus + eliminated + synthesised:
        for step in d.steps:
            if step.rule.scheme is Scheme.EQ:
                cost = step_cost(spec, step)
                assert cost == _reference_cost(step), step.rule
                costs[cost] += 1
        assert length(spec, d) == sum(_reference_cost(s) for s in d.steps)
    assert costs[0] > 1000 and costs[1] > 1000
    # every axiom orientation under random bindings of its sorts
    rng = random.Random(20261020)
    by_sort = {
        "formula": lambda: random_formula(rng, rng.randint(0, 3)),
        "constant": lambda: rng.choice((T, F)),
        "literal": lambda: Variable(rng.choice("xyz"), rng.random() < 0.5),
    }
    sorts = {}
    for o in spec.oriented_axioms.values():
        for t in terms.subterms(o.premise):
            if isinstance(t, terms.Metavar):
                sorts[t.name] = t.sort
    for o in spec.oriented_axioms.values():
        for _ in range(50):
            rule = o.instance(spec, {m: by_sort[sorts[m]]() for m in o.metavars})
            step = Step((), rule)
            assert step_cost(spec, step) == _reference_cost(step), rule
    # associativity and commutativity are flags: the steps between the
    # random pairs their former axioms related are acr steps, and free
    free = 0
    for lhs, rhs in ac_flag_shapes():
        for negated in (False, True):
            if negated:
                lhs, rhs = negate(spec, lhs), negate(spec, rhs)
            for _ in range(50):
                binding = {m: by_sort["formula"]() for m in "ABC"}
                prem, conc = instantiate(spec, lhs, binding), instantiate(spec, rhs, binding)
                for step in (Step((), systems.ac_instance(spec, prem, conc)),
                             Step((), systems.ac_instance(spec, conc, prem))):
                    free += step_cost(spec, step) == _reference_cost(step) == 0
    assert free == 6 * 2 * 50 * 2


def test_cost_memo_answers_each_spec_and_is_not_part_of_the_instance():
    d = prove_tautology(parse_formula("((x & y) | (~x | ~y))"))
    own = _fresh_spec()
    assert length(spec, d) == length(own, d) == sum(_reference_cost(s) for s in d.steps)
    rule = next(s.rule for s in d.steps if s.rule.cost_memo is not None)
    assert rule.cost_memo[0] is own.ac_token
    copy = replace(rule)
    assert copy == rule and hash(copy) == hash(rule) and copy.cost_memo is None
    assert "cost_memo" not in repr(rule)


def test_each_rule_instance_is_costed_once_and_no_pad_is_searched(monkeypatch):
    own = _fresh_spec()
    frag = make_fragment(own)
    corpus = injected_corpus(seed=20240817, size=100)
    searched = []
    search = systems._eq_step_for

    def counted_search(spec, lhs, rhs):
        searched.append((lhs, rhs))
        return search(spec, lhs, rhs)

    costed = collections.Counter()
    rules = []  # held, so that no id is reused during the count
    cost = derivations.step_cost

    def counted_cost(spec, step):
        costed[id(step.rule)] += 1
        rules.append(step.rule)
        return cost(spec, step)

    monkeypatch.setattr(systems, "_eq_step_for", counted_search)
    monkeypatch.setattr(derivations, "step_cost", counted_cost)
    for d in corpus:
        eliminate_all_up(frag, d)
    monkeypatch.undo()
    assert own.pads
    assert [(lhs, rhs) for lhs, rhs in searched if _is_pad(own, lhs, rhs)] == []
    assert 0 < len(searched) <= 560  # 1,605 while the pads were searched
    assert len(costed) > 1000 and max(costed.values()) == 1


# ---------------------------------------------------------------------------
# Hole filling


def _reference_instantiate_hole(spec, d, x):
    """instantiate_hole as it was: every formula of every step rebuilt by
    instantiate."""
    binding = {HOLE.name: x}

    def fill(f):
        return instantiate(spec, f, binding)

    def fix_rule(rule):
        return replace(
            rule,
            premise=fill(rule.premise),
            conclusion=fill(rule.conclusion),
            bindings=tuple((k, fill(v)) for k, v in rule.bindings),
        )

    steps = tuple(
        Step(
            tuple(PathStep(p.rel, p.hole_side, fill(p.sibling)) for p in s.context),
            fix_rule(s.rule),
        )
        for s in d.steps
    )
    out = Derivation(fill(d.premise), steps, fill(d.conclusion))
    return mark_exact(out) if d.exact else out


def _negated_hole_context():
    """A context derivation holding the hole and its negation: padded,
    split down and then dualized, which negates every formula."""
    y = Variable("y")
    b = Builder(spec, Compound("&", HOLE, negate(spec, HOLE)))
    b.rewrite(("L",), Compound("|", HOLE, F))
    b.rewrite(("R",), Compound("|", negate(spec, HOLE), F))
    up = b.derivation()
    b = Builder(spec, Compound("&", Compound("|", HOLE, y), Compound("|", y, HOLE)))
    b.apply_scheme((), Scheme.SPLIT_DOWN, dict(A=HOLE, B=y, C=y, D=HOLE), "&", "|")
    return [up, dualize(spec, up), b.derivation()]


def test_instantiate_hole_agrees_with_reference():
    frag = make_fragment(spec)
    contexts = _negated_hole_context()
    assert any(
        isinstance(f, terms.Metavar) and f.negated
        for d in contexts for s in d.steps for f in terms.subterms(s.rule.premise)
    )
    fills = [(d, parse_formula("(x | (~y & z))")) for d in contexts]
    for d in injected_corpus(seed=20240817, size=100):
        i = first_up_index(frag, d)
        sigma = d.steps[i]
        try:
            ctx = context_reduce(frag, splitting.before_step(d, i), sigma.sides).ctx
        except IrreducibleCase:  # a redex in weakening junk: no context to reduce
            continue
        fills.append((ctx, sigma.rule.conclusion))
    assert len(fills) > 50
    for d, x in fills:
        filled = instantiate_hole(spec, d, x)
        reference = _reference_instantiate_hole(spec, d, x)
        assert filled == reference
        assert filled.exact == reference.exact


# ---------------------------------------------------------------------------
# Parsing and the split records


def test_from_text_parses_each_binding_text_once(monkeypatch, corpus_and_eliminated):
    _, eliminated = corpus_and_eliminated
    d = max(eliminated, key=lambda d: len(d.steps))
    text = to_text(spec, d)
    bindings = []
    for line in text.splitlines():
        if line.startswith("step:"):
            fields = derivations._parse_fields(line[len("step:"):])
            bindings += [v for k, v in fields.items() if k not in ("rule", "path", "dir", "rel")]
    assert len(set(bindings)) < len(bindings)
    parsed = []
    original = derivations.parse_formula

    def counted(text, *args):
        parsed.append(text)
        return original(text, *args)

    monkeypatch.setattr(derivations, "parse_formula", counted)
    assert from_text(text, lambda name: spec)[1] == d
    assert len(parsed) == len(set(bindings)) + 2  # and the premise and conclusion


def test_split_records_are_the_pinned_sequence():
    """The splits made over the corpus, with their lengths, are those the
    elimination made while it searched every pad and kept costs on the
    fragment."""
    frag = make_fragment(_fresh_spec())
    records = []
    for d in injected_corpus(seed=20240817, size=100):
        eliminate_all_up(frag, d, records)
    rows = [(r.alpha, r.kind, r.len_p, r.len_q0, r.len_q1) for r in records]
    assert len(rows) == 3650
    assert all(r.bound_holds for r in records)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "f2585475fa0a750f5c84d5211bc0224cb212412987da75773e16d3f37053cbe9"
    )


def test_splitting_builds_a_builder_only_where_a_part_changes(monkeypatch):
    """A splitter level returns a part that already ends at the formula it
    is pinned to as it is; rebuilding each one through a Builder took
    16,285 of them over this corpus."""
    frag = make_fragment(_fresh_spec())
    corpus = injected_corpus(seed=20240817, size=100)
    built = []
    original = Builder.__init__

    def counted(self, *args):
        built.append(None)
        original(self, *args)

    monkeypatch.setattr(Builder, "__init__", counted)
    records = []
    for d in corpus:
        eliminate_all_up(frag, d, records)
    assert len(records) == 3650
    assert len(built) <= 5000


def test_dense_elimination_output_is_pinned():
    """Elimination output outside the benchmark corpus: the first 40 proofs
    of the 4-6 up-rule set, under the default recursion limit."""
    frag = make_fragment(spec)
    corpus = injected_corpus(seed=20261019 + 4, size=40, ups=(4, 6))
    out = [eliminate_all_up(frag, d) for d in corpus]
    assert sum(len(e.steps) for e in out) == 3627
    text = "".join(to_text(spec, e) for e in out)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cff9f3694a80ba97b2e3375eace6493d34e53983bbe1a2c5c3fea0784fe06263"
    )
