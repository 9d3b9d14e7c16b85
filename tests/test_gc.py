"""Kernel calls free what they build by reference counting alone: none
leaves a reference cycle for the cyclic collector."""

import collections
import contextlib
import gc
import random
import weakref

from medial import system_p, systems, terms
from medial.generators import derive_contraction, derive_excluded_middle
from medial.r23 import random_clone_formula
from medial.derivations import Builder, Rope, check, dualize, from_text, length, to_text
from medial.splitting import HOLE, eliminate_all_up, instantiate_hole, make_fragment
from medial.system_p import is_tautology, make_p_spec, prove_tautology
from medial.systems import spec_from_text
from medial.terms import (
    Compound,
    Variable,
    ac_canonical,
    negate,
    parse_formula,
    print_formula,
)

from helpers import P_TEXT, enumerate_formulas, injected_corpus


@contextlib.contextmanager
def _cyclic_garbage():
    """Yields a Counter that, after the block, holds by kind what the
    cyclic collector found during it."""
    kinds: collections.Counter = collections.Counter()
    flags = gc.get_debug()
    gc.collect()
    before = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds, to count it
    try:
        yield kinds
        gc.collect()
    finally:
        gc.set_debug(flags)
        found = gc.garbage[before:]
        del gc.garbage[before:]
    kinds.update(getattr(o, "__qualname__", type(o).__name__) for o in found)


def test_kernel_calls_leave_no_cyclic_garbage():
    spec = make_p_spec()
    frag = make_fragment(spec)
    # proofs 11, 15 and 19 of this corpus reach the regrouped-spine split
    corpus = injected_corpus(seed=20240817, size=20)[10:]
    with _cyclic_garbage() as kinds:
        for proof in corpus:
            eliminate_all_up(frag, proof)
        for text in ("(T | F)", "(x | ~x)", "((x p0 y) | (~x p0 z))"):
            prove_tautology(parse_formula(text))
        d = prove_tautology(parse_formula("((x & y) | (~x | ~y))"))  # 166 steps
        check(spec, d)
        from_text(to_text(spec, d), lambda name: spec)
        print_formula(d.conclusion, spaces=False)
        # a derivation spliced below the root, read lazily: no placed part
        # holds a reference cycle
        b = Builder(spec, Compound("&", terms.Constant("T"), Variable("x")))
        b.splice(("L",), prove_tautology(parse_formula("((T | F) & T)")))
        spliced = b.derivation()
        assert len(spliced) == len(spliced.steps) > 1
        assert spliced.steps[-1] is spliced.steps[1:][-1]
        assert [s.rule for s in spliced.steps][0] is spliced.steps[0].rule
        assert check(spec, dualize(spec, spliced)) is None
        del b, spliced
        derive_excluded_middle(spec, "&", parse_formula("((x | y) & (x p0 ~y))"))
        derive_contraction(spec, "|", parse_formula("((x | y) & (x p1 ~y))"))
        # atoms with names nothing else holds, so each is made, interned
        # and freed here
        fresh = parse_formula("((gc_a & ~gc_b) | (~gc_a | gc_b))")
        negate(spec, negate(spec, fresh))
        from_text(to_text(spec, prove_tautology(fresh)), lambda name: spec)
        del fresh
        rng = random.Random(3)
        for clone in ("C2", "C3"):
            random_clone_formula(rng, clone, 4)
    assert kinds == {}


def test_lemma_table_dies_with_the_proof(monkeypatch):
    # the lemmas a proof builds, but for the atom seeds and one-atom clauses
    # that spec.atom_lemmas keeps, are held by its call alone: the spec
    # gains no attribute, and by reference counting alone each contraction
    # is freed when the call returns, and the steps placed from it when
    # the proof is
    spec = make_p_spec()
    lemmas, placed_steps = [], []
    original = system_p.contraction

    def recorded(*args):
        d = original(*args)
        lemmas.append(weakref.ref(d))
        if isinstance(d.steps, Rope):
            placed_steps.append(weakref.ref(d.steps))
        return d

    monkeypatch.setattr(system_p, "contraction", recorded)
    attributes = set(vars(spec))
    gc.disable()
    try:
        proof = prove_tautology(parse_formula("((x & y & z) | ~x | ~y | ~z)"))
        assert set(vars(spec)) == attributes
        assert lemmas and all(d() is None for d in lemmas)
        assert placed_steps and all(steps() is not None for steps in placed_steps)
        del proof
        assert all(steps() is None for steps in placed_steps)
    finally:
        gc.enable()


def test_synthesis_leaves_only_what_the_spec_keeps():
    # proving, printing and checking keeps no formula beyond the few that
    # the spec's caches (eq_cache, atom_lemmas, the oriented axioms) hold
    spec = make_p_spec()
    leaves = (Variable("x"), Variable("x", True), Variable("y"), Variable("y", True))
    goals = [f for f in enumerate_formulas(3, leaves) if is_tautology(f)][:300]
    assert len(goals) == 300
    gc.collect()
    start = len(terms._interned)
    for f in goals:
        d = prove_tautology(f)
        assert from_text(to_text(spec, d), lambda name: spec)[1] == d
        assert check(spec, d) is None
    del d
    assert len(terms._interned) - start <= 64


def test_atom_lemmas_stay_bounded_and_change_no_output(monkeypatch):
    # the atom seeds and one-atom clauses that a copy of P keeps serve every
    # later proof: 300 goals proved in two seed-fixed orders, the first from
    # an empty table and the second from a full one, print the same text,
    # and the table holds at most four lemmas per atom met, keyed by atoms
    own = spec_from_text(P_TEXT)
    monkeypatch.setattr(system_p, "make_p_spec", lambda: own)
    leaves = (Variable("x"), Variable("x", True), Variable("y"), Variable("y", True))
    goals = [f for f in enumerate_formulas(3, leaves) if is_tautology(f)][:300]
    texts = []
    for seed in (1, 2):
        random.Random(seed).shuffle(goals)
        texts.append({f: to_text(own, prove_tautology(f)) for f in goals})
    assert texts[0] == texts[1]
    parts, todo = [], list(own.atom_lemmas)
    while todo:  # the parts of every key, through its nested tuples
        part = todo.pop()
        if type(part) is tuple:
            todo += part
        else:
            parts.append(part)
    assert not any(isinstance(part, Compound) for part in parts)
    atoms = {part for part in parts if isinstance(part, (Variable, terms.Constant))}
    assert atoms and len(own.atom_lemmas) <= 4 * len(atoms)


def test_rule_instance_table_empties_with_the_proof():
    # the table of built rule instances holds none alive: once a proof and
    # what its check and round trip built are dropped, it is back at its
    # start size, by reference counting alone
    spec = make_p_spec()
    goal = parse_formula("((x & y & z) | ~x | ~y | ~z)")
    prove_tautology(goal)  # the spec's eq_cache keeps the instances it answers with
    gc.collect()
    start = len(systems._instances)
    gc.disable()
    try:
        d = prove_tautology(goal)
        assert len(systems._instances) > start
        assert check(spec, d) is None
        assert from_text(to_text(spec, d), lambda name: spec)[1] == d
        del d
        assert len(systems._instances) == start
    finally:
        gc.enable()


def test_a_used_spec_is_freed_by_reference_counting():
    own = spec_from_text(P_TEXT)
    corpus = injected_corpus(seed=20240817, size=5)
    with _cyclic_garbage() as kinds:
        gc.disable()  # what goes below must go by reference counting
        try:
            frag = make_fragment(own)
            x = Variable("x")
            f = parse_formula("((y & x) | (~x p0 (z | x)))")
            ac_canonical(own, f)
            d = derive_excluded_middle(own, "&", f)
            assert check(own, d) is None
            assert from_text(to_text(own, d), lambda name: own)[1] == d
            z = Variable("z")
            b = Builder(own, Compound("|", Compound("|", z, z), x))
            b.splice(("L",), derive_contraction(own, "|", z))
            assert check(own, b.derivation()) is None
            for proof in corpus:
                assert check(own, eliminate_all_up(frag, proof)) is None
                assert length(own, proof) >= 0
            # a context holding the hole and its negation, filled
            ctx = Builder(own, Compound("&", HOLE, negate(own, HOLE)))
            ctx.rewrite(("L",), Compound("|", HOLE, terms.Constant("F")))
            instantiate_hole(own, dualize(own, ctx.derivation()), f)
            alive = weakref.ref(own)
            del own, frag, b, d, ctx
            assert alive() is None
        finally:
            gc.enable()
    assert kinds == {}


def test_elimination_keeps_no_formula_on_the_fragment():
    # once the spec's caches and the memos on live terms are warm,
    # eliminating the corpus through one fragment leaves the intern table
    # at its start size: the fragment keeps no costed rule, and no table of
    # pads, fills or parsed bindings outlives its call
    own = spec_from_text(P_TEXT)
    texts = [to_text(own, d) for d in injected_corpus(seed=20240817, size=100)]

    def eliminate_corpus(frag):
        for text in texts:
            eliminate_all_up(frag, from_text(text, lambda name: own)[1])

    # two warm passes: equal_mod_ac canonicalises only the pairs its spine
    # test leaves, and a pass that searches for axioms (the first) meets
    # other pairs than one that reads the eq_cache, so a few terms the
    # eq_cache keeps get their canonical form memoised only in the second
    for _ in range(2):
        eliminate_corpus(make_fragment(own))
    gc.collect()
    start = len(terms._interned)
    frag = make_fragment(own)
    eliminate_corpus(frag)
    assert len(terms._interned) == start
