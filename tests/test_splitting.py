import random
import re

import pytest

from medial.derivations import (
    Builder,
    CheckFailure,
    Derivation,
    check,
    exactify,
    from_text,
    to_text,
)
from medial.generators import derive_excluded_middle
from medial import splitting
from medial.splitting import (
    FragmentError,
    IrreducibleCase,
    NotDownFragment,
    SplitRecord,
    SplittingError,
    context_reduce,
    eliminate_all_up,
    eliminate_up_step,
    first_up_index,
    in_down_fragment,
    instantiate_hole,
    make_fragment,
    shallow_split,
)
from medial.system_p import make_p_spec
from medial.systems import RelationSymbol, Scheme, SystemSpec, spec_from_text, validate_spec
from medial.terms import Compound, Constant, Variable, negate, parse_formula

from helpers import P_TEXT, all_tree_positions, inject_su, injected_corpus, random_formula

spec = make_p_spec()
frag = make_fragment(spec)
T = Constant("T")


def test_fragment_rule_lists():
    assert set(frag.down_rules) == {"ai0d", "ai1d", "sd"}
    assert set(frag.up_rules) == {"ai0u", "ai1u", "su"}
    assert spec.weak_units == (("|", "F", "T"),)


def test_splitting_is_descriptor_generic():
    # P without its projections: & and | with their units, excluded middle,
    # idempotence on atoms, sd/md and su/mu.  The splitter reads all it
    # needs from the descriptor, so cut elimination holds here too
    kept = [line for line in P_TEXT.splitlines(keepends=True)
            if "p0" not in line and "p1" not in line]
    assert len(P_TEXT.splitlines()) - len(kept) == 16
    own = spec_from_text("".join(kept).replace("name: P\n", "name: AndOr\n") + "order: & < |\n")
    assert validate_spec(own) == []
    own_frag = make_fragment(own)
    assert (own_frag.down_rules, own_frag.up_rules) == (("sd",), ("su",))
    rng = random.Random(20240817)
    failed, records = [], []
    for n in range(100):
        base = derive_excluded_middle(own, "&", random_formula(rng, 2, rels=("&", "|")))
        b = Builder(own, base.premise)
        b.splice((), base)
        for _ in range(rng.randint(1, 3)):
            inject_su(b, rng.choice(list(all_tree_positions(b.current))))
        d = b.derivation()
        assert check(own, d) is None and first_up_index(own_frag, d) is not None
        out = eliminate_all_up(own_frag, d, records)
        if not (check(own, out) is None
                and (out.premise, out.conclusion) == (d.premise, d.conclusion)
                and first_up_index(own_frag, out) is None
                and all(in_down_fragment(s) for s in out.steps)):
            failed.append(n)
    assert failed == []
    assert records and all(r.bound_holds for r in records)


def test_fragment_requires_weak_relation():
    loner = SystemSpec(
        name="loner",
        constants=("T", "F"),
        constant_negation={"T": "F", "F": "T"},
        relations=(RelationSymbol("r", "r"),),
    )
    with pytest.raises(FragmentError):
        make_fragment(loner)


def test_shallow_split_unitary():
    p = derive_excluded_middle(spec, "&", parse_formula("(x & y)"))
    rec = []
    res = shallow_split(frag, p, ("L",), rec)
    assert res.kind == "unitary"
    assert res.q0 is not None and res.q1 is not None
    assert check(spec, res.q0) is None
    assert check(spec, res.q1) is None
    assert check(spec, res.d) is None
    assert res.q0.conclusion == Compound("|", Variable("x"), res.k0)
    assert res.q1.conclusion == Compound("|", Variable("y"), res.k1)
    assert res.d.premise == Compound("|", res.k0, res.k1)
    assert res.d.conclusion == parse_formula("(~x | ~y)")
    assert all(r.bound_holds for r in rec)


@pytest.mark.parametrize("X", [Variable("x"), Variable("x", True)], ids=["x", "~x"])
def test_shallow_split_atomic_creation(monkeypatch, X):
    # the bottom step creates the split node (~X & X) from the atom F by
    # the negated excluded-middle axiom, run backwards
    F = Constant("F")
    b = Builder(spec, T)
    b.apply_eq((), "or_unit", dict(A=T), direction="bwd")
    b.acr((), Compound("|", F, T))
    b.apply_eq(("L",), "var_em", dict(X=X), negated=True, direction="bwd")
    p = b.derivation()
    node = Compound("&", negate(spec, X), X)
    assert p.conclusion == Compound("|", node, T)
    assert check(spec, p) is None
    made = []
    pair_proof = splitting._Splitter._make_pair_proof

    def spy(self, atom):
        made.append(atom)
        return pair_proof(self, atom)

    monkeypatch.setattr(splitting._Splitter, "_make_pair_proof", spy)
    rec = []
    res = shallow_split(frag, p, ("L",), rec)
    assert made == [node.left, node.right]
    assert res.kind == "unitary"
    for q in (res.q0, res.q1, res.d):
        assert q is not None and check(spec, q) is None
    assert (res.k0, res.k1) == (X, negate(spec, X))
    assert res.q0.premise == T and res.q0.conclusion == Compound("|", node.left, res.k0)
    assert res.q1.premise == T and res.q1.conclusion == Compound("|", node.right, res.k1)
    assert res.d.premise == Compound("|", res.k0, res.k1)
    assert res.d.conclusion == T
    assert rec and all(r.bound_holds for r in rec)


def test_shallow_split_weakening_kinds():
    p = derive_excluded_middle(spec, "&", parse_formula("(x p0 y)"))
    res = shallow_split(frag, p, ("L",))
    assert res.kind == "right_weakening"
    assert res.q0 is not None and res.q1 is None
    p = derive_excluded_middle(spec, "&", parse_formula("(x p1 y)"))
    res = shallow_split(frag, p, ("L",))
    assert res.kind == "left_weakening"
    assert res.q1 is not None and res.q0 is None


def test_shallow_split_rejects_contractive_steps():
    from medial.generators import derive_contraction

    d = derive_contraction(spec, "|", parse_formula("(x & y)"))
    b = Builder(spec, T)
    b.apply_eq((), "var_em", dict(X=Variable("x")), direction="bwd")
    with pytest.raises(NotDownFragment):
        shallow_split(frag, d, ("L",))


def test_shallow_split_length_bound_logged():
    rec = []
    for text in ["((x | y) & (z p0 w))", "((x & y) & (z & w))"]:
        p = derive_excluded_middle(spec, "&", parse_formula(text))
        shallow_split(frag, p, ("L",), rec)
    assert rec and all(r.bound_holds for r in rec)


def test_length_bound_asserted_without_recorder(monkeypatch):
    q = injected_corpus(seed=42, size=1)[0]
    monkeypatch.setattr(SplitRecord, "bound_holds", property(lambda self: False))
    with pytest.raises(SplittingError, match="length bound violated"):
        eliminate_all_up(frag, q, None)


def test_context_reduce_root_hole():
    p = derive_excluded_middle(spec, "&", parse_formula("(x & y)"))
    cr = context_reduce(frag, p, ())
    assert cr.k == Constant("F")
    assert check(spec, cr.q) is None
    inst = instantiate_hole(spec, cr.ctx, p.conclusion)
    assert check(spec, inst) is None


def test_context_reduce_spine_hole():
    p = derive_excluded_middle(spec, "&", parse_formula("(x & y)"))
    # conclusion ((x & y) | (~x | ~y)); select the conjunction
    cr = context_reduce(frag, p, ("L",))
    assert check(spec, cr.q) is None
    assert cr.q.conclusion == Compound("|", parse_formula("(x & y)"), cr.k)
    inst = instantiate_hole(spec, cr.ctx, parse_formula("(x & y)"))
    assert inst.premise == Compound("|", parse_formula("(x & y)"), cr.k)
    assert check(spec, inst) is None
    assert inst.conclusion == p.conclusion


def test_context_reduce_deep_hole():
    p = derive_excluded_middle(spec, "&", parse_formula("((x & y) & z)"))
    # conclusion (((x & y) & z) | ...); hole at the inner conjunction
    cr = context_reduce(frag, p, ("L", "L"))
    assert check(spec, cr.q) is None
    assert cr.q.conclusion == Compound("|", parse_formula("(x & y)"), cr.k)
    inst = instantiate_hole(spec, cr.ctx, parse_formula("(x & y)"))
    assert check(spec, inst) is None
    assert inst.conclusion == p.conclusion


def test_context_reduce_erased_side_is_loud():
    p = derive_excluded_middle(spec, "&", parse_formula("(x p0 y)"))
    with pytest.raises(IrreducibleCase):
        context_reduce(frag, p, ("L", "R"))


def test_eliminate_noop_and_single():
    p = derive_excluded_middle(spec, "&", parse_formula("(x & y)"))
    assert eliminate_up_step(frag, p) is p or first_up_index(frag, p) is None
    corpus = injected_corpus(seed=42, size=5)
    for q in corpus:
        assert check(spec, q) is None
        r = eliminate_all_up(frag, q)
        assert check(spec, r) is None
        assert r.premise == q.premise and r.conclusion == q.conclusion
        assert first_up_index(frag, r) is None
        assert all(in_down_fragment(s) for s in r.steps)


def test_eliminate_terminates_in_up_step_rounds():
    corpus = injected_corpus(seed=77, size=5)
    for q in corpus:
        ups = sum(1 for s in q.steps if s.rule.scheme is Scheme.SPLIT_UP)
        rounds = 0
        cur = q
        while first_up_index(frag, cur) is not None:
            cur = eliminate_up_step(frag, cur)
            rounds += 1
        assert rounds == ups
        assert check(spec, cur) is None


def test_shallow_split_survives_spine_regrouping():
    # an explicit rearrangement regroups the conjunction spine between the
    # proof and the designated reading
    p = derive_excluded_middle(spec, "&", parse_formula("((x & y) & z)"))
    b = Builder(spec, p.premise)
    b.splice((), p)
    b.acr((), Compound("|", parse_formula("(x & (y & z))"),
                       parse_formula("((~x | ~y) | ~z)")))
    q = b.derivation()
    assert check(spec, q) is None
    rec = []
    res = shallow_split(frag, q, ("L",), rec)
    assert res.kind == "unitary"
    for piece in (res.q0, res.q1, res.d):
        assert check(spec, piece) is None
    assert res.q0.conclusion == Compound("|", Variable("x"), res.k0)
    assert res.q1.conclusion == Compound("|", parse_formula("(y & z)"), res.k1)
    assert all(r.bound_holds for r in rec)


def test_shallow_split_walks_a_long_run_inside_the_root_node():
    # T -> (T & T), then 1,000 pad and unpad pairs inside its left
    # component: a run walked in one loop splits under the default
    # recursion limit
    F = Constant("F")
    b = Builder(spec, T)
    b.apply_eq((), "const_idem", dict(U=F), negated=True, direction="bwd")
    for _ in range(1000):
        b.apply_eq(("L",), "or_unit", dict(A=T), direction="bwd")
        b.apply_eq(("L",), "or_unit", dict(A=T), direction="fwd")
    rec = []
    res = shallow_split(frag, b.derivation(), (), rec)
    # the prefix's record, then two per step: the proof above it, and its own
    assert len(rec) == 1 + 2 * 2000
    assert all(r.bound_holds for r in rec)
    assert len(res.q0.steps) == 2001 and len(res.q1.steps) == 1
    for piece in (res.q0, res.q1, res.d):
        assert check(spec, piece) is None
    assert res.q0.conclusion == Compound("|", T, res.k0)
    assert res.d.conclusion == F


def test_eliminate_runs_on_exactified_ac_joints():
    # dropping an acr step above the first up-rule leaves a joint that holds
    # only modulo AC: check rejects it, and elimination runs on it exactified
    q = injected_corpus(seed=20240817, size=2)[1]
    j = next(
        j for j, s in enumerate(q.steps[: first_up_index(frag, q)])
        if s.rule.scheme is Scheme.AC
    )
    loose = Derivation(q.premise, q.steps[:j] + q.steps[j + 1 :], q.conclusion)
    assert check(spec, loose) == CheckFailure(j, "ThreadBroken: step premise does not match")
    fixed = exactify(spec, loose)
    assert fixed != loose and check(spec, fixed) is None
    r = eliminate_all_up(frag, fixed)
    assert check(spec, r) is None
    assert first_up_index(frag, r) is None
    assert r.premise == loose.premise and r.conclusion == loose.conclusion
    text = to_text(spec, r)
    assert to_text(spec, from_text(text, lambda name: spec)[1]) == text


def test_eliminate_with_underscore_variable():
    # "_" is a valid variable name; the context hole must not capture it
    for q in injected_corpus(seed=20240817, size=100):
        text = to_text(spec, q)
        renamed = from_text(re.sub(r"\bx\b", "_", text), lambda name: spec)[1]
        r = eliminate_all_up(frag, renamed)
        assert check(spec, r) is None
        assert first_up_index(frag, r) is None
        assert r.premise == renamed.premise and r.conclusion == renamed.conclusion
        back = re.sub(r"\b_\b", "x", to_text(spec, r))
        assert back == to_text(spec, eliminate_all_up(frag, q))
