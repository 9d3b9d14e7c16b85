import random

import pytest

from medial.cli import run
from medial.derivations import (
    Builder,
    CheckFailure,
    Derivation,
    JointMismatch,
    NonEquationalStep,
    Step,
    check,
    dualize,
    exactify,
    from_text,
    identity,
    length,
    placed,
    reverse_equational,
    to_text,
)
from medial.generators import derive_contraction, derive_excluded_middle
from medial.system_p import make_p_spec, prove_tautology
from medial.systems import Scheme
from medial.terms import (
    Compound,
    Constant,
    Metavar,
    Variable,
    join,
    negate,
    parse_formula,
    print_formula,
)

from helpers import random_formula, replace

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


def test_step_deep_in_a_long_chain(tmp_path):
    # the step's path is 1,499 deep, beyond the default recursion limit:
    # appending, printing, reading back and checking it walk without recursing
    chain = join("|", [x] * 1500)
    b = Builder(spec, chain)
    b.apply_eq(("R",) * 1499, "or_unit", dict(A=x), direction="bwd")
    d = b.derivation()
    text = to_text(spec, d)
    assert from_text(text, lambda name: spec)[1] == d
    assert check(spec, d) is None
    path = tmp_path / "deep.drv"
    path.write_text(text)
    assert run(["check", str(path)]) == 0


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


def test_check_rejects_equational_step_with_extra_binding():
    # var_em binds X only; a step carrying Q as well is not an instance of it
    d = em_step_derivation()
    rule = d.steps[0].rule
    extra = replace(rule, bindings=rule.bindings + (("Q", Variable("y")),))
    failure = check(spec, Derivation(d.premise, (Step((), extra),), d.conclusion))
    assert failure is not None and failure.step_index == 0
    assert "eq:var_em binds X, not Q, X" in failure.reason


@pytest.mark.parametrize(
    "fields",
    [
        dict(bindings=(("A", Variable("q")), ("B", Variable("q")))),
        dict(bindings=()),
        dict(relations=("&", "|")),
        dict(axiom_id="or_unit"),
        dict(direction="bwd"),
    ],
    ids=["foreign-bindings", "no-bindings", "relations", "axiom", "direction"],
)
def test_check_rejects_acr_step_with_foreign_fields(fields):
    # an acr step binds A to its premise and B to its conclusion, and no more
    d = prove_tautology(parse_formula("((x & y) | (~x | ~y))"))
    i = next(i for i, s in enumerate(d.steps) if s.rule.rule_id == "acr")
    steps = list(d.steps)
    steps[i] = Step(steps[i].context, replace(steps[i].rule, **fields))
    failure = check(spec, Derivation(d.premise, tuple(steps), d.conclusion))
    assert failure is not None and failure.step_index == i
    assert "ac step" in failure.reason


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


def _in_context(d, outer, sides):
    """d run inside the subterm of outer at sides, through Builder.splice."""
    b = Builder(spec, outer)
    b.splice(sides, d)
    return b.derivation()


def test_length_additive_under_concat_invariant_under_nest():
    # composing one after another adds lengths; running in a context keeps them
    rng = random.Random(6)
    for _ in range(20):
        f = random_formula(rng, 2)
        d1 = derive_excluded_middle(spec, "&", f)
        nested = _in_context(d1, Compound("|", d1.premise, Variable("w")), ("L",))
        assert length(spec, nested) == length(spec, d1)
        twice = Compound("|", f, f)
        c1 = derive_contraction(spec, "|", twice)  # ((f|f) | (f|f)) -> (f|f)
        c2 = derive_contraction(spec, "|", f)  # (f|f) -> f
        b = Builder(spec, c1)
        b.splice((), c2)
        joined = b.derivation()
        assert check(spec, joined) is None
        assert length(spec, joined) == length(spec, c1) + length(spec, c2)
    d = derive_excluded_middle(spec, "&", parse_formula("(x & y)"))
    b = Builder(spec, identity(d.premise))
    b.splice((), d)
    assert length(spec, b.derivation()) == length(spec, d)


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
    assert _in_context(d, d.premise, ()) == d
    nested = _in_context(d, Compound("|", T, Variable("y")), ("L",))
    assert nested.premise == parse_formula("(T | y)")
    assert nested.conclusion == parse_formula("((x | ~x) | y)")
    assert len(nested) == len(d)
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
        nested = _in_context(d, outer, (side,))
        assert len(nested) == len(d)
        assert check(spec, nested) is None


def test_concat():
    d = derive_excluded_middle(spec, "&", parse_formula("(x & y)"))
    # continuing a derivation adopts its steps as they are: the built
    # derivation places the very Step objects of d, in d's contexts (read
    # here before either is read flat, which builds the nested steps)
    continued = Builder(spec, d).derivation()
    pairs = list(zip(placed(continued.steps), placed(d.steps)))
    assert len(pairs) == len(d) and all(o == p and a is b for (o, a), (p, b) in pairs)
    # spliced below the root, they are placed one frame deeper, not copied
    nested = Builder(spec, Compound("|", d.premise, Constant("F")))
    nested.splice(("L",), d)
    pairs = list(zip(placed(nested.derivation().steps), placed(d.steps)))
    assert len(pairs) == len(d)
    assert all(o[1:] == p and a is b for (o, a), (p, b) in pairs)
    assert continued == d and len(continued.steps) == len(d.steps)
    # continuing, then adding steps, equals starting at the premise and splicing
    C, F = d.conclusion, Constant("F")

    def extend(b):
        b.apply_eq((), "or_unit", dict(A=C), direction="bwd")
        b.acr((), Compound("|", F, C))
        b.rewrite((), C)
        return b.derivation()

    spliced = Builder(spec, d.premise)
    spliced.splice((), d)
    longer = extend(Builder(spec, d))
    assert longer == extend(spliced)
    assert len(longer) > len(d) and longer.steps[: len(d)] == d.steps
    assert check(spec, longer) is None
    # retargeting to an AC-equal conclusion adds one root acr step
    e = em_step_derivation()
    joined = Builder(spec, e).derivation(parse_formula("(~x | x)"))
    assert len(joined) == len(e) + 1
    assert joined.steps[-1].rule.rule_id == "acr" and joined.steps[-1].context == ()
    assert check(spec, joined) is None
    assert Builder(spec, e).derivation(e.conclusion) == e
    with pytest.raises(JointMismatch, match=r"\(x \| ~x\).*\(x \| x\)"):
        Builder(spec, e).derivation(parse_formula("(x | x)"))


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


def test_to_text_prints_a_shared_node_in_each_spacing():
    # the premise node is also the first step's binding, and (y p0 z) is
    # both the tail of a p0 chain and a binding of its own; identifier
    # relations keep their spaces even in bindings
    P = parse_formula("((x | y | ~z) & (x p0 y p0 z))")
    b = Builder(spec, P)
    b.apply_eq((), "or_unit", dict(A=P), direction="bwd")
    b.apply_eq(("L", "R", "R"), "or_unit", dict(A=P.right.right), direction="bwd")
    d = b.derivation()
    text = to_text(spec, d)
    assert text == (
        "system: P\n"
        "premise: ((x | y | ~z) & (x p0 y p0 z))\n"
        "step: rule=eq:or_unit dir=bwd path=- A=((x|y|~z)&(x p0 y p0 z))\n"
        "step: rule=eq:or_unit dir=bwd path=LRR A=(y p0 z)\n"
        "conclusion: (((x | y | ~z) & (x p0 ((y p0 z) | F))) | F)\n"
    )
    assert print_formula(P, spaces=False) == "((x|y|~z)&(x p0 y p0 z))"
    _, again = from_text(text, lambda name: spec)
    assert again == d
    assert to_text(spec, again) == text


def test_check_rejects_ac_only_joints_and_exactify_repairs_them():
    d = prove_tautology(parse_formula("((x & y) | (~x | ~y))"))
    assert check(spec, d) is None and check(spec, identity(T)) is None
    copy = Derivation(d.premise, d.steps, d.conclusion)
    assert copy == d and hash(copy) == hash(d) and repr(copy) == repr(d)
    assert replace(d) == d
    # exactify inserts nothing into a derivation that threads exactly
    assert exactify(spec, d) == d
    # a dropped acr step leaves a joint that holds only modulo AC, and a
    # commuted conclusion is only AC-equal to the last step's result: check
    # rejects each where it is, and exactify bridges each with an acr step
    acr = [i for i, s in enumerate(d.steps) if s.rule.scheme is Scheme.AC]
    assert acr and acr[-1] < len(d.steps) - 1
    c = d.conclusion
    cases = [
        (Derivation(d.premise, d.steps[:i] + d.steps[i + 1 :], c), i,
         "ThreadBroken: step premise does not match") for i in acr
    ] + [(Derivation(d.premise, d.steps, Compound(c.rel, c.right, c.left)), len(d.steps),
          "ThreadBroken: conclusion mismatch")]
    for loose, index, reason in cases:
        assert check(spec, loose) == CheckFailure(index, reason)
        fixed = exactify(spec, loose)
        assert check(spec, fixed) is None and len(fixed) == len(loose) + 1
        assert fixed.steps[index].rule.scheme is Scheme.AC
    # a Builder places what it adopts or splices as it is, and joins exactly
    # what it appends
    loose = cases[0][0]
    assert check(spec, Builder(spec, d).derivation()) is None
    assert check(spec, Builder(spec, loose).derivation()) == check(spec, loose)
    outer = Compound("|", d.premise, x)
    for piece in (d, loose):
        for start, sides in ((d.premise, ()), (outer, ("L",))):
            b = Builder(spec, start)
            b.splice(sides, piece)
            b.splice(sides, identity(d.conclusion))
            failure = check(spec, b.derivation())
            assert (failure is None) is (piece is d)
    b = Builder(spec, exactify(spec, loose))
    b.splice((), identity(d.conclusion))
    b.apply_eq((), "or_unit", dict(A=d.conclusion), direction="bwd")
    assert check(spec, b.derivation()) is None
