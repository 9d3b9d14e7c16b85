"""`check` and `exactify` against the loops they replaced, and the work
they may do: both read each step's formulas along the running formula,
`check` judges each distinct rule instance once, and `from_text` and
`check` rebuild only what the last step changed."""

import collections
import hashlib
import random
import re
import sys
from dataclasses import replace

import pytest

import medial.derivations as derivations
import medial.splitting as splitting
import medial.system_p as system_p
from medial.derivations import (
    Builder,
    CheckFailure,
    Derivation,
    DerivationError,
    JointMismatch,
    Step,
    before_step,
    check,
    dualize,
    exactify,
    from_text,
    identity,
    reverse_equational,
    to_text,
)
from medial.generators import derive_contraction, derive_excluded_middle
from medial.splitting import (
    IrreducibleCase,
    context_reduce,
    eliminate_all_up,
    first_up_index,
    instantiate_hole,
    make_fragment,
)
from medial.system_p import is_tautology, make_p_spec, prove_tautology
from medial.systems import Scheme, ac_instance, check_rule_instance, undeclared_symbol
from medial.terms import (
    Compound,
    PathMismatch,
    Variable,
    context_at,
    equal_mod_ac,
    parse_formula,
    print_formula,
    subformula_at_sides,
)

from helpers import F, T, enumerate_formulas, injected_corpus, random_formula

spec = make_p_spec()
LEAVES = (Variable("x"), Variable("x", True), Variable("y"), Variable("y", True))


def _reference_check(spec, d):
    """check as it was before it threaded the running formula: both
    formulas of every step plugged from its context, every rule instance
    judged anew."""
    reason = undeclared_symbol(spec, d.premise)
    if reason is not None:
        return CheckFailure(-1, f"{reason} in premise")
    cur = d.premise
    for i, step in enumerate(d.steps):
        if not equal_mod_ac(spec, step.before, cur):
            return CheckFailure(i, "ThreadBroken: step premise does not match")
        reason = check_rule_instance(spec, step.rule)
        if reason is not None:
            return CheckFailure(i, reason)
        cur = step.after
    if not equal_mod_ac(spec, cur, d.conclusion):
        return CheckFailure(len(d.steps), "ThreadBroken: conclusion mismatch")
    return None


def _reference_exactify(spec, d):
    """exactify as it was before it threaded the running formula."""
    steps = []
    cur = d.premise
    for step in d.steps:
        if step.before != cur:
            if not equal_mod_ac(spec, step.before, cur):
                raise JointMismatch("derivation thread broken beyond AC")
            steps.append(Step((), ac_instance(spec, cur, step.before)))
        steps.append(step)
        cur = step.after
    if cur != d.conclusion:
        if not equal_mod_ac(spec, cur, d.conclusion):
            raise JointMismatch("conclusion differs beyond AC")
        steps.append(Step((), ac_instance(spec, cur, d.conclusion)))
    return Derivation(d.premise, tuple(steps), d.conclusion)


def _inexact_joints(d) -> int:
    """Joints where a step's before is the running formula only modulo AC."""
    joints = sum(a.after != b.before for a, b in zip(d.steps, d.steps[1:]))
    return joints + (bool(d.steps) and d.steps[0].before != d.premise)


def _drop(d, i):
    return Derivation(d.premise, d.steps[:i] + d.steps[i + 1:], d.conclusion)


def _with_sibling(d, i, sibling):
    """d with the outermost sibling of step i's context replaced."""
    step = d.steps[i]
    top = replace(step.context[0], sibling=sibling)
    steps = list(d.steps)
    steps[i] = Step((top,) + step.context[1:], step.rule)
    return Derivation(d.premise, tuple(steps), d.conclusion)


@pytest.fixture(scope="module")
def corpus_and_eliminated():
    frag = make_fragment(spec)
    corpus = injected_corpus(seed=20240817, size=100)
    return corpus, [eliminate_all_up(frag, d) for d in corpus]


@pytest.fixture(scope="module")
def synthesised(height3):
    assert len(height3.proofs) >= 300
    return height3.proofs[:300]


def _family(n):
    """(x0 & ... & xn-1) | ~x0 | ... | ~xn-1, family (i) of the synthesis."""
    xs = [f"x{i}" for i in range(n)]
    return parse_formula("((" + " & ".join(xs) + ") | " + " | ".join("~" + x for x in xs) + ")")


@pytest.fixture(scope="module")
def family5():
    """The synthesised proof of (x0 & ... & x4) | ~x0 | ... | ~x4, read back
    from its file, so that consecutive steps share their context objects
    as in every derivation `from_text` returns."""
    text = to_text(spec, prove_tautology(_family(5)))
    d = from_text(text, lambda name: spec)[1]
    assert len(d.steps) == 7334
    return text, d


def _without_acr(d):
    """d with its acr steps left out: each joint they bridged now holds
    only modulo AC."""
    steps = tuple(s for s in d.steps if s.rule.scheme is not Scheme.AC)
    return Derivation(d.premise, steps, d.conclusion)


def test_check_agrees_with_reference_on_valid_proofs(corpus_and_eliminated, synthesised):
    corpus, eliminated = corpus_and_eliminated
    loose = [_without_acr(d) for d in eliminated + synthesised]
    assert sum(_inexact_joints(d) for d in loose) > 1000
    for d in corpus + eliminated + synthesised + loose:
        assert check(spec, d) is None
        assert _reference_check(spec, d) is None
    for d in eliminated + loose:
        assert exactify(spec, d) == _reference_exactify(spec, d)


def test_check_agrees_with_reference_on_mutants(corpus_and_eliminated, synthesised):
    corpus, eliminated = corpus_and_eliminated
    rng = random.Random(20261018)
    q = Variable("q")  # occurs in no input, so a sibling set to it differs beyond AC
    verdicts = []
    for d in corpus + eliminated + synthesised[::3]:
        mutants = [_drop(d, rng.randrange(len(d.steps)))]
        deep = [i for i, s in enumerate(d.steps) if s.context]
        if deep:
            mutants.append(_with_sibling(d, rng.choice(deep), q))
        for m in mutants:
            expected = _reference_check(spec, m)
            assert check(spec, m) == expected
            verdicts.append(expected is None)
            try:
                expected = _reference_exactify(spec, m)
            except JointMismatch as e:
                with pytest.raises(JointMismatch, match=str(e)):
                    exactify(spec, m)
            else:
                assert exactify(spec, m) == expected
    # a dropped acr step leaves a joint that holds modulo AC
    assert 0 < sum(verdicts) < len(verdicts)


def test_check_agrees_with_reference_on_named_defects():
    d = prove_tautology(parse_formula("((x & y) | (~x | ~y))"))
    first_acr = next(i for i, s in enumerate(d.steps) if s.rule.scheme is Scheme.AC)
    deep = next(i for i, s in enumerate(d.steps) if s.context)
    # one valid instance three times over, then a mislabelled copy of it
    x = Variable("x")
    b = Builder(spec, parse_formula("(T & (T & (T & T)))"))
    for sides in (("L",), ("R", "L"), ("R", "R", "L")):
        b.apply_eq(sides, "var_em", dict(X=x), direction="bwd")
    valid = b.derivation()
    rule = valid.steps[0].rule
    assert {s.rule for s in valid.steps} == {rule}
    copy = Step(context_at(valid.conclusion, "RRR"), replace(rule, rule_id="eq:const_em"))
    assert copy.before == valid.conclusion
    cases = {
        # the joint left behind holds modulo AC, so the proof stays valid
        "first acr dropped": (_drop(d, first_acr), None),
        "sibling beyond AC": (_with_sibling(d, deep, Variable("q")), deep),
        "mislabelled copy": (
            Derivation(valid.premise, valid.steps[:] + (copy,), valid.conclusion), 3
        ),
    }
    for name, (m, index) in cases.items():
        failure = check(spec, m)
        assert failure == _reference_check(spec, m), name
        assert (failure and failure.step_index) == index, name


def test_check_agrees_with_reference_on_deep_contexts(family5):
    _, d = family5
    loose = _without_acr(d)
    assert _inexact_joints(loose) > 1000
    assert sum(len(s.context) for s in d.steps) > 8 * len(d.steps)
    for m in (d, loose):
        assert check(spec, m) is None
        assert _reference_check(spec, m) is None
    assert exactify(spec, loose) == _reference_exactify(spec, loose)


def _shared_prefix(a, b) -> int:
    n = 0
    for p, q in zip(a.context, b.context):
        if p != q:
            break
        n += 1
    return n


def _with_frame(d, i, j, **change):
    """The steps of d from 100 before step i to 100 after it, with fields
    of frame j of step i's context replaced, and step i's index there."""
    lo, hi = max(0, i - 100), min(len(d.steps), i + 100)
    step = d.steps[i]
    ctx = step.context
    steps = list(d.steps[lo:hi])
    steps[i - lo] = Step(ctx[:j] + (replace(ctx[j], **change),) + ctx[j + 1:], step.rule)
    return Derivation(d.steps[lo].before, tuple(steps), d.steps[hi - 1].after), i - lo


def test_check_agrees_with_reference_where_a_shared_frame_changes(family5):
    # each mutant changes, in a step, one frame of the context prefix it
    # shares with the step before, where the running formula holds the
    # previous step's frames: the changed frame must be read, not kept
    _, d = family5
    rng = random.Random(20261020)
    q = Variable("q")
    other = {"&": "|", "|": "&", "p0": "p1", "p1": "p0"}
    shared = [
        (i, n) for i in range(1, len(d.steps))
        if (n := _shared_prefix(d.steps[i - 1], d.steps[i])) >= 2
    ]
    assert len(shared) > 1000
    mutants = []
    for i, n in rng.sample(shared, 60):
        j = rng.randrange(n)
        frame = d.steps[i].context[j]
        mutants.append((_with_frame(d, i, j, sibling=q), True))
        mutants.append((_with_frame(d, i, j, rel=other[frame.rel]), True))
        s = frame.sibling
        if isinstance(s, Compound) and s.left is not s.right and spec.is_commutative(s.rel):
            # the sibling commuted: a joint that holds modulo AC
            commuted = Compound(s.rel, s.right, s.left)
            mutants.append((_with_frame(d, i, j, sibling=commuted), False))
    assert sum(not broken for _, broken in mutants) > 5
    for (m, i), broken in mutants:
        failure = check(spec, m)
        assert failure == _reference_check(spec, m)
        assert (failure and failure.step_index) == (i if broken else None)
        try:
            expected = _reference_exactify(spec, m)
        except JointMismatch as e:
            with pytest.raises(JointMismatch, match=re.escape(str(e))):
                exactify(spec, m)
        else:
            assert exactify(spec, m) == expected


def _repathed(text, i, path):
    """A derivation file with step i's path replaced."""
    lines = text.splitlines(keepends=True)
    k = [n for n, line in enumerate(lines) if line.startswith("step: ")][i]
    lines[k] = re.sub(r"path=\S+", "path=" + path, lines[k])
    return "".join(lines)


def test_from_text_threading_errors_on_deep_files(family5):
    text, d = family5
    i = max(i for i, s in enumerate(d.steps) if len(s.context) >= 10)
    step = d.steps[i]
    sides = "".join(step.sides)
    # below the step's subterm, past an atom
    deeper = sides + "L" * 40
    with pytest.raises(PathMismatch) as expected:
        subformula_at_sides(step.before, deeper)
    assert str(expected.value).startswith("path descends below atom")
    with pytest.raises(PathMismatch, match=re.escape(str(expected.value))):
        from_text(_repathed(text, i, deeper), lambda name: spec)
    # the subterm's sibling in place of the subterm
    beside = sides[:-1] + {"L": "R", "R": "L"}[sides[-1]]
    sub = subformula_at_sides(step.before, beside)
    assert sub is not step.rule.premise
    msg = (
        f"file not exactly threaded at rule {step.rule.rule_id}: "
        f"{print_formula(sub)} vs {print_formula(step.rule.premise)}"
    )
    with pytest.raises(DerivationError, match=re.escape(msg)):
        from_text(_repathed(text, i, beside), lambda name: spec)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(derivations, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(derivations, name, counted)
    return calls


def test_check_and_to_text_read_each_step_once(monkeypatch):
    d = prove_tautology(parse_formula("((x & y) | (~x | ~y))"))
    assert len(d.steps) == 166
    assert _inexact_joints(d) == 0 and d.steps[-1].after == d.conclusion
    distinct = len({s.rule for s in d.steps})
    assert distinct < len(d.steps)
    plugs = _counting(monkeypatch, "plug")
    judged = _counting(monkeypatch, "check_rule_instance")
    assert check(spec, d) is None
    assert len(plugs) <= len(d.steps)
    assert len(judged) <= distinct
    plugs.clear()
    to_text(spec, d)
    assert len(plugs) <= len(d.steps)


def test_from_text_and_check_rebuild_only_what_a_step_changed(monkeypatch, family5):
    # counts, not times: the nodes built per step, where each step of this
    # proof sits about eight levels deep
    text, _ = family5
    built = []
    original = Compound.__new__

    def counted(cls, *fields):
        built.append(None)
        return original(cls, *fields)

    monkeypatch.setattr(Compound, "__new__", staticmethod(counted))
    d = from_text(text, lambda name: spec)[1]
    read = len(built)
    built.clear()
    assert check(spec, d) is None
    steps = len(d.steps)
    assert read <= 4 * steps
    assert len(built) <= steps


def test_prove_to_text_and_check_place_steps_without_copying(monkeypatch):
    # counts, not times: a spliced derivation's steps are placed by
    # reference, not rebuilt at each level of splicing, and check and
    # to_text walk the placed parts without building a Step
    built = []
    original = Step.__init__

    def counted(self, *fields):
        built.append(None)
        original(self, *fields)

    monkeypatch.setattr(Step, "__init__", counted)
    d = prove_tautology(_family(5))
    to_text(spec, d)
    assert check(spec, d) is None
    assert len(d) == len(d.steps) == 7334
    assert len(built) <= 1.5 * len(d)


def test_prove_builds_each_lemma_once(monkeypatch):
    # counts, not times: one proof builds each line lemma and each
    # contraction once and splices it wherever it recurs (2,660 builders
    # when every use rebuilt its lemma), and the output stays the same
    built = []
    original = Builder.__init__

    def counted(self, *args):
        built.append(None)
        original(self, *args)

    monkeypatch.setattr(Builder, "__init__", counted)
    d = prove_tautology(_family(5))
    assert len(built) <= 1000
    digest = hashlib.sha256(to_text(spec, d).encode()).hexdigest()
    assert digest == "dc5031d268c9b6a7e5b382edf966d511d2dc79eba055d0e7727a6eb047e48e67"


def _held_steps(d) -> int:
    """The Steps held by the distinct tuples and Ropes that d's steps reach,
    each shared part counted once: what a proof keeps in memory."""
    seen, runs, held = set(), [d.steps], 0
    while runs:
        run = runs.pop()
        if id(run) not in seen:
            seen.add(id(run))
            items = getattr(run, "parts", run)
            nested = [item[1] for item in items if type(item) is tuple]
            runs += nested
            held += len(items) - len(nested)
    return held


# first-failure F_3: every clause (ci | di) holds, or one fails first
F3 = ("(((c1 | d1) & (c2 | d2) & (c3 | d3)) | (~c1 & ~d1) | ((c1 | d1) & ~c2 & ~d2)"
      " | ((c1 | d1) & (c2 | d2) & ~c3 & ~d3))")


@pytest.mark.parametrize(
    "goal, flat, bound",
    [(_family(8), 139_564, 20_000), (parse_formula(F3), 60_218, 4_500)],
    ids=["family-8", "F3"],
)
def test_prove_holds_each_seed_and_clause_once(goal, flat, bound):
    # counts, not times: atom seeds and seeded clauses are built once per
    # proof and placed by reference (103,068 and 8,660 held steps when each
    # use rebuilt them), while the flat sequence stays the same
    d = prove_tautology(goal)
    assert len(d) == flat
    assert _held_steps(d) <= bound


def test_prove_writes_each_atom_seed_once(monkeypatch):
    # one proof builds the seed T -> (a | T) of each atom a and value once
    written = []
    original = system_p._atom_seed

    def recorded(spec, atom, true):
        written.append((atom, true))
        return original(spec, atom, true)

    monkeypatch.setattr(system_p, "_atom_seed", recorded)
    prove_tautology(_family(5))
    assert len(written) == len(set(written)) >= 10


def _commuted_conclusion(d):
    """d, its conclusion's root operands swapped where that is AC-equal
    and a different formula."""
    c = d.conclusion
    if not isinstance(c, Compound) or c.left is c.right or not spec.is_commutative(c.rel):
        return d
    return Derivation(d.premise, d.steps, Compound(c.rel, c.right, c.left))


def test_every_exact_mark_holds(monkeypatch):
    """Every derivation marked exact, wherever the mark is set, threads
    exactly: exactify returns it as it is, and the plug-based reference
    inserts no step into it."""
    marked = collections.Counter()  # marking function -> derivations marked
    seen = []
    original = derivations.mark_exact

    def recording(d):
        marked[sys._getframe(1).f_code.co_name] += 1
        seen.append(d)
        return original(d)

    for module in (derivations, splitting):
        monkeypatch.setattr(module, "mark_exact", recording)
    rng = random.Random(20261019)
    for _ in range(40):
        f = random_formula(rng, 3)
        derive_excluded_middle(spec, "&", f)
        derive_contraction(spec, "|", f)
        identity(f)
    tautologies = (f for f in enumerate_formulas(3, LEAVES) if is_tautology(f))
    for f, _ in zip(tautologies, range(100)):
        d = prove_tautology(f)
        assert from_text(to_text(spec, d), lambda name: spec)[1] == d
        exactify(spec, _without_acr(d))
    # closed tautologies reverse an evaluation; reversed and dualised
    # derivations of marked ones are marked
    closed = [f for f in enumerate_formulas(3, (T, F)) if is_tautology(f)]
    for f in closed[::10]:
        d = prove_tautology(f)
        assert d.exact
        assert dualize(spec, d).exact and reverse_equational(spec, d).exact
    frag = make_fragment(spec)
    joints = 0
    for d in injected_corpus(seed=20240817, size=100):
        assert eliminate_all_up(frag, d).exact
        # joints that hold only modulo AC, above the up-steps and at the
        # conclusion: a slice of these that were marked would be caught below
        for loose in (_without_acr(d), _commuted_conclusion(d)):
            joints += _inexact_joints(loose) + (loose.conclusion != d.conclusion)
            assert check(spec, eliminate_all_up(frag, loose)) is None
        # a context derivation whose conclusion joint is inexact, filled
        i = first_up_index(frag, d)
        sigma = d.steps[i]
        try:
            ctx = context_reduce(frag, before_step(d, i), sigma.sides).ctx
        except IrreducibleCase:  # a redex in weakening junk: no context to reduce
            continue
        loose = _commuted_conclusion(ctx)
        joints += loose is not ctx
        instantiate_hole(spec, loose, sigma.rule.conclusion)
    assert joints > 200
    assert set(marked) == {
        "identity", "exactify", "from_text", "derivation",  # Builder.derivation
        "before_step", "after_step", "instantiate_hole", "_backwards",
    }
    assert len(seen) > 10_000
    for d in seen:
        assert exactify(spec, d) is d
        assert _reference_exactify(spec, d) == d
