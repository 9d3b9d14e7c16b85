"""`check` and `exactify` against the loops they replaced, and the work
they may do: both read each step's formulas along the running formula,
`check` accepts only exact joints and judges each distinct rule instance
once, and `from_text` and `check` rebuild only what the last step
changed."""

import collections
import hashlib
import os
import random
import re
import subprocess
import sys

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
    Rope,
    Step,
    check,
    dualize,
    exactify,
    from_text,
    placed,
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
from medial.systems import (
    Scheme,
    ac_instance,
    check_rule_instance,
    spec_from_text,
    undeclared_symbol,
)
from medial.terms import (
    Compound,
    Cursor,
    PathMismatch,
    PathStep,
    Variable,
    context_at,
    equal_mod_ac,
    parse_formula,
    print_formula,
    subformula_at_sides,
)

from helpers import P_TEXT, F, T, enumerate_formulas, injected_corpus, random_formula, replace

spec = make_p_spec()
LEAVES = (Variable("x"), Variable("x", True), Variable("y"), Variable("y", True))


def _reference_check(spec, d):
    """check as it was before it threaded the running formula: both
    formulas of every step plugged from its context, every rule instance
    judged anew, and each joint the identical formula."""
    reason = undeclared_symbol(spec, d.premise)
    if reason is not None:
        return CheckFailure(-1, f"{reason} in premise")
    cur = d.premise
    for i, step in enumerate(d.steps):
        if step.before is not cur:
            return CheckFailure(i, "ThreadBroken: step premise does not match")
        reason = check_rule_instance(spec, step.rule)
        if reason is not None:
            return CheckFailure(i, reason)
        cur = step.after
    if cur is not d.conclusion:
        return CheckFailure(len(d.steps), "ThreadBroken: conclusion mismatch")
    return None


# checks each derivation file named on the command line as `medial check`
# does, in a fresh interpreter: one line per file, its exit code and stderr
_CHECK_FILES = """
import contextlib, io, sys
from medial.cli import run
for path in sys.argv[1:]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["check", path])
    print(code, err.getvalue().strip().replace(chr(10), " "))
"""


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


def _first_inexact_joint(d):
    """Where check must reject d, whose steps are valid and whose joints
    hold modulo AC: at its first joint that is not exact, if it has one."""
    cur = d.premise
    for i, step in enumerate(d.steps):
        if step.before is not cur:
            return CheckFailure(i, "ThreadBroken: step premise does not match")
        cur = step.after
    if cur is not d.conclusion:
        return CheckFailure(len(d.steps), "ThreadBroken: conclusion mismatch")
    return None


def _rejected_and_repaired(d):
    """check judges d, whose valid steps may join only modulo AC, as the
    reference does, at its first inexact joint, and accepts it exactified;
    returns d exactified."""
    assert check(spec, d) == _reference_check(spec, d) == _first_inexact_joint(d)
    fixed = exactify(spec, d)
    assert check(spec, fixed) is None
    return fixed


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
    for d in corpus + eliminated + synthesised:
        assert check(spec, d) is None
        assert _reference_check(spec, d) is None
    for d in eliminated:
        assert exactify(spec, d) == _reference_exactify(spec, d)
    for d in loose:
        assert _rejected_and_repaired(d) == _reference_exactify(spec, d)


def test_check_agrees_with_reference_on_mutants(corpus_and_eliminated, synthesised):
    corpus, eliminated = corpus_and_eliminated
    rng = random.Random(20261018)
    q = Variable("q")  # occurs in no input, so a sibling set to it differs beyond AC
    repaired = []
    for d in corpus + eliminated + synthesised[::3]:
        mutants = [_drop(d, rng.randrange(len(d.steps)))]
        deep = [i for i, s in enumerate(d.steps) if s.context]
        if deep:
            mutants.append(_with_sibling(d, rng.choice(deep), q))
        for m in mutants:
            expected = _reference_check(spec, m)
            assert check(spec, m) == expected
            assert expected is not None
            try:
                expected = _reference_exactify(spec, m)
            except JointMismatch as e:
                with pytest.raises(JointMismatch, match=str(e)):
                    exactify(spec, m)
                repaired.append(False)
            else:
                assert _rejected_and_repaired(m) == expected
                repaired.append(True)
    # a dropped acr step leaves a joint that holds only modulo AC: check
    # rejects it, and exactify bridges it
    assert 0 < sum(repaired) < len(repaired)


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
        # the joint left behind holds only modulo AC: rejected where it is
        "first acr dropped": (_drop(d, first_acr), first_acr),
        "sibling beyond AC": (_with_sibling(d, deep, Variable("q")), deep),
        "mislabelled copy": (
            Derivation(valid.premise, valid.steps[:] + (copy,), valid.conclusion), 3
        ),
    }
    for name, (m, index) in cases.items():
        failure = check(spec, m)
        assert failure == _reference_check(spec, m), name
        assert (failure and failure.step_index) == index, name
    _rejected_and_repaired(cases["first acr dropped"][0])


def test_check_agrees_with_reference_on_deep_contexts(family5):
    _, d = family5
    loose = _without_acr(d)
    assert _inexact_joints(loose) > 1000
    assert sum(len(s.context) for s in d.steps) > 8 * len(d.steps)
    assert check(spec, d) is None
    assert _reference_check(spec, d) is None
    assert _rejected_and_repaired(loose) == _reference_exactify(spec, loose)


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
            # the sibling commuted: a joint that holds only modulo AC
            commuted = Compound(s.rel, s.right, s.left)
            mutants.append((_with_frame(d, i, j, sibling=commuted), False))
    assert sum(not beyond_ac for _, beyond_ac in mutants) > 5
    for (m, i), beyond_ac in mutants:
        failure = check(spec, m)
        assert failure == _reference_check(spec, m)
        assert (failure and failure.step_index) == i
        try:
            expected = _reference_exactify(spec, m)
        except JointMismatch as e:
            assert beyond_ac
            with pytest.raises(JointMismatch, match=re.escape(str(e))):
                exactify(spec, m)
        else:
            assert not beyond_ac
            assert exactify(spec, m) == expected
            assert check(spec, expected) is None


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


def _held(d) -> tuple:
    """The Steps held by the distinct tuples and Ropes that d's steps reach,
    each shared part counted once (what a proof keeps in memory), and the
    placed parts those hold."""
    seen, runs, held, placements = set(), [d.steps], 0, 0
    while runs:
        run = runs.pop()
        if id(run) not in seen:
            seen.add(id(run))
            items = getattr(run, "parts", run)
            nested = [item[1] for item in items if type(item) is tuple]
            runs += nested
            held += len(items) - len(nested)
            placements += len(nested)
    return held, placements


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
    assert _held(d)[0] <= bound


def test_prove_writes_each_atom_seed_once(monkeypatch):
    # the seed T -> (a | T) of each atom a and value is built once per spec:
    # in a copy of P whose table starts empty, one proof writes each seed
    # once, and a second proof writes none and prints the same text
    own = spec_from_text(P_TEXT)
    monkeypatch.setattr(system_p, "make_p_spec", lambda: own)
    written = []
    original = system_p._atom_seed

    def recorded(spec, atom, true):
        written.append((atom, true))
        return original(spec, atom, true)

    monkeypatch.setattr(system_p, "_atom_seed", recorded)
    text = to_text(own, prove_tautology(_family(5)))
    assert len(written) == len(set(written)) >= 10
    written.clear()
    assert to_text(own, prove_tautology(_family(5))) == text
    assert written == []


def _first_failure(n):
    """First-failure F_n over 2n variables: every clause (ci | di) holds, or
    one fails first."""
    clauses = [f"(c{i} | d{i})" for i in range(1, n + 1)]
    fails = [" & ".join(clauses[: i - 1] + [f"~c{i}", f"~d{i}"]) for i in range(1, n + 1)]
    return "((" + " & ".join(clauses) + ") | (" + ") | (".join(fails) + "))"


# the pigeonhole formula PHP_3: three pigeons in two holes
PHP3 = ("((~p1_1 & ~p1_2) | (~p2_1 & ~p2_2) | (~p3_1 & ~p3_2) | (p1_1 & p2_1) | (p1_1 & p3_1)"
        " | (p2_1 & p3_1) | (p1_2 & p2_2) | (p1_2 & p3_2) | (p2_2 & p3_2))")


def _flat(d):
    """d with its steps as one flat tuple, built from `placed`: indexing a
    Rope would keep its flat tuple on the Rope."""
    steps = tuple([s if c is s.context else Step(c, s.rule) for c, s in placed(d.steps)])
    return Derivation(d.premise, steps, d.conclusion)


def _agrees_flat(d):
    """check of d, after asserting that d's flat copy gets the same
    verdict: the same index and reason."""
    failure = check(spec, d)
    assert check(spec, _flat(d)) == failure
    return failure


def _shared_runs(d):
    """The nonempty runs (tuples and Ropes) that d places at least twice
    among its distinct runs, in the order first reached."""
    seen, placements, runs = set(), collections.Counter(), [d.steps]
    first = {}
    while runs:
        run = runs.pop()
        if id(run) in seen:
            continue
        seen.add(id(run))
        for item in getattr(run, "parts", run):
            if type(item) is tuple and item[1]:
                placements[id(item[1])] += 1
                first.setdefault(id(item[1]), item[1])
                runs.append(item[1])
    return [run for key, run in first.items() if placements[key] >= 2]


def _with_run(d, old, new):
    """d with every placement of the run old holding new instead; the runs
    around it are rebuilt once each, so sharing is kept."""
    memo = {}

    def rebuilt(run):
        if run is old:
            return new
        if id(run) not in memo:
            items = tuple((item[0], rebuilt(item[1])) if type(item) is tuple else item
                          for item in getattr(run, "parts", run))
            memo[id(run)] = Rope(items) if type(run) is Rope else items
        return memo[id(run)]

    return Derivation(d.premise, rebuilt(d.steps), d.conclusion)


def _with_items(run, items):
    return Rope(tuple(items)) if type(run) is Rope else tuple(items)


# an empty part whose context matches nothing: the flat walk never reads it
NOWHERE = (PathStep("&", "L", Variable("nowhere")),)


def _shared_mutants(d, rng, runs):
    """Mutants of d inside its shared runs: a medial or equational step
    relabelled, a step dropped, a placement's outermost sibling replaced,
    and empty parts placed nowhere."""
    shared = _shared_runs(d)
    judged = [run for run in shared if any(
        type(item) is not tuple and item.rule.scheme is not Scheme.AC
        for item in getattr(run, "parts", run))]
    out = []
    for run in rng.sample(judged, runs):
        items = list(getattr(run, "parts", run))
        k = rng.choice([k for k, item in enumerate(items)
                        if type(item) is not tuple and item.rule.scheme is not Scheme.AC])
        rule = items[k].rule
        label = "sd" if rule.rule_id != "sd" else "ai0d"
        step = Step(items[k].context, replace(rule, rule_id=label))
        out.append(_with_run(d, run, _with_items(run, items[:k] + [step] + items[k + 1:])))
    for run in rng.sample(shared, runs):
        items = list(getattr(run, "parts", run))
        steps = [k for k, item in enumerate(items) if type(item) is not tuple]
        placements = [k for k, item in enumerate(items)
                      if type(item) is tuple and item[0] and item[1]]
        if steps:
            k = rng.choice(steps)
            out.append(_with_run(d, run, _with_items(run, items[:k] + items[k + 1:])))
        if placements:
            k = rng.choice(placements)
            ctx, placed_run = items[k]
            moved = (replace(ctx[0], sibling=Variable("elsewhere")),) + ctx[1:]
            out.append(_with_run(d, run, _with_items(
                run, items[:k] + [(moved, placed_run)] + items[k + 1:])))
        empty = items[:1] + [(NOWHERE, ()), (NOWHERE, Rope(()))] + items[1:]
        out.append(_with_run(d, run, _with_items(run, empty)))
    return out


def test_check_of_shared_parts_agrees_with_the_flat_walk(height3):
    # valid proofs, shared and flat
    goals = [_family(n) for n in range(2, 7)] + [parse_formula(F3), parse_formula(PHP3)]
    for d in height3.proofs + [prove_tautology(goal) for goal in goals]:
        assert _agrees_flat(d) is None
    # mutants inside shared parts, where a shared part is threaded once
    rng = random.Random(20261020)
    failures = collections.Counter()
    for goal, runs in ((_family(5), 6), (parse_formula(F3), 1)):
        d = prove_tautology(goal)
        for mutant in _shared_mutants(d, rng, runs):
            failure = _agrees_flat(mutant)
            failures[failure and failure.reason.split(":")[0]] += 1
    assert failures.pop(None) == 7  # the empty parts placed nowhere
    assert failures == {"ThreadBroken": 14, "step labelled sd differs from the eq": 7}


def test_check_judges_a_shared_lemma_at_each_placement():
    # a lemma T -> (x | ~x), placed by reference on both sides of (T & T)
    lemma = prove_tautology(parse_formula("(x | ~x)"))
    n = len(lemma)
    b = Builder(spec, Compound("&", T, T))
    b.splice(("L",), lemma)
    b.splice(("R",), lemma)
    d = b.derivation()
    (left, run), (right, again) = d.steps.parts
    assert run is again is lemma.steps and len(d) == 2 * n
    assert _agrees_flat(d) is None
    # the second placement finds F where the lemma starts from T
    start = Compound("&", T, F)
    left_of_f = (replace(left[0], sibling=F),)
    broken = Derivation(start, Rope(((left_of_f, run), (right, run))), d.conclusion)
    assert _agrees_flat(broken) == CheckFailure(n, "ThreadBroken: step premise does not match")
    # a bad rule instance inside the lemma fails at its first placement
    flat = list(placed(run))
    j = next(j for j, (_, s) in enumerate(flat) if s.rule.scheme is not Scheme.AC)
    bad = _relabelled(Derivation(lemma.premise, tuple(s for _, s in flat), lemma.conclusion),
                      j, "ai0d" if flat[j][1].rule.rule_id != "ai0d" else "sd")
    relabelled = Derivation(d.premise, Rope(((left, bad.steps), (right, bad.steps))),
                            d.conclusion)
    failure = _agrees_flat(relabelled)
    assert failure is not None and failure.step_index == j
    # empty parts placed nowhere are skipped, as the flat walk skips them
    empty = Rope(((NOWHERE, ()), (left, run), (NOWHERE, Rope(())), (right, run)))
    assert _agrees_flat(Derivation(d.premise, empty, d.conclusion)) is None


@pytest.fixture(scope="module")
def f4():
    assert parse_formula(_first_failure(3)) == parse_formula(F3)
    return prove_tautology(parse_formula(_first_failure(4)))


def test_check_threads_each_shared_part_once(monkeypatch, f4):
    # counts, not times: check moves or rewrites its cursor once per held
    # step and once per placement, not once per flat step
    d = f4
    flat = len(d)
    assert flat == 1_828_434
    held, placements = _held(d)
    calls, inside = [], []
    for name in ("rewrite", "move"):
        original = getattr(Cursor, name)

        def counted(self, *args, original=original):
            if not inside:  # not the move a rewrite makes
                calls.append(None)
            inside.append(None)
            try:
                return original(self, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(Cursor, name, counted)
    assert check(spec, d) is None
    assert len(calls) <= held + placements < flat // 40


def test_repr_of_a_shared_proof_stays_small(f4):
    # a failing assertion that names a derivation prints its repr: the rope
    # gives its sizes, and builds no flat tuple of its 1,828,434 steps
    assert len(repr(f4)) < 2000
    assert repr(f4.steps) == f"Rope(1828434 steps in {len(f4.steps.parts)} parts)"
    assert f4.steps._flat is None


def _commuted_conclusion(d):
    """d, its conclusion's root operands swapped where that is AC-equal
    and a different formula."""
    c = d.conclusion
    if not isinstance(c, Compound) or c.left is c.right or not spec.is_commutative(c.rel):
        return d
    return Derivation(d.premise, d.steps, Compound(c.rel, c.right, c.left))


def test_every_built_derivation_threads_exactly(monkeypatch):
    """Every derivation the kernel builds, wherever it is built, threads
    exactly: the plug-based reference exactify inserts no step into it.
    Steps joined only modulo AC are exactified before they are eliminated."""
    built = collections.Counter()  # building function -> derivations built
    seen = []

    def record(module, name):
        original = getattr(module, name)

        def recording(*args, **kwargs):
            out = original(*args, **kwargs)
            built[name] += 1
            seen.append(out[1] if name == "from_text" else out)
            return out

        monkeypatch.setattr(module, name, recording)

    for module, names in (
        (derivations, ("identity", "exactify", "from_text", "before_step", "after_step",
                       "_backwards")),
        (derivations.Builder, ("derivation",)),
        (splitting, ("before_step", "after_step", "instantiate_hole")),
        (system_p, ("identity",)),
    ):
        for name in names:
            record(module, name)
    rng = random.Random(20261019)
    for _ in range(40):
        f = random_formula(rng, 3)
        derive_excluded_middle(spec, "&", f)
        derive_contraction(spec, "|", f)
        derivations.identity(f)
    tautologies = (f for f in enumerate_formulas(3, LEAVES) if is_tautology(f))
    for f, _ in zip(tautologies, range(100)):
        d = prove_tautology(f)
        assert derivations.from_text(to_text(spec, d), lambda name: spec)[1] == d
        derivations.exactify(spec, _without_acr(d))
    # closed tautologies reverse an evaluation; reverse and dualise some
    closed = [f for f in enumerate_formulas(3, (T, F)) if is_tautology(f)]
    for f in closed[::10]:
        d = prove_tautology(f)
        dualize(spec, d)
        reverse_equational(spec, d)
    frag = make_fragment(spec)
    joints = 0
    for d in injected_corpus(seed=20240817, size=100):
        assert check(spec, eliminate_all_up(frag, d)) is None
        # joints that hold only modulo AC, above the up-steps and at the
        # conclusion: check rejects them, and elimination runs on them exactified
        for loose in (_without_acr(d), _commuted_conclusion(d)):
            inexact = _inexact_joints(loose) + (loose.conclusion != d.conclusion)
            assert (check(spec, loose) is None) == (inexact == 0)
            fixed = derivations.exactify(spec, loose)
            assert check(spec, eliminate_all_up(frag, fixed)) is None
            joints += inexact
        i = first_up_index(frag, d)
        sigma = d.steps[i]
        try:
            ctx = context_reduce(frag, splitting.before_step(d, i), sigma.sides).ctx
        except IrreducibleCase:  # a redex in weakening junk: no context to reduce
            continue
        splitting.instantiate_hole(spec, ctx, sigma.rule.conclusion)
        # a context derivation whose conclusion joint is inexact keeps that
        # joint once filled (by the unrecorded instantiate_hole)
        loose = _commuted_conclusion(ctx)
        if loose is not ctx:
            joints += 1
            _rejected_and_repaired(instantiate_hole(spec, loose, sigma.rule.conclusion))
    assert joints > 200
    assert set(built) == {
        "identity", "exactify", "from_text", "derivation",  # Builder.derivation
        "before_step", "after_step", "instantiate_hole", "_backwards",
    }
    assert len(seen) > 10_000
    for d in seen:
        assert _reference_exactify(spec, d) == d


def _relabelled(d, i, rule_id):
    steps = list(d.steps)
    steps[i] = Step(steps[i].context, replace(steps[i].rule, rule_id=rule_id))
    return Derivation(d.premise, tuple(steps), d.conclusion)


def _with_undeclared_relation(d):
    """d, then a step that brings in the undeclared relation zz through an
    equational binding: threaded exactly, so a file of it reads back."""
    b = Builder(spec, d)
    b.apply_eq((), "p0_select", dict(A=d.conclusion, B=parse_formula("(x zz y)")),
               direction="bwd")
    return b.derivation()


def test_check_verdicts_do_not_depend_on_process_state(tmp_path, corpus_and_eliminated,
                                                       synthesised):
    # check in this process, where the inputs' rule instances are live and
    # shared, and on the inputs' files in a fresh interpreter, whose
    # instance table starts empty: the verdicts must agree
    _, eliminated = corpus_and_eliminated
    rng = random.Random(20261021)
    inputs = []
    for d in rng.sample(eliminated, 20) + rng.sample(synthesised, 20):
        labelled = [i for i, s in enumerate(d.steps) if s.rule.scheme is not Scheme.AC]
        i = rng.choice(labelled)
        other = rng.choice([d.steps[j].rule.rule_id for j in labelled
                            if d.steps[j].rule.rule_id != d.steps[i].rule.rule_id])
        inputs += [d, _drop(d, rng.randrange(len(d.steps))), _relabelled(d, i, other),
                   _with_undeclared_relation(d)]
    paths = []
    for n, d in enumerate(inputs):
        paths.append(tmp_path / f"{n}.drv")
        paths[-1].write_text(to_text(spec, d))
    src = os.path.dirname(os.path.dirname(os.path.abspath(derivations.__file__)))
    proc = subprocess.run([sys.executable, "-c", _CHECK_FILES, *map(str, paths)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    verdicts = proc.stdout.splitlines()
    assert len(verdicts) == len(inputs)
    read = collections.Counter()
    for d, verdict in zip(inputs, verdicts):
        code, _, err = verdict.partition(" ")
        failure = check(spec, d)
        assert (failure is None) == (code == "0"), (failure, verdict)
        if failure is None or err.startswith("invalid: "):  # the file was read
            assert err == ("" if failure is None else f"invalid: {failure}")
            read[failure is None] += 1
    # every unmutated input and every added step with zz reads back
    assert read == {True: 40, False: 40}
