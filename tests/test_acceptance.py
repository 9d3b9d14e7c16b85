"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s`)."""

import hashlib
import itertools
import random
import time

import pytest

from medial.clones import BoolFn, GENERATORS, binary_slice, closure, membership
from medial.derivations import check, from_text, to_text
from medial.generators import derive_contraction, derive_excluded_middle
from medial.r23 import (
    R23_TABLES,
    audit_r23,
    audit_report_csv,
    make_r23_rules,
    random_clone_formula,
    sat_brute,
    sat_c2,
)
from medial.splitting import (
    eliminate_all_up,
    first_up_index,
    in_down_fragment,
    make_fragment,
)
from medial.system_p import (
    all_valuations,
    audit_soundness,
    evaluate,
    is_tautology,
    make_p_spec,
)
from medial.systems import instantiate
from medial.terms import (
    Compound,
    Constant,
    Metavar,
    Variable,
    ac_canonical,
    negate,
    subterms,
    variables,
)

from helpers import enumerate_formulas, injected_corpus, random_formula

spec = make_p_spec()
frag = make_fragment(spec)

LEAVES = (
    Variable("x"), Variable("x", True), Variable("y"), Variable("y", True)
)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {state}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def two_var_formulas():
    return enumerate_formulas(3, LEAVES)


@pytest.fixture(scope="module")
def elimination_run():
    corpus = injected_corpus(seed=20240817, size=100)
    recorder: list = []
    results = []
    for p in corpus:
        results.append((p, eliminate_all_up(frag, p, recorder)))
    return results, recorder


def test_criterion_1_rule_soundness():
    start = time.time()
    result = audit_soundness(spec)
    ok = len(result) == 12 and all(passed for _, passed in result)
    elapsed = time.time() - start
    report("1 (rule soundness of P)", ok and elapsed < 1.0,
           f"12 rules audited in {elapsed:.2f}s")


def test_criterion_2_congruence_semantics():
    start = time.time()
    rng = random.Random(20240802)
    failures = 0
    samples_per_axiom = -(-200 // len(spec.axioms))  # at least 200 in total
    for ax in spec.axioms:
        sorts = {
            t.name: t.sort
            for side in (ax.lhs, ax.rhs)
            for t in subterms(side)
            if isinstance(t, Metavar)
        }
        for _ in range(samples_per_axiom):
            bindings = {}
            for name, sort in sorts.items():
                if sort == "constant":
                    bindings[name] = Constant(rng.choice("TF"))
                elif sort == "literal":
                    bindings[name] = Variable(rng.choice("xyz"), rng.random() < 0.5)
                else:
                    bindings[name] = random_formula(rng, 2)
            lhs = instantiate(spec, ax.lhs, bindings)
            rhs = instantiate(spec, ax.rhs, bindings)
            names = sorted(variables(lhs) | variables(rhs))
            if any(
                evaluate(lhs, v) != evaluate(rhs, v) for v in all_valuations(names)
            ):
                failures += 1
    elapsed = time.time() - start
    report("2 (congruence/semantics coherence)", failures == 0 and elapsed < 5.0,
           f"{len(spec.axioms)} axioms x {samples_per_axiom} samples in {elapsed:.2f}s")


def test_criterion_3_excluded_middle_and_contraction(two_var_formulas):
    start = time.time()
    bad = 0
    for f in two_var_formulas:
        em = derive_excluded_middle(spec, "&", f)
        ok = (
            check(spec, em) is None
            and em.conclusion == Compound("|", f, negate(spec, f))
            and is_tautology(em.conclusion)
        )
        contr = derive_contraction(spec, "|", f)
        ok = ok and check(spec, contr) is None and contr.conclusion == f
        if not ok:
            bad += 1
    elapsed = time.time() - start
    report("3 (excluded middle & contraction generators)",
           bad == 0 and elapsed < 30.0,
           f"{len(two_var_formulas)} formulas in {elapsed:.1f}s")


def test_criterion_4_completeness_desk_scale(height3):
    start = time.time()
    tautologies = height3.tautologies
    bad = 0
    for f, d in zip(tautologies, height3.proofs):
        if check(spec, d) is not None or ac_canonical(spec, d.conclusion) != ac_canonical(spec, f):
            bad += 1
    # the shared fixture proved them: its time counts here
    elapsed = height3.seconds + time.time() - start
    report("4 (completeness at desk scale)", bad == 0 and elapsed < 120.0,
           f"{len(tautologies)} tautologies proved in {elapsed:.1f}s")


def test_criterion_5_cut_elimination(elimination_run):
    start = time.time()
    results, _ = elimination_run
    bad = 0
    for injected, eliminated in results:
        ok = (
            check(spec, eliminated) is None
            and eliminated.premise == injected.premise
            and eliminated.conclusion == injected.conclusion
            and first_up_index(frag, eliminated) is None
            and all(in_down_fragment(s) for s in eliminated.steps)
        )
        if not ok:
            bad += 1
    elapsed = time.time() - start
    report("5 (cut elimination over the injected corpus)", bad == 0,
           f"100 proofs normalised, checks in {elapsed:.1f}s")


def test_criterion_6_shallow_splitting_bounds(elimination_run):
    _, recorder = elimination_run
    violations = [r for r in recorder if not r.bound_holds]
    report("6 (shallow splitting length bounds)",
           len(recorder) > 0 and not violations,
           f"{len(recorder)} internal splits logged, {len(violations)} violations")


def test_criterion_7_clone_oracle_agreement():
    start = time.time()
    all16 = [BoolFn(2, t) for t in itertools.product((False, True), repeat=4)]
    ok = all(membership(f, "C1") for f in all16)
    for clone in ("C2", "C3", "L1", "A1", "D3"):
        predicate = {f for f in all16 if membership(f, clone)}
        oracle = binary_slice(closure(GENERATORS[clone], 2))
        ok = ok and predicate == oracle
    elapsed = time.time() - start
    report("7 (clone oracle agreement)", ok and elapsed < 1.0,
           f"five maximal clones + C1 in {elapsed:.2f}s")


def test_criterion_8_r23_fidelity():
    golden = {
        "->": (True, True, False, True),
        "<-": (True, False, True, True),
        "!>": (False, False, True, False),
        "!<": (False, True, False, False),
        "p0": (False, False, True, True),
        "p1": (False, True, False, True),
        "np0": (True, True, False, False),
        "np1": (True, False, True, False),
    }
    tables_ok = set(R23_TABLES) == set(golden) and all(
        R23_TABLES[rel] == golden[rel] for rel in golden
    )
    rules = make_r23_rules()
    result = audit_r23(rules)
    csv = audit_report_csv(result)
    report_ok = (
        len(rules) == 20
        and len(result) == 20
        and {rid for rid, _ in result} == {r.rule_id for r in rules}
        and len(csv.splitlines()) == 21
    )
    sound = sum(1 for _, ok in result if ok)
    report("8 (R23 tables and audit report)", tables_ok and report_ok,
           f"32 cells match; report complete, {sound}/20 rules audit sound")


def test_criterion_9_c2_sat_triviality():
    start = time.time()
    rng = random.Random(20240809)
    bad = 0
    for _ in range(1000):
        n_vars = rng.randint(1, 10)
        f = random_clone_formula(rng, "C2", n_vars)
        valuation = sat_c2(f)
        if not evaluate(f, valuation):
            bad += 1
        if sat_brute(f) is None:
            bad += 1
    elapsed = time.time() - start
    report("9 (C2 satisfiability triviality)", bad == 0 and elapsed < 30.0,
           f"1000 formulas in {elapsed:.1f}s")


def test_criterion_10_serialization_round_trip(height3, elimination_run):
    start = time.time()
    rng = random.Random(20240810)
    derivations = []
    for _ in range(300):
        derivations.append(derive_excluded_middle(spec, "&", random_formula(rng, 3)))
    derivations += height3.proofs[:150]
    results, _ = elimination_run
    derivations.extend(d for _, d in results[:50])
    assert len(derivations) == 500
    bad = 0
    for d in derivations:
        text = to_text(spec, d)
        _, reparsed = from_text(text, lambda name: spec)
        again = to_text(spec, reparsed)
        if hashlib.sha256(text.encode()).hexdigest() != hashlib.sha256(
            again.encode()
        ).hexdigest():
            bad += 1
        if check(spec, reparsed) is not None:
            bad += 1
    elapsed = time.time() - start
    report("10 (serialization round trip)", bad == 0,
           f"500 files re-parsed and re-checked bit-identically in {elapsed:.1f}s")
