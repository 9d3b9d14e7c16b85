"""Spec mutation: P's descriptor with one `axiom:` or `rule:` line deleted
rejects a derivation file exactly when the file uses that line.  A checker
that accepted a step its descriptor does not declare, or that needed a
declaration a file does not use, would misjudge some file here."""

import random

from medial.derivations import Builder, check, from_text, to_text
from medial.splitting import eliminate_all_up, make_fragment
from medial.system_p import is_tautology, make_p_spec, prove_tautology
from medial.systems import eq_instance, instantiate_rule, spec_from_text
from medial.terms import Constant, TermError, Variable

from helpers import P_TEXT, injected_corpus, random_formula

SEED = 20261019
spec = make_p_spec()


def _one_step(rule):
    b = Builder(spec, rule.premise)
    b.apply((), rule)
    return b.derivation()


def _sample() -> list:
    """Seed-sampled corpus proofs, their eliminated forms and synthesised
    proofs, plus one one-step derivation per declared rule and axiom, so
    that every line is used by some file."""
    rng = random.Random(SEED)
    corpus = rng.sample(injected_corpus(seed=20240817, size=100), 12)
    frag = make_fragment(spec)
    files = corpus + [eliminate_all_up(frag, d) for d in corpus]
    tautologies = 0
    while tautologies < 8:
        f = random_formula(rng, 3, names=("x", "y"))
        if is_tautology(f):
            files.append(prove_tautology(f))
            tautologies += 1
    x, y = Variable("x"), Variable("y", True)
    for decl in spec.rules:
        abcd = dict(A=x, B=y, C=Constant("T"), D=x)
        files.append(_one_step(instantiate_rule(spec, decl.scheme, abcd, decl.alpha, decl.beta)))
    by_sort = {"formula": y, "literal": x, "constant": Constant("F")}
    for ax in spec.axioms:
        o = spec.oriented_axioms[ax.axiom_id, False, "fwd"]
        bindings = {name: by_sort[sort] for name, sort in o.sorts}
        bindings.update((name, y) for name in o.metavars - bindings.keys())
        files.append(_one_step(eq_instance(spec, ax.axiom_id, bindings)))
    return files


def _parses(cut, text: str) -> bool:
    try:
        from_text(text, lambda name: cut)
    except TermError:
        return False
    return True


def test_a_file_is_rejected_exactly_when_it_uses_the_deleted_line():
    # from_text and check each reject alone: neither may lean on the other
    files = _sample()
    texts = [to_text(spec, d) for d in files]
    used = [{s.rule.rule_id for s in d.steps} for d in files]
    full = P_TEXT
    whole = spec_from_text(full)
    parsed = [from_text(t, lambda name: whole)[1] for t in texts]
    assert [n for n, d in enumerate(parsed) if check(whole, d) is not None] == []
    lines = [line for line in full.splitlines() if line.startswith(("axiom:", "rule:"))]
    assert len(lines) == len(spec.axioms) + len(spec.rules)
    misjudged = []
    for line in lines:
        section, name = line.split()[:2]
        labels = {f"eq:{name}", f"eq:{name}:n"} if section == "axiom:" else {name}
        cut = spec_from_text(full.replace(line + "\n", ""))
        users = [n for n, u in enumerate(used) if u & labels]
        assert users, f"no file uses {line}"
        for verdict, rejected in (
            ("from_text", [n for n, t in enumerate(texts) if not _parses(cut, t)]),
            ("check", [n for n, d in enumerate(parsed) if check(cut, d) is not None]),
        ):
            if rejected != users:
                misjudged.append((line, verdict, sorted(set(rejected) ^ set(users))))
    assert misjudged == []
