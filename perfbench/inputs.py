"""Input generators for the kernel benchmark.

Run as its own process by ``run.py``: it builds every input of one
workload with the kernel and prints them as one JSON object on stdout, so
none of the spec caches it fills reach the measured processes.

The corpora are pinned to the seeds of the acceptance suite (see
NOTES.md); the ``--seed`` of a run orders the stream of ops and, for
``verify``, picks and places the mutants.  The recipes below are the
benchmark's own copies, kept step for step with the acceptance corpus, so
an edit to a test file cannot change what the benchmark measures.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from medial.derivations import Builder, from_text, to_text
from medial.generators import derive_excluded_middle
from medial.system_p import is_tautology, make_p_spec, prove_tautology
from medial.systems import Scheme
from medial.terms import (
    Compound,
    Constant,
    Metavar,
    Variable,
    print_formula,
    subformula_at_sides,
    subterms,
)

CORPUS_SEED = 20240817      # the injected corpus of acceptance criterion 5
ROUND_TRIP_SEED = 20240810  # the random formulas of acceptance criterion 10
CORPUS_SIZE = 100
VERIFY_EM, VERIFY_SYNTH, VERIFY_INJECTED = 300, 150, 50
MUTANT_CLASSES = ("binding", "conclusion", "rule", "alphabet")
MUTANTS_PER_CLASS = 25
FRESH = "q"  # a variable no input formula contains

T = Constant("T")
F = Constant("F")
P_RELS = ("&", "|", "p0", "p1")
LEAVES = (Variable("x"), Variable("x", True), Variable("y"), Variable("y", True))


# ---------------------------------------------------------------------------
# Formulas


def enumerate_formulas(max_height: int, leaves) -> list:
    """All formulas over the leaf set with height at most max_height
    (atoms at height 1), lowest layer first."""
    layers = [list(leaves)]
    for _ in range(max_height - 1):
        everything = [f for layer in layers for f in layer]
        layers.append([
            Compound(rel, a, b) for rel in P_RELS for a in everything for b in everything
        ])
    return [f for layer in layers for f in layer]


def random_formula(rng: random.Random, depth: int, names=("x", "y", "z"),
                   atom_p: float = 0.35):
    if depth == 0 or rng.random() < atom_p:
        if rng.random() < 0.15:
            return Constant(rng.choice("TF"))
        return Variable(rng.choice(names), rng.random() < 0.4)
    rel = rng.choice(P_RELS)
    return Compound(rel, random_formula(rng, depth - 1, names, atom_p),
                    random_formula(rng, depth - 1, names, atom_p))


# ---------------------------------------------------------------------------
# The injected corpus: down-fragment proofs with splitting up-rules added


def _tree_positions(f, prefix: tuple = ()):
    yield prefix
    if isinstance(f, Compound):
        yield from _tree_positions(f.left, prefix + ("L",))
        yield from _tree_positions(f.right, prefix + ("R",))


def _base_down_proof(spec, rng: random.Random):
    """An excluded-middle derivation from T, or a conjunction of two."""
    if rng.random() < 0.6:
        return derive_excluded_middle(spec, "&", random_formula(rng, 2))
    b = Builder(spec, T)
    b.apply_eq((), "const_idem", dict(U=F), negated=True, direction="bwd")
    b.splice(("L",), derive_excluded_middle(spec, "&", random_formula(rng, 1)))
    b.splice(("R",), derive_excluded_middle(spec, "&", random_formula(rng, 1)))
    return b.derivation()


def _inject_up_step(spec, rng: random.Random, b: Builder) -> None:
    """Append one splitting up-rule instance, with the equational set-up
    it needs, at a random position of the running conclusion."""
    pos = rng.choice(list(_tree_positions(b.current)))
    x = subformula_at_sides(b.current, pos)
    kind = rng.choice(["su", "ai0u", "ai1u"])
    junk = random_formula(rng, 1)
    b.rewrite(pos, Compound("&", x, T))
    if kind == "su":
        if not (isinstance(x, Compound) and x.rel == "|"):
            b.apply_eq(pos + ("L",), "or_unit", dict(A=x), direction="bwd")
            x = Compound("|", x, F)
        b.rewrite(pos + ("R",), Compound("&", T, T))
        b.apply_scheme(pos, Scheme.SPLIT_UP, dict(A=x.left, B=T, C=x.right, D=T), "|", "&")
    elif kind == "ai0u":
        b.rewrite(pos + ("L",), Compound("p0", x, junk))
        b.rewrite(pos + ("R",), Compound("p0", T, T))
        b.apply_scheme(pos, Scheme.SPLIT_UP, dict(A=x, B=T, C=junk, D=T), "p0", "&")
    else:
        b.rewrite(pos + ("L",), Compound("p1", junk, x))
        b.rewrite(pos + ("R",), Compound("p1", T, T))
        b.apply_scheme(pos, Scheme.SPLIT_UP, dict(A=junk, B=T, C=x, D=T), "p1", "&")


def injected_corpus(spec, seed: int, size: int) -> list:
    """Pure down-fragment proofs, each injected with one to three up-rules."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        base = _base_down_proof(spec, rng)
        b = Builder(spec, base.premise)
        b.splice((), base)
        for _ in range(rng.randint(1, 3)):
            _inject_up_step(spec, rng, b)
        out.append(b.derivation())
    return out


# ---------------------------------------------------------------------------
# Mutants: derivation files whose verdict is reject by construction


def _premise_metavars(spec, d, i: int) -> list:
    """Binding names of step i that occur in the pattern of its premise.
    A fresh variable bound to one of them puts that variable into the
    step's premise, which the running formula cannot contain."""
    rule = d.steps[i].rule
    if rule.scheme.is_medial:
        return ["A", "B", "C", "D"]
    if rule.scheme is Scheme.AC:
        return []
    ax = spec.axioms_by_id[rule.axiom_id]
    side = ax.lhs if rule.direction == "fwd" else ax.rhs
    return sorted({
        t.name for t in subterms(side)
        if isinstance(t, Metavar) and t.sort != "constant"
    })


def _mutable_steps(spec, d, kind: str) -> list:
    if kind == "binding":
        return [k for k in range(len(d.steps)) if _premise_metavars(spec, d, k)]
    if kind == "rule":
        return [k for k in range(len(d.steps)) if d.steps[k].rule.rule_id != "acr"]
    return [None]


def mutate(spec, text: str, d, kind: str, rng: random.Random) -> str:
    """A copy of the derivation file `text`, which parses to `d`, that
    must be rejected.

    binding     a binding in the premise of one step becomes the fresh
                variable, so the file no longer threads
    conclusion  the conclusion becomes (C | q), not AC-equal to C
    rule        one non-acr step names an undeclared rule
    alphabet    the whole derivation runs under an undeclared relation,
                which only the checker's premise test rejects
    """
    lines = text.splitlines()
    step_lines = [n for n, line in enumerate(lines) if line.startswith("step: ")]
    conc = next(n for n, line in enumerate(lines) if line.startswith("conclusion: "))
    if kind == "conclusion":
        lines[conc] = f"conclusion: ({lines[conc][len('conclusion: '):]} | {FRESH})"
    elif kind == "alphabet":
        prem = next(n for n, line in enumerate(lines) if line.startswith("premise: "))
        for tag, n in (("premise: ", prem), ("conclusion: ", conc)):
            lines[n] = f"{tag}({lines[n][len(tag):]} np0 {FRESH})"
        for n in step_lines:
            fields = lines[n][len("step: "):].split(" ")
            fields = [
                "path=L" + ("" if f == "path=-" else f[len("path="):])
                if f.startswith("path=") else f
                for f in fields
            ]
            lines[n] = "step: " + " ".join(fields)
    else:
        k = rng.choice(_mutable_steps(spec, d, kind))
        fields = lines[step_lines[k]][len("step: "):].split(" ")
        if kind == "binding":
            name = rng.choice(_premise_metavars(spec, d, k))
            fields = [f"{name}={FRESH}" if f.startswith(name + "=") else f for f in fields]
        else:
            fields[0] += "_undeclared"
        lines[step_lines[k]] = "step: " + " ".join(fields)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workloads


def _tautologies(formulas) -> list:
    return [f for f in formulas if is_tautology(f)]


def build(workload: str, seed: int) -> dict:
    spec = make_p_spec()
    formulas = enumerate_formulas(3, LEAVES)
    if workload == "eliminate":
        corpus = injected_corpus(spec, CORPUS_SEED, CORPUS_SIZE)
        return {"items": [to_text(spec, d) for d in corpus],
                "counts": {"proofs": len(corpus),
                           "steps_in": sum(len(d.steps) for d in corpus)}}
    if workload == "generate":
        return {"items": [print_formula(f) for f in formulas],
                "counts": {"formulas": len(formulas)}}
    if workload == "synthesise":
        tautologies = _tautologies(formulas)
        return {"items": [print_formula(f) for f in tautologies],
                "counts": {"tautologies": len(tautologies)}}
    if workload == "verify":
        rng = random.Random(ROUND_TRIP_SEED)
        derivations = [derive_excluded_middle(spec, "&", random_formula(rng, 3))
                       for _ in range(VERIFY_EM)]
        derivations += [prove_tautology(f) for f in _tautologies(formulas)[:VERIFY_SYNTH]]
        derivations += injected_corpus(spec, CORPUS_SEED, VERIFY_INJECTED)
        texts = [to_text(spec, d) for d in derivations]
        items = [{"text": t, "accept": True} for t in texts]
        # the parsed file, whose step k is the file's step k
        parsed = [from_text(t, lambda name: spec)[1] for t in texts]
        rng = random.Random(seed)
        for kind in MUTANT_CLASSES:
            targets = [i for i, d in enumerate(parsed) if _mutable_steps(spec, d, kind)]
            for i in rng.sample(targets, MUTANTS_PER_CLASS):
                items.append({"text": mutate(spec, texts[i], parsed[i], kind, rng),
                              "accept": False, "mutant": kind})
        return {"items": items,
                "counts": {"files": len(texts), "mutants": len(items) - len(texts)}}
    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    json.dump(build(args.workload, args.seed), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
