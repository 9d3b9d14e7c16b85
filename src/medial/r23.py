"""The candidate rule set R23 over the eight implication/projection
relations, its semantics, the soundness audit, and the C2/C3
satisfiability harness."""

from __future__ import annotations

import functools
import random
import time
from typing import Optional, Sequence

from .system_p import AUDIT_BINDINGS, TRUTH_TABLES, all_valuations, audit_instances, evaluate
from .systems import Metavar, RelationSymbol, SystemError, SystemSpec, instantiate
from .terms import Compound, Constant, Formula, Variable, _Record, subterms, variables

# the rows evaluate reads, for the eight implication/projection relations
R23_TABLES = {
    rel: TRUTH_TABLES[rel] for rel in ("->", "<-", "!>", "!<", "p0", "p1", "np0", "np1")
}

# involutive negation coherent with negating compounds argumentwise:
# table(~r)(a,b) = not table(r)(not a, not b); row i of (not a, not b) is 3 - i
R23_NEGATION = {
    rel: next(
        dual for dual, other in R23_TABLES.items()
        if other == tuple(not table[3 - i] for i in range(4))
    )
    for rel, table in R23_TABLES.items()
}


class ConnectiveOutsideClone(SystemError):
    pass


class VarCap(SystemError):
    pass


@functools.cache
def make_r23_spec() -> SystemSpec:
    """Relations and negation only: the rule set ships without an
    equational theory, so derivation checking stays out of scope."""
    return SystemSpec(
        name="R23",
        constants=("T", "F"),
        constant_negation={"T": "F", "F": "T"},
        relations=tuple(
            RelationSymbol(name, R23_NEGATION[name]) for name in R23_TABLES
        ),
    )


class R23Rule(_Record):
    __slots__ = _fields = ("rule_id", "premise", "conclusion")

    rule_id: str
    premise: Formula  # pattern over metavariables A, B, C, D
    conclusion: Formula

    def __init__(self, rule_id: str, premise: Formula, conclusion: Formula) -> None:
        super().__init__(rule_id, premise, conclusion)


def _family(prefix: str, f: str, fp: str, glb: str, lub: str,
            meet: str, joint: str) -> list:
    A, B, C, D = (Metavar(n) for n in "ABCD")

    def c(rel, left, right):
        return Compound(rel, left, right)

    rules = [
        R23Rule(f"{prefix}.ai0d", c(f, c(glb, A, B), c(glb, C, D)),
                c(glb, c(f, A, C), c(f, B, D))),
        R23Rule(f"{prefix}.ai0u", c(meet, c(f, A, C), c(f, B, D)),
                c(f, c(meet, A, B), c(meet, C, D))),
        R23Rule(f"{prefix}.ai1d", c(fp, c(glb, A, B), c(glb, C, D)),
                c(glb, c(fp, A, C), c(fp, B, D))),
        R23Rule(f"{prefix}.ai1u", c(meet, c(fp, A, C), c(fp, B, D)),
                c(fp, c(meet, A, B), c(meet, C, D))),
        R23Rule(f"{prefix}.sd", c(lub, c(glb, A, B), c(glb, C, D)),
                c(glb, c(lub, A, C), c(joint, B, D))),
        R23Rule(f"{prefix}.su", c(meet, c(joint, A, C), c(lub, B, D)),
                c(joint, c(meet, A, B), c(meet, C, D))),
        R23Rule(f"{prefix}.c0d", c(glb, c(f, A, B), c(f, C, D)),
                c(f, c(glb, A, C), c(glb, B, D))),
        R23Rule(f"{prefix}.c0u", c(f, c(meet, A, C), c(meet, B, D)),
                c(meet, c(f, A, B), c(f, C, D))),
        R23Rule(f"{prefix}.c1d", c(glb, c(fp, A, B), c(fp, C, D)),
                c(fp, c(glb, A, C), c(glb, B, D))),
        R23Rule(f"{prefix}.c1u", c(fp, c(meet, A, C), c(meet, B, D)),
                c(meet, c(fp, A, B), c(fp, C, D))),
    ]
    return rules


def make_r23_rules() -> list:
    """The twenty medial shapes: the left family over implication and the
    right family over reverse implication."""
    left = _family("L", f="np0", fp="p1", glb="->", lub="!<", meet="!>", joint="<-")
    right = _family("R", f="p0", fp="np1", glb="<-", lub="!>", meet="!>", joint="->")
    return left + right


def audit_r23(rules: Optional[Sequence[R23Rule]] = None) -> list:
    """Per rule, does truth of the premise force truth of the conclusion
    over all sixteen assignments?  Failures are reported, not hidden."""
    if rules is None:
        rules = make_r23_rules()
    spec = make_r23_spec()
    return audit_instances(
        (r.rule_id, instantiate(spec, r.premise, AUDIT_BINDINGS),
         instantiate(spec, r.conclusion, AUDIT_BINDINGS))
        for r in rules
    )


def audit_report_csv(report: Sequence[tuple]) -> str:
    """An audit report as `rule,sound` CSV."""
    lines = ["rule,sound"]
    lines.extend(f"{rid},{'pass' if ok else 'fail'}" for rid, ok in report)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Satisfiability

C2_CONNECTIVES = frozenset({"&", "->", "<-", "|"})
C3_CONNECTIVES = frozenset({"&", "!<", "!>", "|"})
VAR_CAP = 24  # variables sat_brute enumerates at most
DEPTH_P, MAX_DEPTH = 0.4, 12  # random_clone_formula's depth distribution


def _connectives(f: Formula) -> set:
    return {t.rel for t in subterms(f) if isinstance(t, Compound)}


def _constants(f: Formula) -> set:
    return {t.name for t in subterms(f) if isinstance(t, Constant)}


def sat_c2(f: Formula) -> dict:
    """Formulas over the 1-preserving connectives are satisfied by the
    all-true valuation."""
    bad = _connectives(f) - C2_CONNECTIVES
    if bad:
        raise ConnectiveOutsideClone(f"connectives outside C2: {sorted(bad)}")
    if "F" in _constants(f):
        raise ConnectiveOutsideClone("constant F is outside C2")
    valuation = {name: True for name in variables(f)}
    if not evaluate(f, valuation):
        raise SystemError("all-true valuation failed on a C2 formula")
    return valuation


def sat_brute(f: Formula):
    """First satisfying valuation in enumeration order, or None."""
    names = sorted(variables(f))
    if len(names) > VAR_CAP:
        raise VarCap(f"{len(names)} variables exceed the cap {VAR_CAP}")
    for valuation in all_valuations(names):
        if evaluate(f, valuation):
            return valuation
    return None


def random_clone_formula(rng: random.Random, clone: str, n_vars: int) -> Formula:
    """Uniform connectives from the clone's set, geometric depth (each level
    continues with probability DEPTH_P, up to MAX_DEPTH), uniform variables."""
    if clone == "C2":
        rels, const = sorted(C2_CONNECTIVES), "T"
    elif clone == "C3":
        rels, const = sorted(C3_CONNECTIVES), "F"
    else:
        raise SystemError(f"unknown clone {clone!r}")
    root = rels[rng.randrange(len(rels))]
    return Compound(root, _random_subformula(rng, rels, const, n_vars, 1),
                    _random_subformula(rng, rels, const, n_vars, 1))


def _random_subformula(rng: random.Random, rels: list, const: str, n_vars: int,
                       depth: int) -> Formula:
    if depth >= MAX_DEPTH or rng.random() >= DEPTH_P:
        if rng.random() < 0.05:
            return Constant(const)
        return Variable(f"v{rng.randrange(n_vars)}")
    rel = rels[rng.randrange(len(rels))]
    return Compound(rel, _random_subformula(rng, rels, const, n_vars, depth + 1),
                    _random_subformula(rng, rels, const, n_vars, depth + 1))


def bench_sat(clone: str, var_counts: Sequence[int], sizes: Sequence[int],
              seed: int, samples: int) -> str:
    """CSV rows {clone, n_vars, size, seed, sat, micros}; deterministic for
    a fixed seed."""
    from .terms import size as term_size

    lines = ["clone,n_vars,size,seed,sat,micros"]
    rng = random.Random(seed)
    for n_vars in var_counts:
        for target in sizes:
            for _ in range(samples):
                sample_seed = rng.randrange(2 ** 32)
                srng = random.Random(sample_seed)
                f = random_clone_formula(srng, clone, n_vars)
                while term_size(f) < target:
                    f = Compound(
                        "&" if clone == "C3" and srng.random() < 0.5 else "|",
                        f,
                        random_clone_formula(srng, clone, n_vars),
                    )
                start = time.perf_counter()
                if clone == "C2":
                    sat_c2(f)
                    satisfiable = True
                else:
                    satisfiable = sat_brute(f) is not None
                micros = int((time.perf_counter() - start) * 1e6)
                lines.append(
                    f"{clone},{n_vars},{term_size(f)},{sample_seed},"
                    f"{int(satisfiable)},{micros}"
                )
    return "\n".join(lines) + "\n"
