"""Shared test machinery: random formulas, proof corpus generation,
up-rule injection, and reading and copying the kernel's records."""

from __future__ import annotations

import os
import random

from medial import system_p
from medial.derivations import Builder, Derivation
from medial.generators import derive_excluded_middle
from medial.system_p import make_p_spec
from medial.systems import Scheme
from medial.terms import Compound, Constant, Formula, Metavar, Variable, subformula_at_sides

T = Constant("T")
F = Constant("F")
P_RELS = ("&", "|", "p0", "p1")
# the shipped descriptor make_p_spec reads
with open(os.path.join(os.path.dirname(system_p.__file__), "P.sys"), encoding="utf-8") as _f:
    P_TEXT = _f.read()


def fields(record) -> tuple:
    """The field names of a kernel record, in order: those that make its
    value (`_fields`), then any slot kept beside them, as RuleInstance's
    cost_memo."""
    return tuple([name for name in type(record).__slots__ if name != "__weakref__"])


def replace(record, **changes):
    """A copy of a kernel record with changes, built through its constructor,
    so that a slot kept beside its value starts afresh (dataclasses.replace)."""
    unknown = changes.keys() - set(record._fields)
    if unknown:
        raise TypeError(f"{type(record).__name__} has no field {', '.join(sorted(unknown))}")
    return type(record)(*[changes.get(f, getattr(record, f)) for f in record._fields])


def random_formula(rng: random.Random, depth: int, names=("x", "y", "z"),
                   atom_p: float = 0.35, consts: bool = True, rels=P_RELS) -> Formula:
    if depth == 0 or rng.random() < atom_p:
        if consts and rng.random() < 0.15:
            return Constant(rng.choice("TF"))
        return Variable(rng.choice(names), rng.random() < 0.4)
    rel = rng.choice(rels)
    return Compound(rel, random_formula(rng, depth - 1, names, atom_p, consts, rels),
                    random_formula(rng, depth - 1, names, atom_p, consts, rels))


def enumerate_formulas(max_height: int, leaves) -> list:
    """All formulas over the leaf set with height at most max_height
    (atoms at height 1)."""
    layers = [list(leaves)]
    for _ in range(max_height - 1):
        prev = layers[-1]
        everything = [f for layer in layers for f in layer]
        new = [
            Compound(rel, a, b)
            for rel in P_RELS
            for a in everything
            for b in everything
        ]
        layers.append(new)
    return [f for layer in layers for f in layer]


def ac_flag_shapes() -> list:
    """P's associativity (of every relation) and commutativity (of & and |)
    as (lhs, rhs) pattern pairs.  P declares them as relation flags, not as
    axioms."""
    A, B, C = (Metavar(n) for n in "ABC")
    shapes = [(Compound(r, Compound(r, A, B), C), Compound(r, A, Compound(r, B, C)))
              for r in ("&", "|", "p0", "p1")]
    return shapes + [(Compound(r, A, B), Compound(r, B, A)) for r in ("&", "|")]


def all_tree_positions(f: Formula, prefix: tuple = ()):
    yield prefix
    if isinstance(f, Compound):
        yield from all_tree_positions(f.left, prefix + ("L",))
        yield from all_tree_positions(f.right, prefix + ("R",))


def base_down_proof(rng: random.Random) -> Derivation:
    """A pure down-fragment proof from T: an excluded-middle derivation or
    a conjunction of two."""
    spec = make_p_spec()
    if rng.random() < 0.6:
        return derive_excluded_middle(spec, "&", random_formula(rng, 2))
    b = Builder(spec, T)
    b.apply_eq((), "const_idem", dict(U=F), negated=True, direction="bwd")
    b.splice(("L",), derive_excluded_middle(spec, "&", random_formula(rng, 1)))
    b.splice(("R",), derive_excluded_middle(spec, "&", random_formula(rng, 1)))
    return b.derivation()


def inject_up_step(rng: random.Random, b: Builder) -> None:
    """Append one splitting up-rule instance (plus the equational setup it
    needs) at a random position of the running conclusion."""
    pos = rng.choice(list(all_tree_positions(b.current)))
    kind = rng.choice(["su", "ai0u", "ai1u"])
    junk = random_formula(rng, 1)
    if kind == "su":
        inject_su(b, pos)
        return
    x = subformula_at_sides(b.current, pos)
    b.rewrite(pos, Compound("&", x, T))
    rel = "p0" if kind == "ai0u" else "p1"
    a, c = (x, junk) if rel == "p0" else (junk, x)
    b.rewrite(pos + ("L",), Compound(rel, a, c))
    b.rewrite(pos + ("R",), Compound(rel, T, T))
    b.apply_scheme(pos, Scheme.SPLIT_UP, dict(A=a, B=T, C=c, D=T), rel, "&")


def inject_su(b: Builder, pos: tuple) -> None:
    """Append an su instance (plus the equational setup it needs) at pos of
    the running conclusion; it uses only &, | and the unit axiom of |."""
    x = subformula_at_sides(b.current, pos)
    b.rewrite(pos, Compound("&", x, T))
    if not (isinstance(x, Compound) and x.rel == "|"):
        b.apply_eq(pos + ("L",), "or_unit", dict(A=x), direction="bwd")
        x = Compound("|", x, F)
    b.rewrite(pos + ("R",), Compound("&", T, T))
    b.apply_scheme(pos, Scheme.SPLIT_UP, dict(A=x.left, B=T, C=x.right, D=T), "|", "&")


def injected_corpus(seed: int, size: int, ups: tuple = (1, 3)) -> list:
    """Seed-fixed pure down-fragment proofs, each injected with ups[0] to
    ups[1] up-rule instances (by default one to three)."""
    rng = random.Random(seed)
    spec = make_p_spec()
    out = []
    for _ in range(size):
        base = base_down_proof(rng)
        b = Builder(spec, base.premise)
        b.splice((), base)
        for _ in range(rng.randint(*ups)):
            inject_up_step(rng, b)
        out.append(b.derivation())
    return out
