"""Finite boolean functions, membership tests for the six named clones,
and a closure-generation oracle for validating the membership predicates
against generator presentations."""

from __future__ import annotations

import itertools
from typing import Iterable

from .system_p import all_valuations, evaluate
from .systems import SystemError
from .terms import Formula, _Record, variables


class ArityCap(SystemError):
    pass


class BoolFn(_Record):
    """Truth table with rows ordered by input tuple read as binary,
    all-false row first."""

    __slots__ = _fields = ("arity", "table")

    arity: int
    table: tuple

    def __init__(self, arity: int, table: tuple) -> None:
        super().__init__(arity, table)
        if len(self.table) != 2 ** self.arity:
            raise SystemError("table length must be 2^arity")

    @classmethod
    def from_callable(cls, arity: int, fn) -> "BoolFn":
        rows = itertools.product((False, True), repeat=arity)
        return cls(arity, tuple(bool(fn(*row)) for row in rows))

    def __call__(self, *args: bool) -> bool:
        if len(args) != self.arity:
            raise SystemError(f"arity {self.arity} function got {len(args)} args")
        idx = 0
        for a in args:
            idx = (idx << 1) | int(bool(a))
        return self.table[idx]

    def bits(self) -> str:
        return "".join("1" if b else "0" for b in self.table)


TRUE = BoolFn(0, (True,))
FALSE = BoolFn(0, (False,))
NOT = BoolFn.from_callable(1, lambda a: not a)
AND2 = BoolFn.from_callable(2, lambda a, b: a and b)
OR2 = BoolFn.from_callable(2, lambda a, b: a or b)
IMP = BoolFn.from_callable(2, lambda a, b: (not a) or b)
COIMP = BoolFn.from_callable(2, lambda a, b: a or (not b))
NIMP = BoolFn.from_callable(2, lambda a, b: a and not b)
NCOIMP = BoolFn.from_callable(2, lambda a, b: (not a) and b)
XOR = BoolFn.from_callable(2, lambda a, b: a != b)
IFF = BoolFn.from_callable(2, lambda a, b: a == b)
MAJ = BoolFn.from_callable(3, lambda a, b, c: (a and b) or (b and c) or (a and c))
NMAJ = BoolFn.from_callable(3, lambda a, b, c: not ((a and b) or (b and c) or (a and c)))

CLONES = ("C1", "C2", "C3", "L1", "A1", "D3")

GENERATORS = {
    "C1": (OR2, TRUE, NOT),
    "C2": (AND2, IMP, COIMP, OR2, TRUE),
    "C3": (FALSE, AND2, NCOIMP, NIMP, OR2),
    "L1": (FALSE, AND2, OR2, TRUE),
    "A1": (FALSE, IFF, XOR, TRUE, NOT),
    "D3": (MAJ, NMAJ),
}


def projection(arity: int, index: int) -> BoolFn:
    return BoolFn.from_callable(arity, lambda *args: args[index])


def _rows(arity: int):
    return itertools.product((False, True), repeat=arity)


def is_true_preserving(f: BoolFn) -> bool:
    return f(*([True] * f.arity))


def is_false_preserving(f: BoolFn) -> bool:
    return not f(*([False] * f.arity))


def is_monotone(f: BoolFn) -> bool:
    for a in _rows(f.arity):
        for b in _rows(f.arity):
            if all(x <= y for x, y in zip(a, b)) and f(*a) > f(*b):
                return False
    return True


def is_affine(f: BoolFn) -> bool:
    """Representable as a constant xor a subset of the inputs."""
    for const in (False, True):
        for mask in itertools.product((False, True), repeat=f.arity):
            ok = True
            for row in _rows(f.arity):
                acc = const
                for sel, val in zip(mask, row):
                    if sel:
                        acc ^= val
                if acc != f(*row):
                    ok = False
                    break
            if ok:
                return True
    return False


def is_self_dual(f: BoolFn) -> bool:
    return all(
        f(*[not a for a in row]) == (not f(*row)) for row in _rows(f.arity)
    )


_PREDICATES = {
    "C1": lambda f: True,
    "C2": is_true_preserving,
    "C3": is_false_preserving,
    "L1": is_monotone,
    "A1": is_affine,
    "D3": is_self_dual,
}


def membership(f: BoolFn, clone: str) -> bool:
    try:
        return _PREDICATES[clone](f)
    except KeyError:
        raise SystemError(f"unknown clone {clone!r}") from None


def classify(f: BoolFn) -> tuple:
    return tuple(c for c in CLONES if membership(f, c))


def closure(generators: Iterable[BoolFn], max_arity: int) -> set:
    """Least composition-closed set containing all projections of arity up
    to max_arity and the generators (higher-arity generators contribute
    through composition over lower-arity arguments)."""
    if max_arity > 3:
        raise ArityCap("closure oracle is capped at arity 3")
    generators = tuple(generators)
    funcs: set = set()
    for n in range(1, max_arity + 1):
        for i in range(n):
            funcs.add(projection(n, i))
    for g in generators:
        if 0 < g.arity <= max_arity:
            funcs.add(g)
        if g.arity == 0:
            for n in range(1, max_arity + 1):
                funcs.add(BoolFn(n, tuple(g.table * (2 ** n))))
    heads = set(generators) | funcs
    changed = True
    while changed:
        changed = False
        by_arity: dict = {}
        for f in funcs:
            by_arity.setdefault(f.arity, []).append(f)
        for head in tuple(heads):
            if head.arity == 0:
                continue
            for m in range(1, max_arity + 1):
                pool = by_arity.get(m, [])
                for args in itertools.product(pool, repeat=head.arity):
                    composed = BoolFn.from_callable(
                        m, lambda *xs, h=head, gs=args: h(*[g(*xs) for g in gs])
                    )
                    if composed not in funcs:
                        funcs.add(composed)
                        heads.add(composed)
                        changed = True
    return funcs


def binary_slice(funcs: Iterable[BoolFn]) -> set:
    return {f for f in funcs if f.arity == 2}


def formula_function(f: Formula) -> BoolFn:
    """Truth table of a formula, variables in sorted name order."""
    names = sorted(variables(f))
    return BoolFn(len(names), tuple(evaluate(f, v) for v in all_valuations(names)))
