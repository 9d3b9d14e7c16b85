"""Constructive derivation generators: excluded middle, contraction, and
atomic deduction.  Each builds a checkable derivation by structural
recursion, using only the axioms its hypotheses demand."""

from __future__ import annotations

from .derivations import (
    Builder,
    Derivation,
    DerivationError,
    check,
)
from .systems import Scheme, SystemSpec, classify_relation
from .terms import Compound, Constant, Formula, equal_mod_ac, is_atom, negate


class GeneratorError(DerivationError):
    pass


class NotStrong(GeneratorError):
    pass


class NotWeak(GeneratorError):
    pass


class MissingAxiom(GeneratorError):
    pass


class CheckFailed(GeneratorError):
    pass


def _rewrite(builder: Builder, sides, target: Formula, what: str) -> None:
    try:
        builder.rewrite(sides, target)
    except DerivationError as e:
        raise MissingAxiom(f"{what}: {e}") from None


def derive_excluded_middle(spec: SystemSpec, alpha: str, A: Formula) -> Derivation:
    """Derivation from u_alpha to A ~alpha ~A, for strong unitary alpha."""
    kind = classify_relation(spec, alpha)
    if kind != "strong":
        raise NotStrong(f"excluded middle needs a strong relation; {alpha} is {kind}")
    unit = spec.unit_of(alpha)
    if unit is None:
        raise MissingAxiom(f"{alpha} has no unit")
    return _excluded_middle(spec, alpha, Constant(unit), A)


def _excluded_middle(spec: SystemSpec, alpha: str, unit: Formula, f: Formula) -> Derivation:
    """From unit to f ~alpha ~f, by recursion on f."""
    na = spec.dual(alpha)
    target = Compound(na, f, negate(spec, f))
    b = Builder(spec, unit)
    if is_atom(f):
        _rewrite(b, (), target, f"excluded middle base for {f}")
        return b.derivation(target)
    gamma = f.rel
    if gamma != na and not spec.precedes(gamma, na):
        raise MissingAxiom(f"relation {gamma} not below {na}")
    # two recursions merged by one split: weak-topped formulas merge at
    # alpha with the negations first, the others at their own relation
    nl, nr = negate(spec, f.left), negate(spec, f.right)
    if gamma == na:
        merge, bindings = alpha, dict(A=nl, B=f.left, C=nr, D=f.right)
    else:
        merge, bindings = gamma, dict(A=f.left, B=nl, C=f.right, D=nr)
    b0 = _excluded_middle(spec, alpha, unit, f.left)
    b1 = _excluded_middle(spec, alpha, unit, f.right)
    _rewrite(b, (), Compound(merge, unit, unit), f"unit merge at {merge}")
    b.splice(("L",), b0)
    b.splice(("R",), b1)
    b.apply_scheme((), Scheme.SPLIT_DOWN, bindings, merge, na)
    return b.derivation(target)


def derive_contraction(spec: SystemSpec, beta: str, A: Formula) -> Derivation:
    """Derivation from A beta A to A, for weak beta."""
    kind = classify_relation(spec, beta)
    if kind != "weak":
        raise NotWeak(f"contraction needs a weak relation; {beta} is {kind}")
    return contraction(spec, beta, A, {})


def contraction(spec: SystemSpec, beta: str, f: Formula, lemmas: dict) -> Derivation:
    """From f beta f to f, for weak beta.  lemmas is the caller's table: the
    contraction of each (beta, subformula) is built once, kept there and
    spliced by reference wherever it recurs."""
    key = (beta, f)
    done = lemmas.get(key)
    if done is None:
        done = lemmas[key] = _contraction(spec, beta, f, lemmas)
    return done


def _contraction(spec: SystemSpec, beta: str, f: Formula, lemmas: dict) -> Derivation:
    """From f beta f to f, by recursion on f."""
    b = Builder(spec, Compound(beta, f, f))
    if is_atom(f):
        _rewrite(b, (), f, f"idempotence base for {f}")
        return b.derivation(f)
    gamma = f.rel
    # pair up the two copies' arguments, then contract each pair
    if gamma == beta:
        b.acr((), Compound(beta, Compound(beta, f.left, f.left),
                           Compound(beta, f.right, f.right)))
    elif not spec.precedes(gamma, beta):
        raise MissingAxiom(f"relation {gamma} not below {beta}")
    else:
        b.apply_scheme(
            (), Scheme.CONTRACT_DOWN,
            dict(A=f.left, B=f.right, C=f.left, D=f.right), gamma, beta,
        )
    b.splice(("L",), contraction(spec, beta, f.left, lemmas))
    b.splice(("R",), contraction(spec, beta, f.right, lemmas))
    return b.derivation(f)


def atomic_deduction(
    spec: SystemSpec, beta: str, head: Formula, B: Formula, P: Derivation
) -> Derivation:
    """Given P from ~u_beta to head beta B with atomic head, build the
    derivation from ~head to B."""
    if not is_atom(head):
        raise GeneratorError(f"head must be atomic, got {head}")
    unit = spec.unit_of(beta)
    if unit is None:
        raise MissingAxiom(f"{beta} has no unit")
    u = Constant(unit)
    nu = Constant(spec.negate_constant(unit))
    nb = spec.dual(beta)
    failure = check(spec, P)
    if failure is not None:
        raise CheckFailed(str(failure))
    if P.premise != nu or not equal_mod_ac(spec, P.conclusion, Compound(beta, head, B)):
        raise CheckFailed("P must run from the co-unit to head beta B")

    nh = negate(spec, head)
    b = Builder(spec, nh)
    _rewrite(b, (), Compound(beta, nh, u), "unit padding")
    _rewrite(b, (), Compound(nb, Compound(beta, nh, u), nu), "co-unit padding")
    b.splice(("R",), P)
    b.acr(("R",), Compound(beta, head, B))
    b.apply_scheme((), Scheme.SPLIT_DOWN, dict(A=nh, B=u, C=head, D=B), nb, beta)
    _rewrite(b, ("L",), u, "annihilation of the head")
    b.acr((), Compound(beta, Compound(beta, B, u), u))
    _rewrite(b, ("L",), B, "unit removal")
    _rewrite(b, (), B, "unit removal")
    return b.derivation(B)
