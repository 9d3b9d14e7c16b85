"""The concrete system P: conjunction, disjunction and the two self-dual
projections over constants T/F, with boolean semantics, a rule soundness
auditor, truth-table line proofs and the tautology proof synthesiser."""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Mapping, Optional, Sequence

from .derivations import (
    Builder,
    Derivation,
    identity,
    reverse_equational,
)
from .generators import contraction
from .systems import (
    Axiom,
    Metavar,
    RuleDecl,
    Scheme,
    SystemError,
    SystemSpec,
    RelationSymbol,
    instantiate_rule,
    validate_spec,
)
from .terms import (
    Compound,
    Constant,
    Formula,
    Variable,
    is_atom,
    join,
    negate,
    spine,
    subformula_at_sides,
    variables,
)

T = Constant("T")
F = Constant("F")

AND, OR, P0, P1 = "&", "|", "p0", "p1"


class UnboundVariable(SystemError):
    pass


class VariableMismatch(SystemError):
    pass


class NotATautology(SystemError):
    pass


# ---------------------------------------------------------------------------
# Spec construction


def _axioms() -> tuple:
    A = Metavar("A")
    B = Metavar("B")
    U = Metavar("U", sort="constant")
    nU = Metavar("U", negated=True, sort="constant")
    X = Metavar("X", sort="literal")
    nX = Metavar("X", negated=True, sort="literal")
    return (
        Axiom("or_unit", Compound(OR, A, F), A),
        Axiom("p0_select", Compound(P0, A, B), A),
        Axiom("p1_select", Compound(P1, A, B), B),
        Axiom("and_false", Compound(AND, U, F), F),
        Axiom("const_em", Compound(OR, U, nU), T),
        Axiom("var_em", Compound(OR, X, nX), T),
        Axiom("const_idem", Compound(OR, U, U), U),
        Axiom("var_idem", Compound(OR, X, X), X),
    )


_P_RULES = (
    RuleDecl("ai0d", Scheme.SPLIT_DOWN, P0, OR),
    RuleDecl("ai1d", Scheme.SPLIT_DOWN, P1, OR),
    RuleDecl("sd", Scheme.SPLIT_DOWN, AND, OR),
    RuleDecl("md", Scheme.CONTRACT_DOWN, AND, OR),
    RuleDecl("c0d", Scheme.CONTRACT_DOWN, P0, OR),
    RuleDecl("c1d", Scheme.CONTRACT_DOWN, P1, OR),
    RuleDecl("ai0u", Scheme.SPLIT_UP, P0, AND),
    RuleDecl("ai1u", Scheme.SPLIT_UP, P1, AND),
    RuleDecl("su", Scheme.SPLIT_UP, OR, AND),
    RuleDecl("mu", Scheme.CONTRACT_UP, OR, AND),
    RuleDecl("c0u", Scheme.CONTRACT_UP, P0, AND),
    RuleDecl("c1u", Scheme.CONTRACT_UP, P1, AND),
)

@functools.cache
def make_p_spec() -> SystemSpec:
    """The validated system P, built once per process and shared."""
    spec = SystemSpec(
        name="P",
        constants=("T", "F"),
        constant_negation={"T": "F", "F": "T"},
        relations=(
            RelationSymbol(AND, OR, associative=True, commutative=True, unitary="T"),
            RelationSymbol(OR, AND, associative=True, commutative=True, unitary="F"),
            RelationSymbol(P0, P0, associative=True, right_weakening=True),
            RelationSymbol(P1, P1, associative=True, left_weakening=True),
        ),
        order=((AND, P0), (AND, P1), (P0, OR), (P1, OR)),
        axioms=_axioms(),
        rules=_P_RULES,
    )
    issues = validate_spec(spec)
    if issues:
        raise SystemError(f"system P failed validation: {issues}")
    return spec


# ---------------------------------------------------------------------------
# Boolean semantics

# 2x2 tables, rows ordered (F,F), (F,T), (T,F), (T,T): P's relations and
# the eight of R23
TRUTH_TABLES: dict[str, tuple] = {
    "&": (False, False, False, True),
    "|": (False, True, True, True),
    "->": (True, True, False, True),
    "<-": (True, False, True, True),
    "!>": (False, False, True, False),  # A and not B
    "!<": (False, True, False, False),  # not A and B
    "p0": (False, False, True, True),
    "p1": (False, True, False, True),
    "np0": (True, True, False, False),
    "np1": (True, False, True, False),
}


def evaluate(f: Formula, valuation: Mapping[str, bool]) -> bool:
    """f's truth value under valuation; a compound is evaluated left to
    right on a stack of its own, so a deep formula costs no recursion."""
    if isinstance(f, Constant):
        if f.name == "T":
            return True
        if f.name == "F":
            return False
        raise SystemError(f"constant {f.name} has no boolean value")
    if isinstance(f, Variable):
        try:
            value = valuation[f.name]
        except KeyError:
            raise UnboundVariable(f.name) from None
        return (not value) if f.negated else value
    if not isinstance(f, Compound):
        raise SystemError(f"{f} has no boolean value")
    todo, values = [f], []  # formulas to evaluate, and a node's table after its children
    while todo:
        t = todo.pop()
        if type(t) is tuple:  # both children evaluated
            right = values.pop()
            values[-1] = t[2 * values[-1] + right]
        elif isinstance(t, Compound):
            table = TRUTH_TABLES.get(t.rel)
            if table is None:
                raise SystemError(f"relation {t.rel} has no boolean table")
            todo += (table, t.right, t.left)
        else:
            values.append(evaluate(t, valuation))
    return values[0]


def all_valuations(names: Sequence[str]) -> Iterable[dict]:
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def is_tautology(f: Formula) -> bool:
    names = sorted(variables(f))
    return all(evaluate(f, v) for v in all_valuations(names))


AUDIT_BINDINGS = dict(A=Variable("a"), B=Variable("b"), C=Variable("c"), D=Variable("d"))


def audit_instances(instances: Iterable[tuple]) -> list[tuple[str, bool]]:
    """(rule_id, sound) for each (rule_id, premise, conclusion) over the
    variables of AUDIT_BINDINGS: does truth of the premise force truth of
    the conclusion under every assignment?"""
    valuations = list(all_valuations(tuple(v.name for v in AUDIT_BINDINGS.values())))
    return [
        (rid, all((not evaluate(prem, v)) or evaluate(conc, v) for v in valuations))
        for rid, prem, conc in instances
    ]


def audit_soundness(spec: Optional[SystemSpec] = None) -> list[tuple[str, bool]]:
    """The soundness audit of every declared rule of spec (P by default)."""
    spec = spec or make_p_spec()
    rules = (
        instantiate_rule(spec, decl.scheme, AUDIT_BINDINGS, decl.alpha, decl.beta)
        for decl in spec.rules
    )
    return audit_instances((r.rule_id, r.premise, r.conclusion) for r in rules)


# ---------------------------------------------------------------------------
# Line proofs (compactness) and the tautology synthesiser (completeness)
#
# Clause states are grown from T-seeds: the pair axioms produce a literal
# together with its partner, duplication and partner-merging turn the seed
# into any needed false literal while keeping a T element alive, and the
# final seed hosts the one true part of the clause.


def opposite_literal(name: str, valuation: Mapping[str, bool]) -> Variable:
    """The literal over name that is false at the valuation."""
    return Variable(name, negated=bool(valuation[name]))


def _clause(w: Formula, names: Iterable[str], valuation: Mapping[str, bool]) -> Formula:
    """(w | J), J joining the literal over each of names that is false at
    the valuation; bare w when names is empty."""
    opposites = [opposite_literal(n, valuation) for n in names]
    return Compound(OR, w, join(OR, opposites)) if opposites else w


def _selection(w: Compound) -> tuple:
    """The argument a projection keeps and the select axiom that drops the
    other; both select axioms bind A and B to the left and right arguments."""
    return (w.left, "p0_select") if w.rel == P0 else (w.right, "p1_select")


def _atom_seed(spec: SystemSpec, atom: Formula, true: bool) -> Derivation:
    """T -> (atom | T), where true is atom's value."""
    b = Builder(spec, T)
    if atom == T:
        b.apply_eq((), "const_idem", dict(U=T), direction="bwd")
    elif atom == F:
        b.apply_eq((), "or_unit", dict(A=T), direction="bwd")
        b.acr((), Compound(OR, F, T))
    else:
        live = atom if true else negate(spec, atom)
        dead = negate(spec, live)
        b.apply_eq((), "var_em", dict(X=live), direction="bwd")
        # current subtree: (live | dead); duplicate the wanted copy, merge the pair
        b.apply_eq(("L" if true else "R",), "var_idem", dict(X=atom), direction="bwd")
        b.acr((), Compound(OR, atom, Compound(OR, live, dead)))
        b.apply_eq(("R",), "var_em", dict(X=live))
    return b.derivation()


def _seed(e: Formula, valuation: Mapping[str, bool]) -> tuple:
    """e with what inserting it into a clause reads of the valuation: an
    atom's value, read directly, or a compound's values on its variables."""
    if isinstance(e, Variable):
        return e, valuation[e.name] != e.negated
    if isinstance(e, Constant):
        return e, e == T
    return e, tuple([valuation[n] for n in sorted(variables(e))])


_ATOM_SEED, _CLAUSE = object(), object()  # key tags no pos or contraction key equals


def _conjoin(spec: SystemSpec, a: Formula, c: Formula, rest: Formula,
             d_a: Derivation, d_c: Derivation) -> Builder:
    """A builder from T to ((a & c) | (rest | rest)): proofs d_a of
    (a | rest) and d_c of (c | rest) side by side in (T & T), then sd."""
    b = Builder(spec, T)
    b.apply_eq((), "const_idem", dict(U=F), negated=True, direction="bwd")
    b.splice(("L",), d_a)
    b.acr(("L",), Compound(OR, a, rest))
    b.splice(("R",), d_c)
    b.acr(("R",), Compound(OR, c, rest))
    b.apply_scheme((), Scheme.SPLIT_DOWN, dict(A=a, B=rest, C=c, D=rest), AND, OR)
    return b


def _ensure_join(spec: SystemSpec, b: Builder, sides: tuple, w_part: Formula) -> Formula:
    """Make the clause at sides literally (w_part | J); returns J (padding
    with F when the sub-proof was bare)."""
    sub = subformula_at_sides(b.current, sides)
    if sub == w_part:
        b.apply_eq(sides, "or_unit", dict(A=w_part), direction="bwd")
        return F
    return subformula_at_sides(b.current, sides + ("R",))


def _finish_clause(spec: SystemSpec, b: Builder, w: Formula) -> None:
    """Normalise the clause to (w | J): the elements of w itself are kept
    apart as one block while surplus junk (F padding, duplicate false
    literals) is merged away."""
    w_count: dict = {}
    for e in spine(spec, w, OR):
        w_count[e] = w_count.get(e, 0) + 1

    def junk_of(cur: Formula) -> list:
        seen: dict = {}
        out = []
        for e in spine(spec, cur, OR):
            if seen.get(e, 0) < w_count.get(e, 0):
                seen[e] = seen.get(e, 0) + 1
            else:
                out.append(e)
        return out

    while True:
        junk = junk_of(b.current)
        if F in junk:
            rest = list(junk)
            rest.remove(F)
            keep = join(OR, [w] + rest) if rest else w
            b.apply_eq((), "or_unit", dict(A=keep))
            continue
        dup = next((e for e in junk if junk.count(e) > 1), None)
        if dup is None:
            break
        rest = list(junk)
        rest.remove(dup)
        rest.remove(dup)
        pair = Compound(OR, dup, dup)
        b.acr((), Compound(OR, pair, join(OR, [w] + rest)))
        axiom = "const_idem" if isinstance(dup, Constant) else "var_idem"
        key = "U" if isinstance(dup, Constant) else "X"
        b.apply_eq(("L",), axiom, {key: dup})


class _Prover:
    """One proof's synthesis over spec, with a lemma table that dies with
    it.  Each line lemma, keyed by its formula and the valuation on that
    formula's variables, each contraction, keyed by (relation, formula),
    each atom seed T -> (a | T), keyed by a and its value, and each seeded
    clause, keyed by the _seed of each element it inserted, is built once
    and spliced by reference wherever it recurs.  The sorted variables of
    each formula, which key its line lemmas, are read once as well."""

    def __init__(self, spec: SystemSpec):
        self.spec, self.lemmas, self.names = spec, {}, {}

    def _lemma(self, key: tuple, build, *args) -> Derivation:
        """The lemma at key, built as build(*args) where it is new."""
        done = self.lemmas.get(key)
        if done is None:
            done = self.lemmas[key] = build(*args)
        return done

    def clause(self, seeds: tuple, valuation: Mapping[str, bool]) -> Derivation:
        """Proof from T of (T | e_k | ... | e_1), or bare T, from the _seed of each
        e_i; each prefix is built once, in a loop from the longest one built."""
        built = len(seeds)
        while built and (_CLAUSE, seeds[:built]) not in self.lemmas:
            built -= 1
        P = self.lemmas[_CLAUSE, seeds[:built]] if built else identity(T)
        for k in range(built + 1, len(seeds) + 1):
            P = self.lemmas[_CLAUSE, seeds[:k]] = self.chain_insert(seeds[:k], P, valuation)
        return P

    def chain_insert(self, seeds: tuple, P: Derivation,
                     valuation: Mapping[str, bool]) -> Derivation:
        """Given P from T to the clause (T | rest) (or bare T) of seeds but
        the last, a proof of (T | element | rest) for the last element.  It
        may be semantically dead; the clause keeps a live T seed throughout."""
        spec = self.spec
        (element, value), before = seeds[-1], seeds[:-1]
        old_rest = spine(spec, P.conclusion, OR)
        old_rest.remove(T)

        def arranged(new: Formula) -> Formula:
            return Compound(OR, T, join(OR, [new] + old_rest))

        def inserted(*parts: Formula) -> Derivation:
            return self.clause(before + tuple([_seed(e, valuation) for e in parts]), valuation)

        b = Builder(spec, P)
        tpath = () if b.current == T else ("L",)
        if is_atom(element):
            seed = self._lemma((_ATOM_SEED, element, value), _atom_seed, spec, element, value)
            b.splice(tpath, seed)
            b.acr((), arranged(element))
            return b.derivation()
        if element.rel in (P0, P1):
            kept, axiom = _selection(element)
            b2 = Builder(spec, inserted(kept))
            # a disjunction kept is inserted part by part; regroup it as one
            b2.acr((), arranged(kept))
            kpath = ("R",) if not old_rest else ("R", "L")
            b2.apply_eq(kpath, axiom, dict(A=element.left, B=element.right), direction="bwd")
            b2.acr((), arranged(element))
            return b2.derivation()
        if element.rel == OR:
            return inserted(*reversed(spine(spec, element, OR)))
        # conjunction: two supported sub-clauses, one split, one contraction
        base = P.conclusion  # (T | rest) or T
        b3 = _conjoin(
            spec, element.left, element.right, base,
            inserted(element.left), inserted(element.right),
        )
        b3.splice(("R",), contraction(spec, OR, base, self.lemmas))
        b3.acr((), arranged(element))
        return b3.derivation()

    def pos(self, w: Formula, valuation: Mapping[str, bool]) -> Derivation:
        """Proof of (w | J) from T, where w is true at the valuation and J
        joins one false literal per variable of w (sorted); bare w when w is
        closed.  It reads the valuation on w's variables only."""
        names = self.names.get(w)
        if names is None:
            names = self.names[w] = sorted(variables(w))
        key = (w, tuple([valuation[n] for n in names]))
        return self._lemma(key, self._pos, w, names, valuation)

    def _pos(self, w: Formula, names: list, valuation: Mapping[str, bool]) -> Derivation:
        """pos's proof, built afresh; names are w's variables, sorted."""
        spec = self.spec
        target = _clause(w, names, valuation)
        if is_atom(w):
            if isinstance(w, Constant):
                if w != T:
                    raise SystemError("false constant cannot head a line proof")
                return identity(T)
            b = Builder(spec, T)
            b.apply_eq((), "var_em", dict(X=w), direction="bwd")
            return b.derivation(target)
        if w.rel == AND:
            d0 = self.pos(w.left, valuation)
            d1 = self.pos(w.right, valuation)
            b = Builder(spec, T)
            b.apply_eq((), "const_idem", dict(U=F), negated=True, direction="bwd")
            b.splice(("L",), d0)
            b.splice(("R",), d1)
            j0 = _ensure_join(spec, b, ("L",), w.left)
            j1 = _ensure_join(spec, b, ("R",), w.right)
            b.apply_scheme(
                (), Scheme.SPLIT_DOWN, dict(A=w.left, B=j0, C=w.right, D=j1), AND, OR
            )
            _finish_clause(spec, b, w)
            return b.derivation(target)
        if w.rel in (P0, P1):
            kept, axiom = _selection(w)
            dead = []
        else:
            # disjunction: seed dead material first, host the live disjunct last
            elems = spine(spec, w, OR)
            live = next(i for i, e in enumerate(elems) if evaluate(e, valuation))
            kept, axiom = elems[live], None
            dead = elems[:live] + elems[live + 1:]
        # an opposite literal is false: its seed needs no lookup
        seeds = [(opposite_literal(n, valuation), False)
                 for n in sorted(set(names) - variables(kept), reverse=True)]
        b = Builder(spec, self.clause(tuple(seeds + [_seed(e, valuation) for e in dead]),
                                      valuation))
        tpath = () if b.current == T else ("L",)
        sub = self.pos(kept, valuation)
        b.splice(tpath, sub)
        if axiom is not None:
            kpath = tpath if sub.conclusion == kept else tpath + ("L",)
            b.apply_eq(kpath, axiom, dict(A=w.left, B=w.right), direction="bwd")
        _finish_clause(spec, b, w)
        return b.derivation(target)

    def fold_var(self, y: Formula, name: str,
                 p_true: Derivation, p_false: Derivation) -> Derivation:
        """Merge proofs of (y | name) and (y | ~name) into a proof of y."""
        nv = Variable(name, negated=True)
        b = _conjoin(self.spec, Variable(name), nv, y, p_false, p_true)
        b.apply_eq(("L",), "var_em", dict(X=nv), negated=True)
        b.apply_eq((), "or_unit", dict(A=Compound(OR, y, y)))
        b.splice((), contraction(self.spec, OR, y, self.lemmas))
        return b.derivation(y)

    def fold(self, x: Formula, names: tuple, valuation: dict) -> Derivation:
        """Proof from T of the tautology x joined with the literals false at
        the valuation, which binds a prefix of names in order: the line
        proof (pos, as x is true) once it binds every name, else the proofs
        for the next name true and false merged."""
        if len(valuation) == len(names):
            return self.pos(x, valuation)
        name = names[len(valuation)]
        return self.fold_var(
            _clause(x, valuation, valuation), name,
            self.fold(x, names, {**valuation, name: True}),
            self.fold(x, names, {**valuation, name: False}),
        )


def prove_line(A: Formula, valuation: Mapping[str, bool]) -> Derivation:
    """Checkable proof from T of (w | J): w is A signed by its value at the
    valuation (A when true, its negation when false) and J joins the literal
    over each variable that is false at the valuation, in name order."""
    if set(valuation) != variables(A):
        raise VariableMismatch(f"valuation of {sorted(valuation)} differs from vars({A})")
    spec = make_p_spec()
    return _Prover(spec).pos(A if evaluate(A, valuation) else negate(spec, A), valuation)


def _closed_tautology_proof(spec: SystemSpec, x: Formula) -> Derivation:
    """T -> x for variable-free x that evaluates to T: reverse the
    equational evaluation of x."""
    return reverse_equational(spec, _evaluation(spec, x))


def _evaluation(spec: SystemSpec, f: Formula) -> Derivation:
    """Equational derivation from variable-free f to its value T or F."""
    b = Builder(spec, f)
    if isinstance(f, Compound):
        b.splice(("L",), _evaluation(spec, f.left))
        b.splice(("R",), _evaluation(spec, f.right))
        value = T if evaluate(f, {}) else F
        b.rewrite((), value)
    return b.derivation()


def prove_tautology(A: Formula, hypotheses: Sequence[Formula] = ()) -> Derivation:
    """Proof from T of A | ~B1 | ... | ~Bn: one line proof per valuation,
    folded depth-first one variable at a time, each lemma built once."""
    spec = make_p_spec()
    x = A
    if hypotheses:
        x = Compound(OR, A, join(OR, [negate(spec, h) for h in hypotheses]))
    if not is_tautology(x):
        raise NotATautology(f"{x} is falsifiable")
    names = tuple(sorted(variables(x)))
    if not names:
        return _closed_tautology_proof(spec, x)
    return _Prover(spec).fold(x, names, {})
