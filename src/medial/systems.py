"""System descriptors: relation alphabets, orders, axioms and rule schemes.

A system declares its relations (with duals and unit/weakening flags), a
strict partial order among them, a set of equational axioms given as
patterns, and the medial-shape rules it declares (`rule:` lines of a spec
file).  Rule instances are fully instantiated premise/conclusion pairs,
slotted frozen records built through their slot setters, which hash by
rule id, premise and conclusion (equal instances agree on those);
equational instances may use either orientation of an axiom, or of its
negation (the congruence is closed under the involutive negation).  Each
of those four orientations is one `OrientedAxiom`, built once per spec,
which holds the facts every instance of it shares and builds them.  The
checker accepts a step that is the live instance kept under the key of
what it declares; otherwise it rebuilds the step from those declarations
and compares the whole instance, labels included.  Rule instances are
hash-consed while they live:
`ac_instance`, `OrientedAxiom.instance` and `instantiate_rule` first look up
the live instance built from the same `spec.ac_token` and inputs in a weak table.
"""

from __future__ import annotations

import collections
import functools
import itertools
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional

from .terms import (
    Compound,
    Constant,
    Formula,
    Metavar,
    TermError,
    Variable,
    _InternRef,
    _forget,
    _Record,
    equal_mod_ac,
    join,
    negate,
    parse_formula,
    print_formula,
    size,
    spine,
    subterms,
)


class SystemError(TermError):
    pass


class SideConditionViolated(SystemError):
    pass


class UnknownAxiom(SystemError):
    pass


class UnknownSymbolError(SystemError):
    pass


class SortViolation(SystemError):
    pass


class MatchBudgetExhausted(SystemError):
    """An axiom search ran out of its matching budget before finding an
    instance; the answer is unknown, not "no instance"."""


class Scheme(Enum):
    SPLIT_DOWN = "split_down"
    SPLIT_UP = "split_up"
    CONTRACT_DOWN = "contract_down"
    CONTRACT_UP = "contract_up"
    EQ = "eq_down"  # equational; RuleInstance.negated marks the negated axiom
    AC = "ac"  # bookkeeping rearrangement within the silent AC theory

    @property
    def is_medial(self) -> bool:
        return self in (
            Scheme.SPLIT_DOWN,
            Scheme.SPLIT_UP,
            Scheme.CONTRACT_DOWN,
            Scheme.CONTRACT_UP,
        )


class RelationSymbol(_Record):
    __slots__ = _fields = ("name", "dual", "associative", "commutative", "unitary",
                           "right_weakening", "left_weakening")

    name: str
    dual: str
    associative: bool
    commutative: bool
    unitary: Optional[str]  # unit constant name
    right_weakening: bool
    left_weakening: bool

    def __init__(self, name: str, dual: str, associative: bool = False,
                 commutative: bool = False, unitary: Optional[str] = None,
                 right_weakening: bool = False, left_weakening: bool = False) -> None:
        super().__init__(name, dual, associative, commutative, unitary, right_weakening,
                         left_weakening)


class Axiom(_Record):
    """One equational axiom lhs = rhs, its sides distinct modulo AC (which
    relation flags declare); patterns may contain metavariables whose sort
    restricts matching (formula / constant / literal)."""

    __slots__ = _fields = ("axiom_id", "lhs", "rhs")

    axiom_id: str
    lhs: Formula
    rhs: Formula

    def __init__(self, axiom_id: str, lhs: Formula, rhs: Formula) -> None:
        super().__init__(axiom_id, lhs, rhs)

    def metavars(self) -> set[str]:
        return {t.name for t in subterms(self.lhs) if isinstance(t, Metavar)} | {
            t.name for t in subterms(self.rhs) if isinstance(t, Metavar)
        }


class RuleDecl(_Record):
    __slots__ = _fields = ("rule_id", "scheme", "alpha", "beta")

    rule_id: str
    scheme: Scheme
    alpha: str
    beta: str

    def __init__(self, rule_id: str, scheme: Scheme, alpha: str, beta: str) -> None:
        super().__init__(rule_id, scheme, alpha, beta)


class RuleInstance(_Record):
    _fields = ("scheme", "rule_id", "premise", "conclusion", "bindings", "relations",
               "axiom_id", "negated", "direction")
    # cost_memo is (spec.ac_token, length cost), set by derivations.steps_length
    # the first time it costs the instance for that spec; not part of the instance
    __slots__ = _fields + ("cost_memo", "__weakref__")

    scheme: Scheme
    rule_id: str
    premise: Formula
    conclusion: Formula
    bindings: tuple  # tuple[tuple[str, Formula], ...], sorted by name
    relations: Optional[tuple]  # (alpha, beta) for medial schemes
    axiom_id: Optional[str]
    negated: bool  # equational: instance of the negated axiom
    direction: str  # equational only: fwd (lhs->rhs) or bwd
    cost_memo: Optional[tuple]

    def __init__(self, scheme: Scheme, rule_id: str, premise: Formula, conclusion: Formula,
                 bindings: tuple, relations: Optional[tuple] = None, axiom_id: Optional[str] = None,
                 negated: bool = False, direction: str = "fwd") -> None:
        _set_scheme(self, scheme)
        _set_rule_id(self, rule_id)
        _set_premise(self, premise)
        _set_conclusion(self, conclusion)
        _set_bindings(self, bindings)
        _set_relations(self, relations)
        _set_axiom_id(self, axiom_id)
        _set_negated(self, negated)
        _set_direction(self, direction)
        _set_cost_memo(self, None)

    def __hash__(self) -> int:  # equal instances agree on these
        return hash((self.rule_id, self.premise, self.conclusion))

    def binding(self, name: str) -> Formula:
        for k, v in self.bindings:
            if k == name:
                return v
        raise KeyError(name)


# slot setters, in field order: faster than a call through _Record.__init__
(_set_scheme, _set_rule_id, _set_premise, _set_conclusion, _set_bindings, _set_relations,
 _set_axiom_id, _set_negated, _set_direction) = RuleInstance._setters
_set_cost_memo = RuleInstance.cost_memo.__set__

# (spec.ac_token, constructor inputs) -> weak reference to the live rule
# instance built from them; an acr key has 3 items, an equational 5, a
# medial 8.  An entry goes when its instance is freed.
_instances: dict = {}
_forget_instance = functools.partial(_forget, table=_instances)


def _live(key: tuple) -> Optional[RuleInstance]:
    ref = _instances.get(key)
    return ref and ref()


def _keep(key: tuple, inst: RuleInstance) -> RuleInstance:
    _instances[key] = ref = _InternRef(inst, _forget_instance)
    ref.key = key
    return inst


def _eq_key(spec: SystemSpec, axiom_id: str, negated: bool, direction: str, pairs: tuple) -> tuple:
    """The table key of an equational instance, its bindings as sorted pairs."""
    return (spec.ac_token, axiom_id, negated, direction, pairs)


def _medial_key(spec: SystemSpec, scheme: Scheme, alpha: str, beta: str, get) -> tuple:
    """The table key of a medial instance; get reads a binding by name."""
    return (spec.ac_token, scheme, alpha, beta, get("A"), get("B"), get("C"), get("D"))


class OrientedAxiom(NamedTuple):
    """One orientation of an axiom or of its negation, premise -> conclusion,
    with the facts its instances share."""

    axiom: Axiom
    negated: bool
    direction: str  # fwd (lhs->rhs) or bwd
    premise: Formula
    conclusion: Formula
    rule_id: str  # eq:<axiom_id>, with :n for the negated axiom
    metavars: frozenset  # the names an instance binds
    sorts: tuple  # (name, sort) of the metavariables a binding must fit

    def instance(self, spec: SystemSpec, bindings: Mapping[str, Formula]) -> RuleInstance:
        """The rule instance under bindings, which must bind exactly the
        metavariables; premise/conclusion are the exact pattern
        instantiations."""
        pairs = tuple(sorted(bindings.items()))
        key = _eq_key(spec, self.axiom.axiom_id, self.negated, self.direction, pairs)
        if (inst := _live(key)) is not None:
            return inst
        if bindings.keys() != self.metavars:
            raise SystemError(
                f"{self.rule_id} binds {', '.join(sorted(self.metavars))}, "
                f"not {', '.join(sorted(bindings))}"
            )
        for name, sort in self.sorts:
            if not _sort_ok(spec, sort, bindings[name]):
                raise SortViolation(f"binding for {name} violates sort {sort}")
        return _keep(key, RuleInstance(
            scheme=Scheme.EQ,
            rule_id=self.rule_id,
            premise=instantiate(spec, self.premise, bindings),
            conclusion=instantiate(spec, self.conclusion, bindings),
            bindings=pairs,
            axiom_id=self.axiom.axiom_id,
            negated=self.negated,
            direction=self.direction,
        ))


class SystemSpec:
    """System descriptor: declarations fixed at construction, caches that
    fill as it is used (not thread-safe).  Hash/eq by identity.

    The caches: `eq_cache` (eq_step_for's answers, for the spec's life),
    `atom_lemmas` (system_p._Prover's atom seeds and one-atom clauses, at
    most four per atom), and the oriented axiom table, the weak units and
    the unit pads, each built on first use.  AC-canonical forms are not
    kept here: each is memoised on its interned term, keyed by `ac_token`,
    and goes when that term goes."""

    def __init__(
        self,
        name: str,
        constants: Iterable[str],
        constant_negation: Mapping[str, str],
        relations: Iterable[RelationSymbol],
        order: Iterable[tuple] = (),
        axioms: Iterable[Axiom] = (),
        rules: Iterable[RuleDecl] = (),
    ):
        self.name = name
        self.constants = frozenset(constants)
        self.constant_negation = dict(constant_negation)
        self.relations = {r.name: r for r in relations}
        self.order = frozenset(tuple(p) for p in order)
        self.axioms = tuple(axioms)
        self.axioms_by_id = {a.axiom_id: a for a in self.axioms}
        self.rules = tuple(rules)
        self.rules_by_id = {r.rule_id: r for r in self.rules}
        self._rule_index = {(r.scheme, r.alpha, r.beta): r for r in self.rules}
        self.order_closure = self._transitive_closure(self.order)
        # keys the AC-canonical forms memoised on terms (terms.ac_canonical)
        self.ac_token = object()
        self.eq_cache: dict = {}
        self.atom_lemmas: dict = {}

    @staticmethod
    def _transitive_closure(pairs: frozenset) -> frozenset:
        closure = set(pairs)
        changed = True
        while changed:
            changed = False
            for (a, b), (c, d) in itertools.product(tuple(closure), repeat=2):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
        return frozenset(closure)

    @cached_property
    def oriented_axioms(self) -> dict:
        """(axiom_id, negated, direction) -> OrientedAxiom for every axiom,
        negated and not, in both directions; built on first use."""
        table = {}
        for ax in self.axioms:
            names = frozenset(ax.metavars())
            sorts = tuple(sorted({
                (t.name, t.sort) for side in (ax.lhs, ax.rhs) for t in subterms(side)
                if isinstance(t, Metavar) and t.sort != "formula"
            }))
            for negated in (False, True):
                pl, pr = ax.lhs, ax.rhs
                if negated:
                    pl, pr = negate(self, pl), negate(self, pr)
                rule_id = f"eq:{ax.axiom_id}" + (":n" if negated else "")
                for direction, (pp, pc) in (("fwd", (pl, pr)), ("bwd", (pr, pl))):
                    key = (ax.axiom_id, negated, direction)
                    table[key] = OrientedAxiom(
                        ax, negated, direction, pp, pc, rule_id, names, sorts
                    )
        return table

    @cached_property
    def weak_units(self) -> tuple:
        """(beta, unit, co-unit) for every weak relation carrying a unit."""
        return tuple(
            (name, rel.unitary, self.negate_constant(rel.unitary))
            for name, rel in self.relations.items()
            if classify_relation(self, name) == "weak" and rel.unitary is not None
        )

    @cached_property
    def pads(self) -> dict:
        """(rel, unit) -> the oriented axiom of the pad X -> (X rel unit) for
        each relation with a unit: its unit axiom run backwards, named only
        where eq_step_for would answer every such pad with it
        (_searched_first).  The unit axiom is probed by the uncached search,
        which never reads this table; a probe that runs out of budget names
        no pad."""
        pads, probe = {}, Variable("w")
        for rel, r in self.relations.items():
            if r.unitary is None:
                continue
            u = Constant(r.unitary)
            try:
                unit_step = _eq_step_for(self, Compound(rel, probe, u), probe)
            except MatchBudgetExhausted:
                continue
            if unit_step is None:
                continue
            back = "bwd" if unit_step.direction == "fwd" else "fwd"
            o = self.oriented_axioms[unit_step.axiom_id, unit_step.negated, back]
            if _searched_first(self, o, rel, u):
                pads[rel, u] = o
        return pads

    # -- lookups used across modules -------------------------------------
    def negate_constant(self, name: str) -> str:
        try:
            return self.constant_negation[name]
        except KeyError:
            raise UnknownSymbolError(name) from None

    def relation(self, name: str) -> RelationSymbol:
        try:
            return self.relations[name]
        except KeyError:
            raise UnknownSymbolError(name) from None

    def dual(self, rel: str) -> str:
        return self.relation(rel).dual

    def is_associative(self, rel: str) -> bool:
        r = self.relations.get(rel)
        return bool(r and r.associative)

    def is_commutative(self, rel: str) -> bool:
        r = self.relations.get(rel)
        return bool(r and r.commutative)

    def unit_of(self, rel: str) -> Optional[str]:
        return self.relation(rel).unitary

    def precedes(self, a: str, b: str) -> bool:
        """Strict order a < b in the transitive closure."""
        return (a, b) in self.order_closure

    def rule_for(self, scheme: Scheme, alpha: str, beta: str) -> Optional[RuleDecl]:
        return self._rule_index.get((scheme, alpha, beta))


# ---------------------------------------------------------------------------
# Pattern matching and instantiation


def _sort_ok(spec: SystemSpec, sort: str, f: Formula) -> bool:
    if sort == "formula":
        return True
    if sort == "constant":
        return isinstance(f, Constant)
    if sort == "literal":
        return isinstance(f, Variable)
    raise SystemError(f"unknown metavar sort {sort!r}")


def instantiate(spec: SystemSpec, pattern: Formula, bindings: Mapping[str, Formula]) -> Formula:
    if isinstance(pattern, Metavar):
        try:
            bound = bindings[pattern.name]
        except KeyError:
            raise SystemError(f"unbound metavariable {pattern.name}") from None
        return negate(spec, bound) if pattern.negated else bound
    if isinstance(pattern, Compound):
        return Compound(
            pattern.rel,
            instantiate(spec, pattern.left, bindings),
            instantiate(spec, pattern.right, bindings),
        )
    return pattern


_MATCH_CAP = 64  # bounded AC fan-out per spine, matching cost guard


def iter_matches(
    spec: SystemSpec,
    pattern: Formula,
    term: Formula,
    bindings: Optional[dict] = None,
    budget: Optional[list] = None,
):
    """All matches of term against pattern modulo the declared AC theory,
    lazily.  `budget` is a one-element list the spine regroupings draw on
    (a fresh _MATCH_CAP by default); the search was cut short when it ends
    at or below zero."""
    if budget is None:
        budget = [_MATCH_CAP]
    yield from _match(spec, pattern, term, dict(bindings or {}), budget)


def _match(spec, pattern, term, bindings, budget):
    if budget[0] <= 0:
        return
    if isinstance(pattern, Metavar):
        want = negate(spec, term) if pattern.negated else term
        if not _sort_ok(spec, pattern.sort, want):
            return
        seen = bindings.get(pattern.name)
        if seen is not None:
            if equal_mod_ac(spec, seen, want):
                yield bindings
            return
        new = dict(bindings)
        new[pattern.name] = want
        yield new
        return
    if isinstance(pattern, (Constant, Variable)):
        if pattern == term:
            yield bindings
        return
    if not isinstance(term, Compound) or term.rel != pattern.rel:
        return
    rel = pattern.rel
    if spec.is_associative(rel):
        pelems = spine(spec, pattern, rel)
        telems = spine(spec, term, rel)
        yield from _match_spine(spec, rel, pelems, telems, bindings, budget)
        return
    options = [(term.left, term.right)]
    if spec.is_commutative(rel):
        options.append((term.right, term.left))
    for lt, rt in options:
        for b1 in _match(spec, pattern.left, lt, bindings, budget):
            yield from _match(spec, pattern.right, rt, b1, budget)


def _match_spine(spec, rel, pelems, telems, bindings, budget):
    if len(pelems) == 1:
        pat = pelems[0]
        if isinstance(pat, Metavar):
            yield from _match(spec, pat, join(rel, telems), bindings, budget)
        elif len(telems) == 1:
            yield from _match(spec, pat, telems[0], bindings, budget)
        return
    if not telems:
        return
    commutative = spec.is_commutative(rel)
    if commutative:
        # commit rigid pattern elements first; metavars absorb the rest
        pelems = sorted(
            pelems,
            key=lambda q: isinstance(q, Metavar) and q.sort == "formula",
        )
    pat, rest = pelems[0], pelems[1:]
    # a non-metavar head (or a sorted metavar) consumes exactly one element
    atomic_head = not isinstance(pat, Metavar) or pat.sort != "formula"
    if atomic_head:
        picks = range(len(telems)) if commutative else [0]
        for i in picks:
            budget[0] -= 1
            if budget[0] <= 0:
                return
            for b1 in _match(spec, pat, telems[i], bindings, budget):
                yield from _match_spine(
                    spec, rel, rest, telems[:i] + telems[i + 1 :], b1, budget
                )
        return
    if commutative:
        n = len(telems)
        indices = list(range(n))
        for r in range(1, n - len(rest) + 1):
            for combo in itertools.combinations(indices, r):
                budget[0] -= 1
                if budget[0] <= 0:
                    return
                taken = [telems[i] for i in combo]
                left = [telems[i] for i in indices if i not in combo]
                for b1 in _match(spec, pat, join(rel, taken), bindings, budget):
                    yield from _match_spine(spec, rel, rest, left, b1, budget)
    else:
        for cut in range(1, len(telems) - len(rest) + 1):
            budget[0] -= 1
            if budget[0] <= 0:
                return
            for b1 in _match(spec, pat, join(rel, telems[:cut]), bindings, budget):
                yield from _match_spine(spec, rel, rest, telems[cut:], b1, budget)


# ---------------------------------------------------------------------------
# Rule instantiation


def _scheme_shapes(spec: SystemSpec, scheme: Scheme, alpha: str, beta: str, A, B, C, D):
    """(premise, conclusion) of a medial scheme; an up-scheme is the down
    scheme of its kind read backwards."""
    na = spec.dual(alpha)
    if scheme in (Scheme.SPLIT_DOWN, Scheme.SPLIT_UP):
        down = (
            Compound(alpha, Compound(beta, A, B), Compound(beta, C, D)),
            Compound(beta, Compound(alpha, A, C), Compound(na, B, D)),
        )
    elif scheme in (Scheme.CONTRACT_DOWN, Scheme.CONTRACT_UP):
        down = (
            Compound(beta, Compound(alpha, A, B), Compound(alpha, C, D)),
            Compound(alpha, Compound(beta, A, C), Compound(beta, B, D)),
        )
    else:
        raise SystemError(f"not a medial scheme: {scheme}")
    if scheme in (Scheme.SPLIT_UP, Scheme.CONTRACT_UP):
        return down[::-1]
    return down


def _side_condition_ok(spec: SystemSpec, scheme: Scheme, alpha: str, beta: str) -> bool:
    if scheme in (Scheme.SPLIT_DOWN, Scheme.CONTRACT_DOWN):
        return spec.precedes(alpha, beta)
    return spec.precedes(beta, alpha)


def instantiate_rule(
    spec: SystemSpec,
    scheme: Scheme,
    bindings: Mapping[str, Formula],
    alpha: str,
    beta: str,
) -> RuleInstance:
    """Build the fully instantiated medial rule for one scheme, labelled by
    the one declared rule of that shape."""
    key = _medial_key(spec, scheme, alpha, beta, bindings.get)
    if (inst := _live(key)) is not None:
        return inst
    if not scheme.is_medial:
        raise SystemError(f"{scheme.value} is not a medial scheme")
    if not _side_condition_ok(spec, scheme, alpha, beta):
        raise SideConditionViolated(f"{scheme.value} needs order between {alpha},{beta}")
    decl = spec.rule_for(scheme, alpha, beta)
    if decl is None:
        raise SideConditionViolated(
            f"system {spec.name} declares no {scheme.value} rule at ({alpha},{beta})"
        )
    A, B, C, D = (bindings[k] for k in "ABCD")
    prem, conc = _scheme_shapes(spec, scheme, alpha, beta, A, B, C, D)
    return _keep(key, RuleInstance(
        scheme=scheme,
        rule_id=decl.rule_id,
        premise=prem,
        conclusion=conc,
        bindings=(("A", A), ("B", B), ("C", C), ("D", D)),
        relations=(alpha, beta),
    ))


def eq_instance(
    spec: SystemSpec,
    axiom_id: str,
    bindings: Mapping[str, Formula],
    negated: bool = False,
    direction: str = "fwd",
) -> RuleInstance:
    """Equational rule instance: one oriented application of an axiom (or of
    its negation), built by its entry in spec.oriented_axioms."""
    oriented = spec.oriented_axioms.get((axiom_id, negated, direction))
    if oriented is None:
        if axiom_id not in spec.axioms_by_id:
            raise UnknownAxiom(axiom_id)
        raise SystemError(f"bad orientation negated={negated!r} direction={direction!r}")
    return oriented.instance(spec, bindings)


def ac_instance(spec: SystemSpec, premise: Formula, conclusion: Formula) -> RuleInstance:
    key = (spec.ac_token, premise, conclusion)
    if (inst := _live(key)) is not None:
        return inst
    if not equal_mod_ac(spec, premise, conclusion):
        raise SystemError("ac rearrangement between AC-distinct formulas")
    return _keep(key, RuleInstance(
        scheme=Scheme.AC,
        rule_id="acr",
        premise=premise,
        conclusion=conclusion,
        bindings=(("A", premise), ("B", conclusion)),
    ))


def eq_step_for(
    spec: SystemSpec, lhs: Formula, rhs: Formula
) -> Optional[RuleInstance]:
    """A one-step proof of lhs -> rhs, or None when there is none.

    AC-equal formulas get an `acr` rearrangement.  Otherwise the declared
    axioms (and their negations, both orientations) are searched in the
    order of spec.oriented_axioms; a pad X -> (X' rel u), with X' AC-equal
    to X, is built from spec.pads where that names the orientation the
    search would find.  Premise/conclusion of an axiom instance are
    pattern-exact; callers bridge AC differences themselves.  Raises
    MatchBudgetExhausted when _MATCH_CAP cut the search short and nothing
    was found; that outcome is not cached."""
    if isinstance(rhs, Compound):
        o = spec.pads.get((rhs.rel, rhs.right))
        if o is not None and equal_mod_ac(spec, rhs.left, lhs):
            m = o.premise
            return o.instance(spec, {m.name: negate(spec, lhs) if m.negated else lhs})
    key = (lhs, rhs)
    try:
        return spec.eq_cache[key]
    except KeyError:
        pass
    inst = _eq_step_for(spec, lhs, rhs)
    spec.eq_cache[key] = inst
    return inst


def _root_clash(pattern: Formula, term: Formula) -> bool:
    """The roots alone rule the match out (the first test _match makes)."""
    return isinstance(pattern, Compound) and not (
        isinstance(term, Compound) and term.rel == pattern.rel
    )


def _eq_step_for(
    spec: SystemSpec, lhs: Formula, rhs: Formula
) -> Optional[RuleInstance]:
    if equal_mod_ac(spec, lhs, rhs):
        return ac_instance(spec, lhs, rhs)
    cut_short = False
    for oriented in spec.oriented_axioms.values():
        pp, pc = oriented.premise, oriented.conclusion
        if _root_clash(pp, lhs) or _root_clash(pc, rhs):
            continue
        budget = [_MATCH_CAP]
        for b in iter_matches(spec, pp, lhs, None, budget):
            budget_c = [_MATCH_CAP]
            b2 = next(iter_matches(spec, pc, rhs, b, budget_c), None)
            cut_short = cut_short or budget_c[0] <= 0
            if b2 is None or b2.keys() != oriented.metavars:
                continue
            inst = oriented.instance(spec, b2)
            if equal_mod_ac(spec, inst.premise, lhs) and equal_mod_ac(
                spec, inst.conclusion, rhs
            ):
                return inst
        cut_short = cut_short or budget[0] <= 0
    if cut_short:
        raise MatchBudgetExhausted(
            f"matching budget ran out looking for {print_formula(lhs)} -> "
            f"{print_formula(rhs)}"
        )
    return None


def _searched_first(spec: SystemSpec, o: OrientedAxiom, rel: str, c: Formula) -> bool:
    """Does _eq_step_for answer every pad X -> (X rel c) with o?  It does
    when o's premise is a bare formula metavariable, which matches every X,
    and no orientation searched before o can relate X to (X rel c): its
    conclusion has another root (AC keeps the root), or it keeps each
    metavariable's count, so its instances grow by its patterns' size
    difference, not 2."""
    m, searched = o.premise, tuple(spec.oriented_axioms.values())
    if not (isinstance(m, Metavar) and m.sort == "formula"
            and o.conclusion in (Compound(rel, m, c), Compound(rel, c, m))):
        return False

    def counts(p):
        return collections.Counter(t.name for t in subterms(p) if isinstance(t, Metavar))

    return all(
        isinstance(e.conclusion, Compound) and e.conclusion.rel != rel
        or counts(e.premise) == counts(e.conclusion)
        and size(e.conclusion) - size(e.premise) != 2
        for e in searched[: searched.index(o)]
    )


def undeclared_symbol(spec: SystemSpec, f: Formula) -> Optional[str]:
    """None when f is a formula over spec's alphabet; else a reason naming
    the metavariable or undeclared constant or relation it holds."""
    if type(f) is Variable:
        return None
    for t in subterms(f):
        if isinstance(t, Metavar):
            return f"metavariable {t.name}"
        if isinstance(t, Constant) and t.name not in spec.constants:
            return f"undeclared constant {t.name}"
        if isinstance(t, Compound) and t.rel not in spec.relations:
            return f"undeclared relation {t.rel}"
    return None


def check_rule_instance(spec: SystemSpec, rule: RuleInstance) -> Optional[str]:
    """None when the instance is valid for spec, else a reason string.

    A medial or equational step is accepted when it is the live instance its
    constructor keeps under the key of what the step declares (scheme,
    relations or axiom orientation, bindings); otherwise it is rebuilt by
    that constructor and must equal the rebuilt instance, labels included.
    Either way it is judged from its declarations alone.  An acr step
    needs its label, AC-equal formulas (or a live acr instance between them),
    its formulas as its bindings A and B, and no medial or equational fields."""
    if rule.scheme is Scheme.AC:
        if rule.rule_id != "acr":
            return f"ac step labelled {rule.rule_id}"
        if _live((spec.ac_token, rule.premise, rule.conclusion)) is None and not equal_mod_ac(
                spec, rule.premise, rule.conclusion):
            return "ac step between AC-distinct formulas"
        if rule.bindings != (("A", rule.premise), ("B", rule.conclusion)):
            return "ac step whose bindings are not its premise A and conclusion B"
        if (rule.relations, rule.axiom_id, rule.negated, rule.direction) != (
            None, None, False, "fwd"
        ):
            return "ac step with medial or equational fields"
        return None
    bindings = dict(rule.bindings)
    try:
        if rule.scheme.is_medial:
            if rule.relations is None:
                return "medial instance lacks relations"
            if _live(_medial_key(spec, rule.scheme, *rule.relations, bindings.get)) is rule:
                return None
            rebuilt = instantiate_rule(spec, rule.scheme, bindings, *rule.relations)
        else:
            # equational: the only rules whose bindings can bring in new
            # symbols, since medial conclusions reuse the premise's material
            # and acr only relates AC-equal formulas
            for name, value in rule.bindings:
                reason = undeclared_symbol(spec, value)
                if reason is not None:
                    return f"{reason} in binding {name}"
            if _live(_eq_key(spec, rule.axiom_id, rule.negated, rule.direction,
                             rule.bindings)) is rule:
                return None
            rebuilt = eq_instance(
                spec, rule.axiom_id, bindings, rule.negated, rule.direction
            )
    except (SystemError, KeyError) as e:
        return f"bad instance of {rule.rule_id}: {e}"
    if rebuilt is not rule and rebuilt != rule:
        return f"step labelled {rule.rule_id} differs from the {rebuilt.rule_id} it declares"
    return None


# ---------------------------------------------------------------------------
# Validation


def classify_relation(spec: SystemSpec, rel: str) -> str:
    """strong (order-minimal) / weak (order-maximal) / intermediate."""
    if rel not in spec.relations:
        raise UnknownSymbolError(rel)
    minimal = not any(b == rel for (_, b) in spec.order_closure)
    maximal = not any(a == rel for (a, _) in spec.order_closure)
    if minimal and not maximal:
        return "strong"
    if maximal and not minimal:
        return "weak"
    if minimal and maximal:
        return "strong"  # isolated symbols satisfy both defining clauses
    return "intermediate"


def validate_spec(spec: SystemSpec) -> list[str]:
    """Structured violations; empty list means the spec is well formed."""
    issues: list[str] = []
    for a, b in spec.order:
        if a not in spec.relations or b not in spec.relations:
            issues.append(f"order mentions undeclared relation: {a} < {b}")
    for a, b in spec.order_closure:
        if a == b:
            issues.append(f"order not irreflexive at {a}")
    for c, nc in spec.constant_negation.items():
        if c not in spec.constants or nc not in spec.constants:
            issues.append(f"negation entry outside constant set: {c} -> {nc}")
        elif spec.constant_negation.get(nc) != c:
            issues.append(f"constant negation not involutive at {c}")
    for c in spec.constants:
        if c not in spec.constant_negation:
            issues.append(f"constant lacks negation entry: {c}")
    # the unit and weakening probes below negate every axiom
    unusable = []
    for ax in spec.axioms:
        try:
            negate(spec, ax.lhs), negate(spec, ax.rhs)
        except UnknownSymbolError as e:
            unusable.append(f"axiom {ax.axiom_id} cannot be negated: no negation declared for {e}")
    if unusable:
        return issues + unusable
    for r in spec.relations.values():
        flags = [r.unitary is not None, r.right_weakening, r.left_weakening]
        if sum(flags) > 1:
            issues.append(f"unitary/right/left weakening flags not exclusive on {r.name}")
        if r.dual not in spec.relations:
            issues.append(f"dual of {r.name} undeclared: {r.dual}")
        elif spec.relations[r.dual].dual != r.name:
            issues.append(f"dual map not involutive at {r.name}")
        else:
            d = spec.relations[r.dual]
            if (r.associative, r.commutative) != (d.associative, d.commutative):
                issues.append(f"negation breaks AC declarations between {r.name}/{d.name}")
        if r.unitary is not None:
            if r.unitary not in spec.constants:
                issues.append(f"unit of {r.name} undeclared: {r.unitary}")
            elif unit_axiom(spec, r.name) is None:
                issues.append(f"unitary flag on {r.name} has no unit axiom instance")
        if r.right_weakening and _weakening_axiom(spec, r.name, "right") is None:
            issues.append(f"right_weakening flag on {r.name} has no axiom")
        if r.left_weakening and _weakening_axiom(spec, r.name, "left") is None:
            issues.append(f"left_weakening flag on {r.name} has no axiom")
    # an id names one axiom or rule: check rebuilds a step from it
    for what, ids in (("axiom", [a.axiom_id for a in spec.axioms]),
                      ("rule", [r.rule_id for r in spec.rules])):
        for i in sorted({i for i in ids if ids.count(i) > 1}):
            issues.append(f"{what} id {i} declared {ids.count(i)} times")
    # associativity and commutativity are flags, not axioms
    for ax in spec.axioms:
        if ax.lhs is ax.rhs:
            issues.append(f"axiom {ax.axiom_id} has one formula on both sides")
        elif equal_mod_ac(spec, ax.lhs, ax.rhs):
            rel, flag = _ac_flag(spec, ax.lhs, ax.rhs)
            issues.append(f"axiom {ax.axiom_id} is AC-silent: {rel} is declared {flag}")
    # check rebuilds a medial step under the one rule its shape names
    probe = dict.fromkeys("ABCD", Variable("w"))
    for r in spec.rules:
        try:
            instantiate_rule(spec, r.scheme, probe, r.alpha, r.beta)
        except SystemError as e:
            issues.append(f"rule {r.rule_id} cannot be instantiated: {e}")
        other = spec.rule_for(r.scheme, r.alpha, r.beta)
        if other is not r:
            issues.append(f"rule {r.rule_id} shares its shape with {other.rule_id}")
    # order-consistency of negation where duals are comparable at all
    for r in spec.relations.values():
        if r.dual not in spec.relations:
            continue  # reported above
        cls = classify_relation(spec, r.name)
        dual_cls = classify_relation(spec, r.dual)
        comparable = any(r.dual in pair for pair in spec.order_closure)
        if comparable and cls == "strong" and dual_cls == "strong" and r.dual != r.name:
            issues.append(f"negation is not order-consistent at {r.name}")
    return issues


def unit_axiom(spec: SystemSpec, rel: str) -> Optional[RuleInstance]:
    """The step (w rel u) -> w that eq_step_for finds for rel's unit u,
    possibly by a negated axiom; None when there is none."""
    probe = Variable("w")
    return eq_step_for(spec, Compound(rel, probe, Constant(spec.unit_of(rel))), probe)


def _ac_flag(spec: SystemSpec, l: Formula, r: Formula) -> tuple:
    """(relation, flag) equating the distinct AC-equal patterns l and r where
    their operands first differ modulo AC: comm when a swap there equates
    them, else assoc, with comm too if the operands are also reordered."""
    while equal_mod_ac(spec, l.left, r.left) and equal_mod_ac(spec, l.right, r.right):
        l, r = (l.right, r.right) if l.left is r.left else (l.left, r.left)
    if equal_mod_ac(spec, l.left, r.right) and equal_mod_ac(spec, l.right, r.left):
        return l.rel, "comm"
    ls, rs = spine(spec, l, l.rel), spine(spec, r, r.rel)
    ordered = len(ls) == len(rs) and all(equal_mod_ac(spec, a, b) for a, b in zip(ls, rs))
    return l.rel, "assoc" if ordered else "assoc and comm"


def _weakening_axiom(spec: SystemSpec, rel: str, side: str) -> Optional[Axiom]:
    for o in spec.oriented_axioms.values():
        lhs, rhs = o.premise, o.conclusion
        if o.direction != "fwd" or not isinstance(lhs, Compound) or lhs.rel != rel:
            continue
        if side == "right" and isinstance(lhs.left, Metavar) and lhs.left.sort == "formula":
            kept = lhs.left
            junk = lhs.right
        elif side == "left" and isinstance(lhs.right, Metavar) and lhs.right.sort == "formula":
            kept = lhs.right
            junk = lhs.left
        else:
            continue
        if not (isinstance(junk, Metavar) and junk.sort == "formula"):
            continue
        if isinstance(rhs, Metavar) and rhs.name == kept.name and rhs.negated == kept.negated:
            return o.axiom
    return None


# ---------------------------------------------------------------------------
# Spec file format (line oriented).  Metavariable sorts follow the naming
# convention A..D formula, U..W constant, X..Z literal.

_SORT_BY_NAME = {**{n: "formula" for n in "ABCD"},
                 **{n: "constant" for n in "UVW"},
                 **{n: "literal" for n in "XYZ"}}


def _assign_sorts(pattern: Formula) -> Formula:
    if isinstance(pattern, Metavar):
        sort = _SORT_BY_NAME.get(pattern.name)
        if sort is None:
            raise SystemError(f"metavariable {pattern.name} has no sort convention")
        return Metavar(pattern.name, pattern.negated, sort)
    if isinstance(pattern, Compound):
        return Compound(
            pattern.rel, _assign_sorts(pattern.left), _assign_sorts(pattern.right)
        )
    return pattern


# descriptor flag of a relation line -> the RelationSymbol field it sets;
# dual= and unit= carry a value and are read apart
_FLAGS = {
    "assoc": "associative",
    "comm": "commutative",
    "rweak": "right_weakening",
    "lweak": "left_weakening",
}


def spec_from_text(text: str) -> SystemSpec:
    name = None
    constants: list = []
    negation: dict = {}
    relations: list = []
    order: list = []
    axioms: list = []
    rules: list = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        try:
            if key == "name":
                if name is not None:
                    raise SystemError(f"name declared twice: {name}, then {rest}")
                name = rest
            elif key == "constants":
                constants.extend(rest.split())
            elif key == "negation":
                lhs, _, rhs = rest.partition("=")
                c = lhs.strip()
                if c in negation:
                    raise SystemError(f"negation of {c} declared twice")
                negation[c] = rhs.strip()
            elif key == "relation":
                parts = rest.split()
                rel_name = parts[0]
                if any(r.name == rel_name for r in relations):
                    raise SystemError(f"relation {rel_name} declared twice")
                kw: dict = {}
                dual = rel_name
                for part in parts[1:]:
                    if part.startswith("dual="):
                        dual = part[5:]
                    elif part.startswith("unit="):
                        kw["unitary"] = part[5:]
                    elif part in _FLAGS:
                        kw[_FLAGS[part]] = True
                    else:
                        raise SystemError(f"unknown relation flag {part!r}")
                relations.append(RelationSymbol(rel_name, dual, **kw))
            elif key == "order":
                a, _, b = rest.partition("<")
                order.append((a.strip(), b.strip()))
            elif key == "axiom":
                head, eq_text = rest.split(None, 1)
                lhs_text, rhs_text = eq_text.split("=")
                axioms.append(Axiom(head, *(
                    _assign_sorts(parse_formula(t.strip(), metavars=True))
                    for t in (lhs_text, rhs_text))))
            elif key == "rule":
                rid, scheme_name, alpha, beta = rest.split()
                rules.append(RuleDecl(rid, Scheme(scheme_name), alpha, beta))
            else:
                raise SystemError(f"unknown section {key!r}")
        except (IndexError, ValueError):
            raise SystemError(f"line {lineno}: malformed {key} line: {line}") from None
        except TermError as e:
            raise SystemError(f"line {lineno}: {e}") from None
    return SystemSpec(
        name="unnamed" if name is None else name,
        constants=constants,
        constant_negation=negation,
        relations=relations,
        order=order,
        axioms=axioms,
        rules=rules,
    )
