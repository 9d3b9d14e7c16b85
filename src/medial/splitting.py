"""Splittable fragments, shallow splitting, context reduction and the
elimination of splitting up-rules.

Shallow splitting decomposes a proof of (A0 a A1) b B into component
proofs by induction on the derivation, analysing the step adjacent to
the conclusion; a run of steps there inside the split node is walked in
one loop, the length bound asserted per step.  Unhandled step shapes
raise IrreducibleCase instead of guessing; the acceptance corpus must
exercise none.  A part that already ends at the formula it is pinned to
is returned as it is, not rebuilt."""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .derivations import (
    Builder,
    Derivation,
    DerivationError,
    Step,
    after_step,
    before_step,
    converse,
    steps_length,
)
from .generators import atomic_deduction
from .systems import (
    Metavar,
    RuleInstance,
    Scheme,
    SystemSpec,
    ac_instance,
    eq_instance,
    eq_step_for,
    instantiate,
    instantiate_rule,
    unit_axiom,
)
from .terms import (
    Compound,
    Constant,
    Formula,
    PathStep,
    Variable,
    _Record,
    ac_canonical,
    context_at,
    equal_mod_ac,
    is_atom,
    join,
    negate,
    plug,
    print_formula,
    spine,
    subformula_at_sides,
)


class SplittingError(DerivationError):
    pass


class NotDownFragment(SplittingError):
    pass


class IrreducibleCase(SplittingError):
    pass


class FragmentError(SplittingError):
    pass


# ---------------------------------------------------------------------------
# Fragments


class SplittableFragment(_Record):
    __slots__ = _fields = ("spec", "down_rules", "up_rules")

    spec: SystemSpec
    down_rules: tuple  # splitting down-rule ids
    up_rules: tuple  # the corresponding splitting up-rule ids

    def __init__(self, spec: SystemSpec, down_rules: tuple, up_rules: tuple) -> None:
        super().__init__(spec, down_rules, up_rules)

    def weak_for(self, premise: Formula) -> tuple:
        """(beta, unit, co_unit), the units as constants, of the weak
        relation whose co-unit is premise; splitting runs from there."""
        for beta, unit, co_unit in self.spec.weak_units:
            if premise == Constant(co_unit):
                return beta, Constant(unit), Constant(co_unit)
        raise NotDownFragment(
            f"expected a proof from a co-unit, not from {print_formula(premise)}"
        )


def make_fragment(spec: SystemSpec) -> SplittableFragment:
    """Validate the splittable down-fragment conditions and collect the
    down/up splitting rule lists."""
    issues = []
    if not spec.weak_units:
        issues.append("no weak relation with a unit")
    probe_a = Variable("w1")
    for beta, unit, co_unit in spec.weak_units:
        nu = Constant(co_unit)
        if not (spec.is_associative(beta) and spec.is_commutative(beta)):
            issues.append(f"{beta} lacks associativity/commutativity")
        if unit_axiom(spec, beta) is None:
            issues.append(f"{beta} lacks its unit axiom")
        for const in sorted(spec.constants):
            lhs = Compound(beta, Constant(const), Constant(spec.negate_constant(const)))
            if eq_step_for(spec, lhs, nu) is None:
                issues.append(f"{beta} lacks constant annihilation at {const}")
        if eq_step_for(spec, Compound(beta, probe_a, Variable("w1", True)), nu) is None:
            issues.append(f"{beta} lacks variable annihilation")
        for rel in spec.relations:
            if spec.precedes(rel, beta):
                if eq_step_for(spec, Compound(rel, nu, nu), nu) is None:
                    issues.append(f"missing co-unit merge at {rel}")
    down = tuple(r.rule_id for r in spec.rules if r.scheme is Scheme.SPLIT_DOWN)
    if not down:
        issues.append("no splitting down-rules declared")
    up = []
    for r in spec.rules:
        if r.scheme is not Scheme.SPLIT_DOWN:
            continue
        mate = spec.rule_for(Scheme.SPLIT_UP, spec.dual(r.alpha), spec.dual(r.beta))
        if mate is not None:
            up.append(mate.rule_id)
    if issues:
        raise FragmentError("; ".join(issues))
    return SplittableFragment(spec, down, tuple(up))


def in_down_fragment(step: Step) -> bool:
    return step.rule.scheme in (Scheme.SPLIT_DOWN, Scheme.EQ, Scheme.AC)


def first_up_index(frag: SplittableFragment, d: Derivation) -> Optional[int]:
    for i, step in enumerate(d.steps):
        if not in_down_fragment(step):
            return i
    return None


# ---------------------------------------------------------------------------
# Shallow splitting


class SplitRecord(_Record, frozen=False):
    __slots__ = _fields = ("alpha", "kind", "len_p", "len_q0", "len_q1")

    alpha: str
    kind: str
    len_p: int
    len_q0: Optional[int]
    len_q1: Optional[int]

    def __init__(self, alpha: str, kind: str, len_p: int, len_q0: Optional[int],
                 len_q1: Optional[int]) -> None:
        self.alpha, self.kind, self.len_p = alpha, kind, len_p
        self.len_q0, self.len_q1 = len_q0, len_q1

    @property
    def bound_holds(self) -> bool:
        if self.kind == "unitary":
            return (self.len_q0 or 0) + (self.len_q1 or 0) <= self.len_p
        if self.kind == "right_weakening":
            return (self.len_q0 or 0) <= self.len_p
        return (self.len_q1 or 0) <= self.len_p


class SplitResult(_Record):
    __slots__ = _fields = ("kind", "alpha", "k0", "k1", "d", "q0", "q1")

    kind: str
    alpha: str
    k0: Formula
    k1: Formula
    d: Derivation  # from (k0 ~alpha k1) to B
    q0: Optional[Derivation]  # from ~u_beta to (A0 beta k0)
    q1: Optional[Derivation]  # from ~u_beta to (A1 beta k1)

    def __init__(self, kind: str, alpha: str, k0: Formula, k1: Formula, d: Derivation,
                 q0: Optional[Derivation], q1: Optional[Derivation]) -> None:
        super().__init__(kind, alpha, k0, k1, d, q0, q1)


# the side of its node that a weakening erases
_ERASED = {"right_weakening": "R", "left_weakening": "L"}


def _alpha_kind(spec: SystemSpec, alpha: str) -> str:
    rel = spec.relation(alpha)
    if rel.unitary is not None:
        return "unitary"
    if rel.right_weakening:
        return "right_weakening"
    if rel.left_weakening:
        return "left_weakening"
    raise IrreducibleCase(f"{alpha} is neither unitary nor a weakening")


def _delete(tree: Formula, occ: tuple) -> Formula:
    """tree less the subterm at occ: its parent gives way to its sibling."""
    ctx = context_at(tree, occ)
    return plug(ctx[:-1], ctx[-1].sibling)


def _shallow_depth(beta: str, tree: Formula, sides: tuple) -> int:
    """How many of sides descend through beta nodes from tree's root; the
    subterm at sides is beta-shallow when that is all of them."""
    cur = tree
    for depth, side in enumerate(sides):
        if not (isinstance(cur, Compound) and cur.rel == beta):
            return depth
        cur = cur.left if side == "L" else cur.right
    return len(sides)


def _shallow_nodes(beta: str, tree: Formula, prefix: tuple = ()):
    """(path, subtree) for every beta-shallow subtree of tree: pre-order,
    left before right, descending only through beta nodes."""
    yield prefix, tree
    if isinstance(tree, Compound) and tree.rel == beta:
        yield from _shallow_nodes(beta, tree.left, prefix + ("L",))
        yield from _shallow_nodes(beta, tree.right, prefix + ("R",))


def _find_shallow_occ(spec: SystemSpec, beta: str, tree: Formula, node: Formula):
    """The first beta-shallow occurrence of an AC-equal copy of node."""
    return next(
        (p for p, f in _shallow_nodes(beta, tree) if equal_mod_ac(spec, f, node)), None
    )


def _find_aligned_occ(spec: SystemSpec, beta: str, tree: Formula, node: Formula):
    """A beta-shallow occurrence of node with the same top bipartition;
    returns (path, swapped) or None."""
    for p, f in _shallow_nodes(beta, tree):
        if isinstance(f, Compound) and f.rel == node.rel and equal_mod_ac(spec, f, node):
            if equal_mod_ac(spec, f.left, node.left):
                return p, False
            if spec.is_commutative(node.rel) and equal_mod_ac(spec, f.left, node.right):
                return p, True
    return None


def _is_prefix(a: tuple, b: tuple) -> bool:
    return b[: len(a)] == a


def _inside(step: Step, occ: tuple) -> bool:
    """Does step rewrite strictly inside the node at occ, other than by acr?"""
    ctx = step.context
    return (len(ctx) > len(occ) and step.rule.scheme is not Scheme.AC
            and all(c.hole_side == o for c, o in zip(ctx, occ)))


def _pinned(spec: SystemSpec, d: Derivation, target: Formula) -> Derivation:
    """d closed onto target: d itself when it already ends there (formulas
    are hash-consed), else d and an acr step onto target."""
    return d if d.conclusion is target else Builder(spec, d).derivation(target)


class _Splitter:
    def __init__(self, frag: SplittableFragment, premise: Formula, recorder: Optional[list]):
        self.frag = frag
        self.spec = frag.spec
        self.beta, self.u, self.nu = frag.weak_for(premise)
        self.recorder = recorder
        self.calls = 0

    def _length(self, d: Optional[Derivation]) -> Optional[int]:
        """The length of d, each rule instance costed once (steps_length)."""
        return None if d is None else steps_length(self.spec, d.steps)

    def _normalize(self, P: Derivation, node: Compound, kind: str, btree: Formula,
                   k0, k1, d, q0, q1) -> SplitResult:
        """Pin a case's parts to this call's exact trees: the node's
        components, and btree, P's conclusion with the node deleted.  A
        part that already runs to where it is pinned is returned as it is."""
        spec, beta = self.spec, self.beta
        alpha = node.rel

        def fix_q(q, a_part, k):
            return None if q is None else _pinned(spec, q, Compound(beta, a_part, k))

        q0 = fix_q(q0, node.left, k0)
        q1 = fix_q(q1, node.right, k1)
        top = Compound(spec.dual(alpha), k0, k1)
        if d.premise is top and d.conclusion is btree:
            dd = d
        else:
            b = Builder(spec, top)
            b.splice((), d)
            if b.current != btree:
                _steer_units(spec, beta, self.u, b, btree, "split remainder")
            dd = b.derivation(btree)
        self._record(alpha, kind, self._length(P), self._length(q0), self._length(q1))
        return SplitResult(kind, alpha, k0, k1, dd, q0, q1)

    def _record(self, alpha: str, kind: str, len_p: int, len_q0, len_q1) -> None:
        """Log one split's lengths and assert the bound on them."""
        rec = SplitRecord(alpha, kind, len_p, len_q0, len_q1)
        if self.recorder is not None:
            self.recorder.append(rec)
        if not rec.bound_holds:
            raise SplittingError(f"length bound violated: {rec}")

    # -- main recursion ----------------------------------------------------
    def split(self, P: Derivation, occ: tuple) -> SplitResult:
        """Analyse the step next to P's conclusion, or walk a run of them
        inside the node; _normalize pins each case's (k0, k1, d, q0, q1)."""
        top = len(P.steps)  # where the run of steps inside the node starts
        while top and _inside(P.steps[top - 1], occ):
            top -= 1
        self.calls += 1 + len(P.steps) - top
        if self.calls > 200000:
            raise IrreducibleCase("splitting recursion exceeded its budget")
        if top < len(P.steps):
            return self._walk_inside(P, occ, top)
        spec, beta = self.spec, self.beta
        if occ == ():
            # pad: read the conclusion as (node beta u); the pad is applied
            # above the bottom step so the analysis sees a real step
            if not P.steps:
                raise IrreducibleCase("bare atomic premise cannot hold the split node")
            last = P.steps[-1]
            b = Builder(spec, before_step(P, -1))
            _eq_rewrite(b, (), Compound(beta, last.before, self.u), "bare conclusion pad")
            b.apply(("L",) + last.sides, last.rule)
            return self.split(b.derivation(), ("L",))
        C = P.conclusion
        node = subformula_at_sides(C, occ)
        if not isinstance(node, Compound):
            raise IrreducibleCase(f"split position holds an atom: {node}")
        if _shallow_depth(beta, C, occ) < len(occ):
            raise IrreducibleCase("split position is not shallow")
        if not spec.precedes(node.rel, beta):
            raise IrreducibleCase(f"{node.rel} is not strictly below {beta}")
        kind = _alpha_kind(spec, node.rel)
        if not P.steps:
            raise IrreducibleCase("the co-unit premise contains no split node")
        sigma = P.steps[-1]
        P1 = before_step(P, -1)
        p = sigma.sides
        scheme = sigma.rule.scheme
        if scheme is Scheme.AC and P1.steps and P1.steps[-1].rule.scheme is Scheme.AC:
            # merge adjacent rearrangements so the node stays verbatim
            b = Builder(spec, before_step(P1, -1))
            b.apply((), ac_instance(spec, b.current, C))
            return self.split(b.derivation(), occ)
        btree = _delete(C, occ)

        if scheme is Scheme.AC:
            found = _find_aligned_occ(spec, beta, P1.conclusion, node)
            if found is None:
                parts = self._regrouped(P1, node, kind)
            else:
                res = self.split(P1, found[0])
                parts = (res.k1, res.k0, res.d, res.q1, res.q0) if found[1] else (
                    res.k0, res.k1, res.d, res.q0, res.q1)
        elif p == occ:
            if scheme is not Scheme.EQ:
                raise IrreducibleCase(f"{sigma.rule.rule_id} rewrites the split node directly")
            parts = self._at_node_eq(P1, occ, sigma, kind, btree)
        elif _is_prefix(p, occ):
            if scheme is Scheme.SPLIT_DOWN:
                parts = self._under_split_down(P1, occ, sigma, node)
            elif scheme is Scheme.EQ:
                parts = self._under_eq(P1, occ, sigma)
            else:
                raise IrreducibleCase(f"{sigma.rule.rule_id} above the split node")
        else:
            parts = self._disjoint(P1, occ, sigma)
        return self._normalize(P, node, kind, btree, *parts)

    def _regrouped(self, P1, node, kind) -> tuple:
        """A rearrangement step regrouped the node's spine: atomize a
        class-equal occurrence into per-element proofs and rejoin them
        following the designated reading's grouping."""
        spec, beta = self.spec, self.beta
        alpha = node.rel
        na = spec.dual(alpha)
        if not spec.is_associative(alpha) or kind != "unitary":
            # one-sided (weakening) splits cannot be re-elementised
            raise IrreducibleCase("AC step scrambles the split components")
        occ2 = _find_shallow_occ(spec, beta, P1.conclusion, node)
        if occ2 is None:
            raise IrreducibleCase("AC step hides the split node")
        t = subformula_at_sides(P1.conclusion, occ2)
        base = _pinned(spec, P1, Compound(beta, t, _delete(P1.conclusion, occ2)))
        by_class: dict = {}  # element class -> [(id, q, K)], leftmost first
        chain: list = []  # (left_id, right_id, parent_id, remainder), bottom-up
        self._atomize(base, t, alpha, itertools.count(1), by_class, chain)
        used: list = []  # (id, K) in reading order
        q0, k0 = self._rejoin(node.left, alpha, by_class, used)
        q1, k1 = self._rejoin(node.right, alpha, by_class, used)
        # close the remainder: merge element remainders back along the
        # original grouping, then hand over to the base split's remainder
        blocks = list(used)  # (id, K); reading order equals spine order
        d = Builder(spec, Compound(na, k0, k1))
        for lid, rid, pid, rem in chain:
            li = next(i for i, (bid, _) in enumerate(blocks) if bid == lid)
            ri = next(i for i, (bid, _) in enumerate(blocks) if bid == rid)
            if ri != li + 1:
                raise IrreducibleCase("regrouped spine remainder out of order")
            pair = Compound(na, blocks[li][1], blocks[ri][1])
            arranged = (
                join(na, [k for _, k in blocks[:li]] + [pair]
                     + [k for _, k in blocks[ri + 1 :]])
            )
            d.acr((), arranged)
            pos = ("R",) * li + (("L",) if ri < len(blocks) - 1 else ())
            d.splice(pos, rem)
            blocks[li : ri + 1] = [(pid, rem.conclusion)]
        return k0, k1, d.derivation(), q0, q1

    def _atomize(self, q: Derivation, tree: Formula, alpha: str, ids, by_class: dict,
                 chain: list) -> int:
        """Split q, a proof of (tree beta K), into one proof per alpha-element
        of tree, filed by element class; returns the id of tree's block."""
        if not (isinstance(tree, Compound) and tree.rel == alpha):
            k = subformula_at_sides(q.conclusion, ("R",))
            bid = next(ids)
            by_class.setdefault(ac_canonical(self.spec, tree), []).append((bid, q, k))
            return bid
        r = self.split(q, ("L",))
        lid = self._atomize(r.q0, tree.left, alpha, ids, by_class, chain)
        rid = self._atomize(r.q1, tree.right, alpha, ids, by_class, chain)
        pid = next(ids)
        chain.append((lid, rid, pid, r.d))
        return pid

    def _rejoin(self, tree: Formula, alpha: str, by_class: dict, used: list) -> tuple:
        """Proof of (tree beta K) following the reading's grouping, and K."""
        spec, beta = self.spec, self.beta
        if not (isinstance(tree, Compound) and tree.rel == alpha):
            entries = by_class.get(ac_canonical(spec, tree))
            if not entries:
                raise IrreducibleCase("regrouped spine lost an element")
            bid, q, k = entries.pop(0)
            used.append((bid, k))
            return q, k
        ql, kl = self._rejoin(tree.left, alpha, by_class, used)
        qr, kr = self._rejoin(tree.right, alpha, by_class, used)
        b = Builder(spec, self.nu)
        _eq_rewrite(b, (), Compound(alpha, self.nu, self.nu), "co-unit merge for regrouping")
        b.splice(("L",), ql)
        b.splice(("R",), qr)
        b.apply_scheme(
            (), Scheme.SPLIT_DOWN,
            dict(A=tree.left, B=kl, C=tree.right, D=kr), alpha, beta,
        )
        k = Compound(spec.dual(alpha), kl, kr)
        return b.derivation(Compound(beta, tree, k)), k

    # -- cases -------------------------------------------------------------
    def _walk_inside(self, P, occ, top) -> SplitResult:
        """Steps top.. of P rewrite inside the node: split the proof above
        them once, then apply each to the component proof hosting it, the
        lengths kept as running sums and the bound asserted per step.  At
        the root the node is read padded, and the proof above each step is a split too."""
        spec, n = self.spec, len(occ)
        above = before_step(P, top)
        res = self.split(above, occ)
        len_p = self._length(above)
        lens = [self._length(res.q0), self._length(res.q1)]
        qs, builders = [res.q0, res.q1], [None, None]
        for sigma in P.steps[top:]:
            if not occ:
                self._record(res.alpha, res.kind, len_p, *lens)
            cost = steps_length(spec, (sigma,))
            host = 0 if sigma.context[n].hole_side == "L" else 1
            if qs[host] is not None:
                if builders[host] is None:
                    builders[host] = Builder(spec, qs[host])
                builders[host].apply(("L",) + sigma.sides[n + 1 :], sigma.rule)
                lens[host] += cost
            len_p += cost
            self._record(res.alpha, res.kind, len_p, *lens)
        q0, q1 = (q if b is None else b.derivation() for q, b in zip(qs, builders))
        return SplitResult(res.kind, res.alpha, res.k0, res.k1, res.d, q0, q1)

    def _make_pair_proof(self, atom: Formula) -> Derivation:
        """~u_beta -> (atom beta ~atom) for an atomic literal or constant."""
        spec, beta = self.spec, self.beta
        b = Builder(spec, self.nu)
        _eq_rewrite(b, (), Compound(beta, atom, negate(spec, atom)),
                    "annihilation axiom for the split component")
        return b.derivation()

    def _at_node_eq(self, P1, occ, sigma, kind, btree) -> tuple:
        spec, beta = self.spec, self.beta
        node = sigma.rule.conclusion
        a0, a1 = node.left, node.right
        alpha = node.rel
        na = spec.dual(alpha)
        s_pre = sigma.rule.premise

        if is_atom(s_pre) and s_pre not in (a0, a1):
            if not (is_atom(a0) and is_atom(a1)):
                raise IrreducibleCase("atomic creation with compound components")
            k0, k1 = negate(spec, a0), negate(spec, a1)
            q0 = self._make_pair_proof(a0)
            q1 = self._make_pair_proof(a1)
            d = Builder(spec, Compound(na, k0, k1))
            d.apply((), converse(spec, sigma.rule, negated=True))  # ~node -> ~s_pre
            padded = _pinned(spec, P1, Compound(beta, s_pre, btree))
            d.splice((), atomic_deduction(spec, beta, s_pre, btree, padded))
            return k0, k1, d.derivation(), q0, q1

        if s_pre == a0 or s_pre == a1:
            # unit or weakening expansion at the node; the kept side is read
            # off the axiom patterns (the components may be equal formulas)
            rule = sigma.rule
            oriented = spec.oriented_axioms[(rule.axiom_id, rule.negated, rule.direction)]
            pp, pc = oriented.premise, oriented.conclusion
            if isinstance(pc, Compound) and pc.left == pp:
                held = "L"
            elif isinstance(pc, Compound) and pc.right == pp:
                held = "R"
            else:
                held = "L" if s_pre == a0 else "R"

            def ordered(x, y) -> tuple:  # x on the kept side, y on the other
                return (x, y) if held == "L" else (y, x)

            kept, other = ordered(a0, a1)
            q_kept = _pinned(spec, P1, Compound(beta, kept, btree))
            if kind == "unitary":
                if other != Constant(spec.relation(alpha).unitary) or other != self.nu:
                    raise IrreducibleCase("unit expansion with a non-co-unit unit")
                if na != beta:
                    raise IrreducibleCase("unitary split needs the dual weak relation")
                k_other = self.u
                ob = Builder(spec, self.nu)
                _eq_rewrite(ob, (), Compound(beta, other, self.u), "unit padding")
                q_other = ob.derivation()
                d = Builder(spec, Compound(na, *ordered(btree, k_other)))
                d.acr((), Compound(beta, btree, self.u))
                _eq_rewrite(d, (), btree, "unit removal")
            elif held != _ERASED[kind]:
                k_other = other
                q_other = None
                d = Builder(spec, Compound(na, *ordered(btree, k_other)))
                _eq_rewrite(d, (), btree, "weakening erasure")
            else:
                raise IrreducibleCase("expansion on the erased side of a weakening")
            return (*ordered(btree, k_other), d.derivation(), *ordered(q_kept, q_other))
        # wrapping equations (a bare metavariable conclusion pattern) are
        # handled by the generic relocation
        return self._under_eq(P1, occ, sigma)

    def _under_split_down(self, P1, occ, sigma, node) -> tuple:
        spec, beta = self.spec, self.beta
        rule = sigma.rule
        a2, b2 = rule.relations
        if b2 != beta:
            raise IrreducibleCase("splitting step over a foreign weak relation")
        p = sigma.sides
        rel = occ[len(p) :]
        alpha = node.rel
        na = spec.dual(alpha)
        if rel in (("L",), ("R",)):
            # the node is the step's (A a2 C) or its (B ~a2 D); the other
            # pair of bindings goes to the remainder
            left = rel == ("L",)
            e0, e1 = (rule.binding(name) for name in ("BD" if left else "AC"))
            if (a2 if left else spec.dual(a2)) != alpha:
                raise IrreducibleCase("inner relation of the split step differs")
            res = self.split(P1, p)
            k0 = Compound(beta, e0, res.k0)
            k1 = Compound(beta, e1, res.k1)
            d = Builder(spec, Compound(na, k0, k1))
            if left and na == beta:
                d.acr(
                    (),
                    Compound(
                        beta, Compound(na, e0, e1), Compound(beta, res.k0, res.k1)
                    ),
                )
            elif (not left or na == alpha) and spec.precedes(na, beta):
                d.apply_scheme(
                    (), Scheme.SPLIT_DOWN, dict(A=e0, B=res.k0, C=e1, D=res.k1), na, beta
                )
            else:
                raise IrreducibleCase("dual relation unusable under the split node")
            d.splice(("R",), res.d)
            return k0, k1, d.derivation(), res.q0, res.q1
        if rel[0] == "R" and spec.dual(a2) == beta:
            return self._spine_split(P1, sigma, rel)
        raise IrreducibleCase("split node buried by a splitting step")

    def _spine_split(self, P1, sigma, rel) -> tuple:
        """The bottom step merges (X b Y) ~b (Z b W) into the spine and the
        split node sits inside Y or W."""
        spec, beta = self.spec, self.beta
        rule = sigma.rule
        p = sigma.sides
        nb = rule.relations[0]  # == dual(beta)
        X = rule.binding("A")
        Y = rule.binding("B")
        Z = rule.binding("C")
        W = rule.binding("D")
        res1 = self.split(P1, p)
        in_y = rel[1] == "L"
        host, other = (res1.q0, res1.q1) if in_y else (res1.q1, res1.q0)
        k_other = res1.k1 if in_y else res1.k0
        if host is None or other is None:
            raise IrreducibleCase("spine split lost a component proof")
        occ2 = ("L", "R") + rel[2:]
        res2 = self.split(host, occ2)
        keep, away = (X, (Z, W)) if in_y else (Z, (X, Y))
        d = Builder(spec, res2.d)
        # conclusion: (keep b partdel) b K, K the host's remainder, or
        # (keep b K) if the whole component was the split node
        kpath = _find_shallow_occ(spec, beta, d.current, keep)
        if kpath is None:
            raise IrreducibleCase("lost the kept component in a spine split")
        _eq_rewrite(d, kpath, Compound(nb, keep, self.nu), "co-unit padding")
        d.splice(kpath + ("R",), other)
        za, zb = away
        d.acr(kpath + ("R",), Compound(beta, za, Compound(beta, zb, k_other)))
        _eq_rewrite(d, kpath + ("L",), Compound(beta, keep, self.u), "unit padding")
        d.apply_scheme(
            kpath, Scheme.SPLIT_DOWN,
            dict(A=keep, B=self.u, C=za, D=Compound(beta, zb, k_other)), nb, beta,
        )
        # drop the unit introduced above, regroup, close with the outer proof
        rest = list(spine(spec, d.current, beta))
        rest.remove(self.u)
        d.acr((), Compound(beta, join(beta, rest), self.u))
        _eq_rewrite(d, (), join(beta, rest), "unit removal")
        d.acr((), self._arrange_with_pair(d.current, res1.k0, res1.k1))
        d.splice(("R",), res1.d)
        return res2.k0, res2.k1, d.derivation(), res2.q0, res2.q1

    def _arrange_with_pair(self, cur: Formula, k0: Formula, k1: Formula) -> Formula:
        """Arrange cur as (rest b (k0 b k1)) so an outer proof can continue."""
        spec, beta = self.spec, self.beta
        pair = Compound(beta, k0, k1)
        rest = _element_diff(spec, beta, cur, pair)
        if len(rest) + len(spine(spec, pair, beta)) != len(spine(spec, cur, beta)):
            raise IrreducibleCase("missing component remainder in spine split")
        if not rest:
            raise IrreducibleCase("spine split left no remainder")
        return Compound(beta, join(beta, rest), pair)

    def _under_eq(self, P1, occ, sigma) -> tuple:
        spec, beta = self.spec, self.beta
        rule = sigma.rule
        p = sigma.sides
        rel = occ[len(p) :]
        oriented = spec.oriented_axioms[(rule.axiom_id, rule.negated, rule.direction)]
        pp, pc = oriented.premise, oriented.conclusion
        bindings = dict(rule.bindings)
        # descend the conclusion pattern along rel to the carrying metavar
        pat = pc
        depth = 0
        while depth < len(rel) and isinstance(pat, Compound):
            pat = pat.left if rel[depth] == "L" else pat.right
            depth += 1
        if not isinstance(pat, Metavar) or pat.negated or pat.sort != "formula":
            # the node may be the kept side of an erasing weakening
            return self._triad(P1, occ, sigma)
        m_name = pat.name
        r_m = rel[depth:]
        pre_occs = _metavar_paths(pp, m_name)
        con_occs = _metavar_paths(pc, m_name)
        if len(pre_occs) != 1 or len(con_occs) != 1:
            return self._triad(P1, occ, sigma)
        occ2 = p + pre_occs[0] + r_m
        if _shallow_depth(beta, P1.conclusion, occ2) < len(occ2):
            return self._triad(P1, occ, sigma)
        res = self.split(P1, occ2)
        # patch d from the recursion's remainder towards delete(C, occ); a
        # step that wrapped or unwrapped the whole node (r_m empty) leaves
        # only a unit for _normalize to pad or drop
        if r_m == ():
            return res.k0, res.k1, res.d, res.q0, res.q1
        new_binding = dict(bindings)
        new_binding[m_name] = _delete(bindings[m_name], r_m)
        d = Builder(spec, res.d)
        d.apply(_relocate_after_delete(p, occ2), oriented.instance(spec, new_binding))
        return res.k0, res.k1, d.derivation(), res.q0, res.q1

    def _triad(self, P1, occ, sigma) -> tuple:
        """Erasing weakening above the node: split at the erased relation,
        then split the kept component (the paper's weakening case triad)."""
        spec, beta = self.spec, self.beta
        rule = sigma.rule
        p = sigma.sides
        s_pre, s_con = rule.premise, rule.conclusion
        if not isinstance(s_pre, Compound):
            raise IrreducibleCase("unrecognised step above the split node")
        gamma = s_pre.rel
        if s_con == s_pre.left:
            kept_side = "L"
        elif s_con == s_pre.right:
            kept_side = "R"
        else:
            raise IrreducibleCase("unrecognised step above the split node")
        if not spec.precedes(gamma, beta):
            raise IrreducibleCase(f"erasing relation {gamma} is not below {beta}")
        res1 = self.split(P1, p)
        host = res1.q0 if kept_side == "L" else res1.q1
        if host is None:
            raise IrreducibleCase("erasure kept the unprovable side")
        rel = occ[len(p) :]
        occ2 = ("L",) + rel
        res2 = self.split(host, occ2)
        # d: from res2 premise through the kept remainder, re-expanding the
        # erased side, to the outer remainder
        k_kept = res1.k0 if kept_side == "L" else res1.k1
        d = Builder(spec, res2.d)
        kpos = _find_shallow_occ(spec, beta, d.current, k_kept)
        if kpos is None:
            raise IrreducibleCase("lost the component remainder after erasure")
        _eq_rewrite(d, kpos, Compound(spec.dual(gamma), res1.k0, res1.k1), "re-expansion")
        d.splice(kpos, res1.d)
        return res2.k0, res2.k1, d.derivation(), res2.q0, res2.q1

    def _disjoint(self, P1, occ, sigma) -> tuple:
        res = self.split(P1, occ)
        d = Builder(self.spec, res.d)
        d.apply(_relocate_after_delete(sigma.sides, occ), sigma.rule)
        return res.k0, res.k1, d.derivation(), res.q0, res.q1


def _metavar_paths(pattern: Formula, name: str, prefix: tuple = ()) -> list:
    out = []
    if isinstance(pattern, Metavar) and pattern.name == name and not pattern.negated:
        out.append(prefix)
    elif isinstance(pattern, Compound):
        out.extend(_metavar_paths(pattern.left, name, prefix + ("L",)))
        out.extend(_metavar_paths(pattern.right, name, prefix + ("R",)))
    return out


def _relocate_after_delete(p: tuple, occ: tuple) -> tuple:
    """Adjust a path disjoint from occ after deleting occ's element."""
    anchor = occ[:-1]
    if p[: len(anchor)] == anchor and len(p) > len(anchor):
        sibling_side = "R" if occ[-1] == "L" else "L"
        if p[len(anchor)] == sibling_side:
            return anchor + p[len(anchor) + 1 :]
    return p


def _eq_rewrite(b: Builder, sides, target: Formula, what: str) -> None:
    """One equational step at sides to target; IrreducibleCase if none."""
    try:
        b.rewrite(sides, target)
    except DerivationError as e:
        raise IrreducibleCase(f"{what}: {e}") from None


def _steer_units(spec: SystemSpec, beta: str, u: Formula, b: Builder,
                 target: Formula, what: str) -> None:
    """Steer the builder's formula to target, padding or dropping unit
    elements where padded sub-derivations introduced them."""
    for _ in range(64):
        if equal_mod_ac(spec, b.current, target):
            b.acr((), target)
            return
        extra = _element_diff(spec, beta, b.current, target)
        missing = _element_diff(spec, beta, target, b.current)
        if extra and all(e == u for e in extra):
            rest = list(spine(spec, b.current, beta))
            rest.remove(u)
            keep = join(beta, rest)
            b.acr((), Compound(beta, keep, u))
            inst = eq_step_for(spec, Compound(beta, keep, u), keep)
            if inst is None:
                raise IrreducibleCase(f"{what}: no unit axiom")
            b.apply((), inst)
            continue
        if missing and all(e == u for e in missing):
            _eq_rewrite(b, (), Compound(beta, b.current, u), what)
            continue
        raise IrreducibleCase(
            f"{what}: cannot reconcile {print_formula(b.current)} "
            f"with {print_formula(target)}"
        )
    raise IrreducibleCase(f"{what}: reconciliation did not converge")


def _element_diff(spec: SystemSpec, beta: str, big: Formula, small: Formula) -> list:
    """big's beta-spine elements in order, less one AC-equal element for
    each of small's that has one (a multiset difference modulo AC)."""
    elems = spine(spec, big, beta)
    keys = [ac_canonical(spec, e) for e in elems]
    for e in spine(spec, small, beta):
        key = ac_canonical(spec, e)
        if key in keys:
            i = keys.index(key)
            del keys[i], elems[i]
    return elems


def shallow_split(
    frag: SplittableFragment,
    P: Derivation,
    occ: Sequence[str],
    recorder: Optional[list] = None,
) -> SplitResult:
    """Split a proof of (A0 a A1) b B (the a-node designated by occ) into
    component proofs and a remainder derivation, per the shallow splitting
    theorem; the length bounds are asserted on every recursive call.  The
    case analysis reads adjacent steps, which P threads exactly."""
    splitter = _Splitter(frag, P.premise, recorder)
    i = first_up_index(frag, P)
    if i is not None:
        raise NotDownFragment(f"step {i} ({P.steps[i].rule.rule_id}) is not a down rule")
    return splitter.split(P, tuple(occ))


# ---------------------------------------------------------------------------
# Context reduction

# A metavariable: no parsed formula holds one and check rejects one, so the
# hole cannot clash with the user's symbols
HOLE = Metavar("_")


def _fill(spec: SystemSpec, f: Formula, x: Formula, memo: dict) -> Formula:
    """instantiate(spec, f, {hole: x}), filling each compound once: memo
    maps the compounds filled so far to their results."""
    if not isinstance(f, Compound):
        return instantiate(spec, f, {HOLE.name: x}) if isinstance(f, Metavar) else f
    out = memo.get(f)
    if out is None:
        out = memo[f] = Compound(
            f.rel, _fill(spec, f.left, x, memo), _fill(spec, f.right, x, memo)
        )
    return out


def instantiate_hole(spec: SystemSpec, d: Derivation, x: Formula) -> Derivation:
    """Plug a formula into every hole occurrence of a context derivation;
    the steps share their formulas' nodes, and each is filled once."""
    memo: dict = {}

    def fill(f: Formula) -> Formula:
        return _fill(spec, f, x, memo)

    def fix_rule(rule: RuleInstance) -> RuleInstance:
        # an instance is fixed by what it declares: refilled, it is rebuilt
        # by its constructor, so it is the live instance check knows
        bindings = tuple([(k, fill(v)) for k, v in rule.bindings])
        if bindings == rule.bindings:
            return rule  # no hole in it: the rule as it is, its cost kept
        if rule.scheme is Scheme.AC:
            return ac_instance(spec, bindings[0][1], bindings[1][1])
        if rule.scheme.is_medial:
            return instantiate_rule(spec, rule.scheme, dict(bindings), *rule.relations)
        return eq_instance(spec, rule.axiom_id, dict(bindings), rule.negated, rule.direction)

    steps = tuple(
        Step(
            tuple(PathStep(p.rel, p.hole_side, fill(p.sibling)) for p in s.context),
            fix_rule(s.rule),
        )
        for s in d.steps
    )
    # substitution commutes with plugging, so exact threading survives it
    return Derivation(fill(d.premise), steps, fill(d.conclusion))


class ContextReduction(_Record):
    __slots__ = _fields = ("k", "ctx", "q")

    k: Formula
    ctx: Derivation  # from (HOLE beta K) to S{HOLE}
    q: Derivation  # from ~u_beta to (A beta K)

    def __init__(self, k: Formula, ctx: Derivation, q: Derivation) -> None:
        super().__init__(k, ctx, q)


def context_reduce(
    frag: SplittableFragment,
    P: Derivation,
    hole_sides: Sequence[str],
    recorder: Optional[list] = None,
) -> ContextReduction:
    """Reduce a proof of S{A} to a proof of A beta K plus a hole-uniform
    derivation rebuilding S{ } around { } beta K."""
    spec = frag.spec
    hole_sides = tuple(hole_sides)
    beta, u, nu = frag.weak_for(P.premise)
    C = P.conclusion
    ctx = context_at(C, hole_sides)
    s_hole = plug(ctx, HOLE)  # C with the hole in place of the subterm
    depth = _shallow_depth(beta, C, hole_sides)

    if depth == len(hole_sides):
        if hole_sides == ():
            qb = Builder(spec, P)
            _eq_rewrite(qb, (), Compound(beta, C, u), "shallow case pad")
            cb = Builder(spec, Compound(beta, HOLE, u))
            _eq_rewrite(cb, (), HOLE, "shallow case close")
            return ContextReduction(u, cb.derivation(), qb.derivation())
        k = _delete(C, hole_sides)
        q = _pinned(spec, P, Compound(beta, subformula_at_sides(C, hole_sides), k))
        cb = Builder(spec, Compound(beta, HOLE, k))
        cb.acr((), s_hole)
        return ContextReduction(k, cb.derivation(), q)

    pi0 = hole_sides[:depth]
    enode = subformula_at_sides(C, pi0)
    delta = enode.rel
    side = hole_sides[depth]
    split = shallow_split(frag, P, pi0, recorder)
    host = split.q0 if side == "L" else split.q1
    if side == _ERASED.get(split.kind) or host is None:
        raise IrreducibleCase("hole under the erased side of a weakening")
    rec = context_reduce(frag, host, ("L",) + hole_sides[depth + 1 :], recorder)

    e0, e1 = enode.left, enode.right
    s_h = plug(ctx[depth + 1 :], HOLE)
    a0, a1 = (s_h, e1) if side == "L" else (e0, s_h)
    b = Builder(spec, rec.ctx)  # ends at (s_h beta k0), or (s_h beta k1) for side R
    if split.kind == "unitary":
        if delta != spec.dual(beta):
            raise IrreducibleCase("unitary context node is not the dual weak relation")
        _eq_rewrite(b, (), Compound(delta, b.current, nu), "unitary context rebuild")
        b.splice(("R",), split.q1 if side == "L" else split.q0)
    else:
        # a weakening re-expands the erased side
        b.rewrite(
            (), Compound(delta, Compound(beta, a0, split.k0), Compound(beta, a1, split.k1))
        )
    b.apply_scheme(
        (), Scheme.SPLIT_DOWN, dict(A=a0, B=split.k0, C=a1, D=split.k1), delta, beta
    )
    b.splice(("R",), split.d)
    _steer_units(spec, beta, u, b, s_hole, "context rebuild")
    return ContextReduction(rec.k, b.derivation(), rec.q)


# ---------------------------------------------------------------------------
# Elimination of splitting up-rules


def eliminate_up_step(
    frag: SplittableFragment, P: Derivation, recorder: Optional[list] = None
) -> Derivation:
    """Remove the up-rule step nearest the premise, per the admissibility
    theorem (context reduction, two layers of shallow splitting, and the
    reassembly derivation)."""
    spec = frag.spec
    i = first_up_index(frag, P)
    if i is None:
        return P
    sigma = P.steps[i]
    if sigma.rule.scheme is not Scheme.SPLIT_UP or sigma.rule.rule_id not in frag.up_rules:
        raise NotDownFragment(f"cannot eliminate step {sigma.rule.rule_id}")
    above = before_step(P, i)

    # a redex inside weakening junk is rewritten away without splitting
    for j, cstep in enumerate(sigma.context):
        r = spec.relation(cstep.rel)
        erased = (r.right_weakening and cstep.hole_side == "R") or (
            r.left_weakening and cstep.hole_side == "L"
        )
        if erased:
            prefix = sigma.sides[:j]
            gpost = subformula_at_sides(sigma.after, prefix)
            b = Builder(spec, above)
            b.rewrite(prefix, cstep.sibling)
            b.rewrite(prefix, gpost)
            b.splice((), after_step(P, i))
            return b.derivation()

    cr = context_reduce(frag, above, sigma.sides, recorder)
    gamma, alpha_t = sigma.rule.relations
    beta, _, nu = frag.weak_for(P.premise)
    if spec.dual(alpha_t) != beta:
        raise IrreducibleCase("up-rule over a relation without the weak dual")
    t_a = sigma.rule.binding("A")
    t_b = sigma.rule.binding("C")
    t_c = sigma.rule.binding("B")
    t_d = sigma.rule.binding("D")
    r_target = sigma.rule.conclusion

    split1 = shallow_split(frag, cr.q, ("L",), recorder)
    q1, q2, dp = split1.q0, split1.q1, split1.d
    k1f, k2f = split1.k0, split1.k1
    rel = spec.relation(gamma)
    b = Builder(spec, nu)

    if rel.right_weakening or rel.left_weakening:
        split2 = shallow_split(frag, q1, ("L",), recorder)
        split3 = shallow_split(frag, q2, ("L",), recorder)
        ka, kb = split2.k0, split2.k1
        kc, kd = split3.k0, split3.k1
        x1 = Compound(alpha_t, t_a, t_c)
        x2 = Compound(alpha_t, t_b, t_d)
        j1 = Compound(beta, ka, kc)
        j2 = Compound(beta, kb, kd)
        # the weakening keeps one side: prove it, then re-expand the other
        if rel.right_weakening:
            x, j, q_a, q_b = x1, j1, split2.q0, split3.q0
        else:
            x, j, q_a, q_b = x2, j2, split2.q1, split3.q1
        _eq_rewrite(b, (), Compound(alpha_t, nu, nu), "co-unit merge")
        b.splice(("L",), q_a)
        b.splice(("R",), q_b)
        b.apply_scheme(
            (), Scheme.SPLIT_DOWN,
            dict(A=x.left, B=j.left, C=x.right, D=j.right), alpha_t, beta,
        )
        b.rewrite((), Compound(gamma, Compound(beta, x1, j1), Compound(beta, x2, j2)))
        b.apply_scheme(
            (), Scheme.SPLIT_DOWN, dict(A=x1, B=j1, C=x2, D=j2), gamma, beta
        )
        b.apply_scheme(
            ("R",), Scheme.SPLIT_DOWN,
            dict(A=ka, B=kc, C=kb, D=kd), spec.dual(gamma), beta,
        )
        b.splice(("R", "L"), split2.d)
        b.splice(("R", "R"), split3.d)
        b.splice(("R",), dp)
    elif gamma == beta:
        nb = spec.dual(beta)
        split3 = shallow_split(frag, q2, ("L",), recorder)
        kc, kd = split3.k0, split3.k1
        _eq_rewrite(b, (), Compound(nb, nu, nu), "co-unit merge")
        _eq_rewrite(b, ("R",), Compound(nb, nu, nu), "co-unit merge")
        b.splice(("L",), q1)
        b.acr(("L",), Compound(beta, t_a, Compound(beta, t_b, k1f)))
        b.splice(("R", "L"), split3.q0)
        b.splice(("R", "R"), split3.q1)
        b.acr(
            (),
            Compound(
                nb,
                Compound(
                    nb,
                    Compound(beta, t_a, Compound(beta, t_b, k1f)),
                    Compound(beta, t_c, kc),
                ),
                Compound(beta, t_d, kd),
            ),
        )
        b.apply_scheme(
            ("L",), Scheme.SPLIT_DOWN,
            dict(A=t_a, B=Compound(beta, t_b, k1f), C=t_c, D=kc), nb, beta,
        )
        rest1 = Compound(beta, Compound(nb, t_a, t_c), Compound(beta, k1f, kc))
        b.apply_scheme(
            (), Scheme.SPLIT_DOWN, dict(A=t_b, B=rest1, C=t_d, D=kd), nb, beta
        )
        b.acr(
            (),
            Compound(
                beta, r_target, Compound(beta, k1f, Compound(beta, kc, kd))
            ),
        )
        b.splice(("R", "R"), split3.d)
        b.splice(("R",), dp)
    else:
        raise IrreducibleCase(f"unsupported up-rule relation {gamma}")

    b.acr((), Compound(beta, r_target, cr.k))
    b.splice((), instantiate_hole(spec, cr.ctx, r_target))
    b.splice((), after_step(P, i))
    return b.derivation()


def eliminate_all_up(
    frag: SplittableFragment, P: Derivation, recorder: Optional[list] = None
) -> Derivation:
    """Repeatedly remove the up-step nearest the premise."""
    while True:
        Q = eliminate_up_step(frag, P, recorder)
        if Q is P:
            return P
        P = Q
