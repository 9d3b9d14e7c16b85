"""Derivations: checkable step sequences from a premise to a conclusion.

Each step carries its full plugging context (path with siblings), so its
before/after formulas follow from the step alone.  Steps and derivations,
like rule instances and path steps, are slotted frozen records built
through their slot setters.  The checker threads the running formula
through the derivation and accepts only exact threading: each step's
premise is the running formula's subterm at its context, and the last
step leaves the conclusion itself.  AC is judged in one place, inside an
explicit `acr` step; every other equality must be an explicit equational
step.  `exactify` is the one way to turn steps joined only modulo AC into
a derivation `check` accepts: it inserts the `acr` steps.
`check`, `exactify` and `from_text` hold the running formula in one
`terms.Cursor`, so a step rebuilds only what lies between its hole and the
last one.  `check` judges every medial and equational step from what it
declares, once per distinct instance (`systems.check_rule_instance`).  It
threads each run of steps that a `Rope` places once, on a cursor of its
own, and each later placement of the same run is one rewrite between the
run's two ends.  That is exactly as strong as walking every flat step: a
rule reads no context and applies at any path, and a step inside a hole
leaves the formula outside it unchanged, so a run threads in a context
exactly when it threads alone from the subterm there.  `converse` runs an
equational or acr step backwards, optionally between negations;
`reverse_equational` and `dualize` reverse whole derivations.

Derivations compose one way, through `Builder`, which copies no step: it
starts at a formula or continues a derivation, `splice` runs a derivation
in the subterm at a path (at the root, one after another; below it, deep
applicability), and `derivation(target)` closes with an `acr` step onto an
AC-equal target.  Steps it places by reference make its result a `Rope`.
"""

from __future__ import annotations

import re
from array import array
from typing import Callable, Optional, Sequence

from .systems import (
    RuleInstance,
    Scheme,
    SortViolation,
    SystemError,
    SystemSpec,
    _set_cost_memo,
    ac_instance,
    check_rule_instance,
    eq_instance,
    eq_step_for,
    instantiate_rule,
    undeclared_symbol,
)
from .terms import (
    Compound,
    Constant,
    ContextPath,
    Cursor,
    Formula,
    ParseError,
    PathMismatch,
    PathStep,
    Variable,
    _Record,
    context_at,
    equal_mod_ac,
    negate,
    parse_formula,
    plug,
    print_formula,
    print_memo,
    spine,
    subformula_at_sides,
)


class DerivationError(SystemError):
    pass


class JointMismatch(DerivationError):
    pass


class NoSplittableFragment(DerivationError):
    pass


class NonEquationalStep(DerivationError):
    pass


class Step(_Record):
    __slots__ = _fields = ("context", "rule")

    context: ContextPath
    rule: RuleInstance

    def __init__(self, context: ContextPath, rule: RuleInstance) -> None:
        _set_context(self, context)
        _set_rule(self, rule)

    @property
    def before(self) -> Formula:
        return plug(self.context, self.rule.premise)

    @property
    def after(self) -> Formula:
        return plug(self.context, self.rule.conclusion)

    @property
    def sides(self) -> tuple:
        return tuple(p.hole_side for p in self.context)


class Rope:
    """Steps as parts, each a Step or (context, steps) placing a tuple or Rope
    in context (Boehm, Atkinson & Plass, "Ropes", SPE 1995); flat once read."""

    def __init__(self, parts: tuple):
        self.parts, self._flat = parts, None
        self._len = len(parts) + sum([len(p[1]) - 1 for p in parts if type(p) is tuple])

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        return self._steps()[i]

    def __iter__(self):
        return iter(self._steps())

    def _steps(self) -> tuple:
        if self._flat is None:
            self._flat = tuple([s if c is s.context else Step(c, s.rule) for c, s in placed(self)])
        return self._flat

    def __eq__(self, other) -> bool:
        return self[:] == (other[:] if type(other) is Rope else other)

    def __hash__(self) -> int:
        return hash(self[:])

    def __repr__(self) -> str:
        # sizes only: a shared proof's flat steps can run to millions
        return f"Rope({self._len} steps in {len(self.parts)} parts)"


def placed(steps):
    """(context, step) per step, context in full, building no Step; a read Rope walks flat."""
    stack = [((), iter(getattr(steps, "_flat", None) or getattr(steps, "parts", steps)))]
    while stack:
        outer, items = stack[-1]
        for item in items:
            if type(item) is tuple:  # (context, steps) placed below outer
                stack.append((outer + item[0], iter(getattr(item[1], "parts", item[1]))))
                break
            yield outer + item.context, item
        else:
            stack.pop()


class Derivation(_Record):
    _fields = ("premise", "steps", "conclusion")
    __slots__ = _fields + ("__weakref__",)

    premise: Formula
    steps: Sequence  # a tuple of Steps, or a Rope
    conclusion: Formula

    def __init__(self, premise: Formula, steps: Sequence, conclusion: Formula) -> None:
        _set_premise(self, premise)
        _set_steps(self, steps)
        _set_conclusion(self, conclusion)

    def __len__(self) -> int:
        return len(self.steps)


# slot setters, as in terms: faster than a call through _Record.__init__
_set_context, _set_rule = Step._setters
_set_premise, _set_steps, _set_conclusion = Derivation._setters


def identity(f: Formula) -> Derivation:
    return Derivation(f, (), f)


def before_step(d: Derivation, i: int) -> Derivation:
    """d's steps before step i, up to where step i starts."""
    return Derivation(d.premise, d.steps[:i], d.steps[i].before)


def after_step(d: Derivation, i: int) -> Derivation:
    """d's steps after step i, from where step i ends."""
    return Derivation(d.steps[i].after, d.steps[i + 1 :], d.conclusion)


class CheckFailure(_Record):
    __slots__ = _fields = ("step_index", "reason")

    step_index: int
    reason: str

    def __init__(self, step_index: int, reason: str) -> None:
        super().__init__(step_index, reason)

    def __str__(self) -> str:
        return f"step {self.step_index}: {self.reason}"


_UNJUDGED = object()  # a verdict-table miss; a verdict is a reason or None
_BROKEN = "ThreadBroken: step premise does not match"


def check(spec: SystemSpec, d: Derivation) -> Optional[CheckFailure]:
    """None when d is valid for spec; otherwise the first failure, at its
    index among the flat steps.  Each joint must hold exactly, and each
    distinct rule instance is judged once.

    A `Rope` is walked part by part, on a stack like `placed`'s.  A placed
    run of steps (the steps of a (context, steps) part) is threaded the
    first time it is met, on a cursor of its own from the subterm at its
    context, and its two ends are kept; a later placement of the same run
    is one rewrite between them.  This is exactly as strong as the flat
    walk: rules read no context and apply at any path, and a step inside a
    hole leaves everything outside it unchanged, so a run threads in a
    context exactly when it threads alone.  Its first step fixes the
    subterm it starts from, so where a placement finds another one, the
    flat walk fails at that placement's first step too; and an empty run
    is skipped, as the flat walk skips it."""
    reason = undeclared_symbol(spec, d.premise)
    if reason is not None:
        return CheckFailure(-1, f"{reason} in premise")
    verdicts: dict = {}  # RuleInstance -> reason or None
    threaded: dict = {}  # id(run) -> (premise, conclusion) it threads
    i, root = 0, Cursor(d.premise)
    stack = [(root, iter(getattr(d.steps, "parts", d.steps)), None, None)]
    while stack:
        cursor, items, run, start = stack[-1]
        for item in items:
            if type(item) is not tuple:
                rule = item.rule
                if cursor.rewrite(item.context, rule.premise, rule.conclusion) is not None:
                    return CheckFailure(i, _BROKEN)
                reason = verdicts.get(rule, _UNJUDGED)
                if reason is _UNJUDGED:
                    reason = verdicts[rule] = check_rule_instance(spec, rule)
                if reason is not None:
                    return CheckFailure(i, reason)
                i += 1
                continue
            ctx, steps = item  # (context, steps) placed in cursor's formula
            if not steps:
                continue
            ends = threaded.get(id(steps))
            if ends is not None:
                if cursor.rewrite(ctx, *ends) is not None:
                    return CheckFailure(i, _BROKEN)
                i += len(steps)
                continue
            try:
                sub = cursor.move(ctx)
            except PathMismatch:
                return CheckFailure(i, _BROKEN)
            stack.append((Cursor(sub), iter(getattr(steps, "parts", steps)), steps, sub))
            break
        else:
            stack.pop()
            if run is not None:  # threaded alone: put its end in its context
                end = cursor.formula()
                threaded[id(run)] = (start, end)
                stack[-1][0].focus = end
    if root.formula() is not d.conclusion:
        return CheckFailure(len(d.steps), "ThreadBroken: conclusion mismatch")
    return None


# ---------------------------------------------------------------------------
# Length measure


def _is_weak_axiom_step(spec: SystemSpec, prem: Formula, conc: Formula) -> bool:
    """Does the local rewrite instantiate one of the free axioms (unit,
    constant- or variable-annihilation) of a weak relation?  AC keeps the
    root relation, so a formula AC-equal to a beta node is one: each test
    that canonicalises first checks the roots."""
    for beta, unit, co_unit in spec.weak_units:
        u = Constant(unit)
        nu = Constant(co_unit)
        for big, small in ((prem, conc), (conc, prem)):
            if not (isinstance(big, Compound) and big.rel == beta):
                continue
            # (small beta u) has u among its elements, so big must have it
            if spec.is_associative(beta):
                elements = spine(spec, big, beta)
            else:
                elements = (big.left, big.right)
            if u in elements and equal_mod_ac(spec, big, Compound(beta, small, u)):
                return True
            if (
                small == nu
                and isinstance(big.left, (Constant, Variable))
                and negate(spec, big.left) == big.right
            ):
                return True
    return False


def step_cost(spec: SystemSpec, step: Step) -> int:
    rule = step.rule
    if rule.scheme is Scheme.AC:
        return 0
    if rule.scheme.is_medial:
        return 1
    return 0 if _is_weak_axiom_step(spec, rule.premise, rule.conclusion) else 1


def steps_length(spec: SystemSpec, steps) -> int:
    """The summed step_cost of steps.  Each rule instance is costed once
    per spec: its cost is kept on it, under spec.ac_token."""
    token, total = spec.ac_token, 0
    for step in steps:
        memo = step.rule.cost_memo
        if memo is None or memo[0] is not token:
            memo = (token, step_cost(spec, step))
            _set_cost_memo(step.rule, memo)
        total += memo[1]
    return total


def length(spec: SystemSpec, d: Derivation) -> int:
    """Counts the steps that grow a derivation: medial steps, plus every
    equational step not instantiating a weak relation's free axioms."""
    if not spec.weak_units:
        raise NoSplittableFragment(f"system {spec.name} has no weak relation with a unit")
    return steps_length(spec, d.steps)


# ---------------------------------------------------------------------------
# Exact joints and converses


def exactify(spec: SystemSpec, d: Derivation) -> Derivation:
    """Insert AC rearrangement steps so consecutive formulas agree exactly,
    as `check` and the line-oriented file format require."""
    steps: list[Step] = []
    cursor = Cursor(d.premise)
    for step in d.steps:
        was = cursor.rewrite(step.context, step.rule.premise, step.rule.conclusion)
        if was is not None:
            before = step.before
            if not equal_mod_ac(spec, before, was):
                raise JointMismatch("derivation thread broken beyond AC")
            steps.append(Step((), ac_instance(spec, was, before)))
        steps.append(step)
    cur = cursor.formula()
    if cur != d.conclusion:
        if not equal_mod_ac(spec, cur, d.conclusion):
            raise JointMismatch("conclusion differs beyond AC")
        steps.append(Step((), ac_instance(spec, cur, d.conclusion)))
    return Derivation(d.premise, tuple(steps), d.conclusion)


def converse(spec: SystemSpec, rule: RuleInstance, negated: bool = False) -> RuleInstance:
    """An equational or acr step run backwards, conclusion -> premise; with
    negated, between the negations of its two formulas (an instance of the
    negated axiom, the congruence being closed under negation)."""
    if rule.scheme is Scheme.AC:
        pre, con = rule.conclusion, rule.premise
        if negated:
            pre, con = negate(spec, pre), negate(spec, con)
        return ac_instance(spec, pre, con)
    if rule.scheme is not Scheme.EQ:
        raise NonEquationalStep(f"cannot run {rule.rule_id} backwards")
    return eq_instance(
        spec,
        rule.axiom_id,
        dict(rule.bindings),
        rule.negated != negated,
        "bwd" if rule.direction == "fwd" else "fwd",
    )


def _backwards(spec: SystemSpec, d: Derivation, negated: bool) -> Derivation:
    """d's steps in reverse order, each run backwards by converse."""
    steps = []
    for step in reversed(d.steps):
        ctx = step.context
        if negated:
            ctx = tuple(
                PathStep(spec.dual(p.rel), p.hole_side, negate(spec, p.sibling))
                for p in ctx
            )
        steps.append(Step(ctx, converse(spec, step.rule, negated)))
    premise, conclusion = (negate(spec, f) if negated else f for f in (d.conclusion, d.premise))
    return Derivation(premise, tuple(steps), conclusion)


def reverse_equational(spec: SystemSpec, d: Derivation) -> Derivation:
    """Run an equational derivation backwards (the congruence is symmetric)."""
    return _backwards(spec, d, negated=False)


def dualize(spec: SystemSpec, d: Derivation) -> Derivation:
    """Negate every formula and flip the derivation upside down.  Defined
    for purely equational derivations."""
    return _backwards(spec, d, negated=True)


# ---------------------------------------------------------------------------
# Builder: the one way to compose derivations, exactly threaded, bridging AC


class Builder:
    """Composes derivations: starts at a formula, or continues a derivation
    by adopting its steps, and threads each step exactly onto the last."""

    def __init__(self, spec: SystemSpec, start: Formula | Derivation):
        self.spec, self.parts, self.roped = spec, [], False  # parts as in a Rope
        self.start = self.current = start
        if isinstance(start, Derivation):
            self.start, self.current = start.premise, start.conclusion
            self.roped = type(start.steps) is Rope
            self.parts = [((), start.steps)] if self.roped else list(start.steps)

    def acr(self, sides: Sequence[str], target: Formula) -> None:
        """Rearrange the subterm at sides into target; no step when it
        already is target, JointMismatch when the two are AC-distinct."""
        self._append(sides, target, (), target)

    def apply(self, sides: Sequence[str], rule: RuleInstance) -> None:
        self._append(sides, rule.premise, rule, rule.conclusion)

    def apply_eq(self, sides, axiom_id, bindings, negated=False, direction="fwd"):
        self.apply(sides, eq_instance(self.spec, axiom_id, bindings, negated, direction))

    def apply_scheme(self, sides, scheme: Scheme, bindings, alpha: str, beta: str):
        self.apply(sides, instantiate_rule(self.spec, scheme, bindings, alpha, beta))

    def rewrite(self, sides: Sequence[str], target: Formula) -> None:
        """One equational step from the subterm at sides to target, found
        among the declared axioms (AC bridged on both ends)."""
        sub = subformula_at_sides(self.current, sides)
        inst = eq_step_for(self.spec, sub, target)
        if inst is None:
            raise DerivationError(
                f"no one-step equation {print_formula(sub)} -> {print_formula(target)}"
            )
        self.apply(sides, inst)
        self.acr(sides, target)

    def splice(self, sides: Sequence[str], d: Derivation) -> None:
        """Run a whole derivation inside the subterm at sides; its steps
        are placed there as they are."""
        self._append(sides, d.premise, d.steps, d.conclusion)

    def _append(self, sides, premise: Formula, run, conclusion: Formula) -> None:
        """Run the subterm at sides from premise to conclusion by run, a rule
        or a derivation's steps, after an acr step onto premise where it is
        needed.  The context at sides is read once: the run is placed in
        it, and the running formula is rebuilt from it."""
        sub = subformula_at_sides(self.current, sides)
        if sub is premise and not run:
            return
        ctx = context_at(self.current, sides)
        if sub is not premise:
            try:
                rule = ac_instance(self.spec, sub, premise)
            except SystemError:
                msg = f"cannot join {print_formula(sub)} with {print_formula(premise)}"
                raise JointMismatch(msg) from None
            self.parts.append(Step(ctx, rule))
        if isinstance(run, RuleInstance):
            self.parts.append(Step(ctx, run))
        elif type(run) is Rope or ctx and run:  # placed by reference
            self.parts.append((ctx, run))
            self.roped = True
        else:  # a tuple's steps at the root, as they are
            self.parts.extend(run)
        self.current = plug(ctx, conclusion)

    def derivation(self, conclusion: Optional[Formula] = None) -> Derivation:
        """The derivation built so far; given a conclusion, closed by an acr
        step onto it unless the built formula already is that conclusion."""
        if conclusion is not None:
            self.acr((), conclusion)
        steps = Rope(tuple(self.parts)) if self.roped else tuple(self.parts)
        return Derivation(self.start, steps, self.current)


# ---------------------------------------------------------------------------
# Serialization (line-oriented, tree-exact round trip)


def to_text(spec: SystemSpec, d: Derivation) -> str:
    """d as a derivation file; d threads exactly, as `check` requires."""
    # one memo per spaces mode: formulas print with spaces, bindings without
    spaced: dict = {}
    tight: dict = {}
    lines = [f"system: {spec.name}", f"premise: {print_memo(d.premise, True, spaced)}"]
    for ctx, step in placed(d.steps):
        rule = step.rule
        parts = [f"rule={rule.rule_id}"]
        if rule.scheme is Scheme.EQ:
            parts.append(f"dir={rule.direction}")
        path = "".join([p.hole_side for p in ctx])
        parts.append(f"path={path or '-'}")
        for name, value in rule.bindings:
            parts.append(f"{name}={print_memo(value, False, tight)}")
        if rule.relations is not None:
            parts.append(f"rel={rule.relations[0]},{rule.relations[1]}")
        lines.append("step: " + " ".join(parts))
    lines.append(f"conclusion: {print_memo(d.conclusion, True, spaced)}")
    return "\n".join(lines) + "\n"


# a field name at the start of the line or after whitespace, then "="
_FIELD = re.compile(r"(?:(?<=\s)|^)([A-Za-z_]\w*)=")


def _parse_fields(raw: str) -> dict:
    """key=value pairs; values are formulas and may contain spaces."""
    hits = list(_FIELD.finditer(raw))
    fields = {}
    for i, hit in enumerate(hits):
        end = hits[i + 1].start() if i + 1 < len(hits) else len(raw)
        fields[hit.group(1)] = raw[hit.end() : end].strip()
    return fields


def _require(fields: dict, names, raw: str) -> None:
    missing = sorted(set(names) - set(fields))
    if missing:
        raise ParseError(f"step line lacks {', '.join(missing)}: {raw}")


def _bind_exactly(bindings: dict, names, rule_id: str, raw: str) -> None:
    """The step binds every name its rule takes, and nothing else."""
    _require(bindings, names, raw)
    extra = sorted(set(bindings) - set(names))
    if extra:
        raise ParseError(f"rule {rule_id} takes no binding {', '.join(extra)}: {raw}")


def parse_sides(path: str) -> tuple:
    """An L/R path as written in a file or on the command line; - is the root."""
    if path != "-" and (not path or set(path) - {"L", "R"}):
        raise ParseError(f"bad path {path!r}: give L/R letters, or - for the root")
    return () if path == "-" else tuple(path)


def from_text(text: str, resolve_system: Callable[[str], SystemSpec]):
    """Parse a derivation file; returns (spec, derivation).  A file with an
    unknown section, or without its system, premise or conclusion line or
    with one twice, and a step line that names an unknown axiom or rule,
    lacks its rule, path or a binding the rule needs, has a path letter
    other than L/R, gives a field (dir, rel) or binds a name the rule does
    not take, or binds a metavariable outside its sort, raise ParseError."""
    spec: Optional[SystemSpec] = None
    premise: Optional[Formula] = None
    conclusion: Optional[Formula] = None
    raw_steps: list[str] = []
    step_lines = array("I")  # the line number of each step line, compactly
    seen: set = set()  # the sections read so far; only step lines repeat
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key in seen:
            raise ParseError(f"line {lineno}: repeated section {key!r}: {line}")
        if key != "step":
            seen.add(key)
        if key == "system":
            spec = resolve_system(rest)
        elif key == "premise":
            premise = parse_formula(rest)
        elif key == "conclusion":
            conclusion, conclusion_line = parse_formula(rest), lineno
        elif key == "step":
            raw_steps.append(rest)
            step_lines.append(lineno)
        else:
            raise ParseError(f"line {lineno}: unknown section {key!r}: {line}")
    if spec is None or premise is None or conclusion is None:
        raise ParseError("derivation file needs system, premise and conclusion lines")
    cursor = Cursor(premise)
    steps = []
    parsed: dict = {}  # binding text -> formula; bindings recur from step to step
    for raw in raw_steps:
        fields = _parse_fields(raw)
        _require(fields, ("rule", "path"), raw)
        rule_id = fields.pop("rule")
        try:
            sides = parse_sides(fields.pop("path"))
        except ParseError as e:
            raise ParseError(f"{e}: {raw}") from None
        is_eq = rule_id.startswith("eq:")
        is_medial = rule_id != "acr" and not is_eq
        if is_medial and rule_id not in spec.rules_by_id:
            raise ParseError(f"unknown rule id {rule_id!r}: {raw}")
        # only equational steps take a direction, only medial ones a relation pair
        for name, takes in (("dir", is_eq), ("rel", is_medial)):
            if name in fields and not takes:
                raise ParseError(f"rule {rule_id} takes no field {name}: {raw}")
        direction = fields.pop("dir", "fwd")
        if direction not in ("fwd", "bwd"):
            raise ParseError(f"bad direction {direction!r}: {raw}")
        rel = fields.pop("rel", None)
        bindings = {}
        for name, text in fields.items():
            value = parsed.get(text)
            if value is None:
                value = parsed[text] = parse_formula(text)
            bindings[name] = value
        if rule_id == "acr":
            _bind_exactly(bindings, "AB", rule_id, raw)
            rule = ac_instance(spec, bindings["A"], bindings["B"])
        elif is_eq:
            axiom_id = rule_id[3:]
            negated = axiom_id.endswith(":n")
            if negated:
                axiom_id = axiom_id[:-2]
            oriented = spec.oriented_axioms.get((axiom_id, negated, direction))
            if oriented is None:
                raise ParseError(f"unknown axiom {axiom_id!r}: {raw}")
            _bind_exactly(bindings, oriented.metavars, rule_id, raw)
            try:
                rule = oriented.instance(spec, bindings)
            except SortViolation as e:
                raise ParseError(f"{e}: {raw}") from None
        else:
            decl = spec.rules_by_id[rule_id]
            if rel is not None and tuple(rel.split(",")) != (decl.alpha, decl.beta):
                raise ParseError(f"rule {rule_id} disagrees with rel={rel}: {raw}")
            _bind_exactly(bindings, "ABCD", rule_id, raw)
            rule = instantiate_rule(spec, decl.scheme, bindings, decl.alpha, decl.beta)
        sub = cursor.move_sides(sides)
        if sub is not rule.premise:
            k = len(steps)
            raise DerivationError(
                f"line {step_lines[k]}, step {k}: file not exactly threaded at rule "
                f"{rule_id}: {print_formula(sub)} vs {print_formula(rule.premise)}"
            )
        steps.append(Step(tuple(cursor.frames), rule))
        cursor.focus = rule.conclusion
    if cursor.formula() != conclusion:
        raise DerivationError(
            f"line {conclusion_line}, step {len(steps)}: "
            "conclusion line does not match the threaded result"
        )
    return spec, Derivation(premise, tuple(steps), conclusion)
