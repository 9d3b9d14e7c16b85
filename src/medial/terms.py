"""Formula terms, contexts, negation, and AC-canonical forms.

Formulas are immutable trees over constants, signed variables and binary
relation symbols.  Only associativity/commutativity of relations declared
by the governing system is ever normalised silently; every other equation
is an explicit derivation step.

Formulas are hash-consed, atoms included: each live formula exists as
exactly one object, so equality and hashing are by identity.  The intern
table is process-wide and weak: a formula leaves it when nothing else
holds it.  Building terms from several threads at once needs a lock
around construction; parallel work should use one process per worker.
`equal_mod_ac` canonicalises only what a spine test leaves: AC keeps the
root, and root spines holding the same operand objects (as a multiset under
A+C, in order under A alone, swapped under C alone) are equal.
"""

from __future__ import annotations

import operator
import weakref
from typing import Iterator, Sequence, Union


class TermError(Exception):
    pass


class PathMismatch(TermError):
    pass


class ParseError(TermError):
    pass


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a name of a frozen record."""


# key -> weak reference to the one live term with that key.  A compound's
# key is (rel, left, right); an atom's starts with its class, e.g.
# (Variable, name, negated), so it never equals a compound's.
# Process-wide; an entry goes when its term is freed.
_interned: dict = {}


class _InternRef(weakref.ref):
    """Weak reference from an intern table to its entry (a term here, a rule
    instance in `systems`), carrying its key, so that entries share one
    callback `_forget` (a closure each would add a collector-tracked object)."""

    __slots__ = ("key",)


def _forget(ref: _InternRef, table: dict = _interned) -> None:
    # the table is bound as a default so that a term freed while the
    # interpreter shuts down still finds it
    if table.get(ref.key) is ref:
        del table[ref.key]


class _Term:
    """Behaviour shared by the hash-consed terms: fields are read-only,
    pickling and copying go back through the constructor (and so return
    the live term), and equality and hashing are object identity."""

    __slots__ = ("__weakref__",)
    _fields: tuple = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an interned term")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an interned term")

    def __reduce__(self):
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__name__}({fields})"


def _refuse_assignment(self, name: str, *value) -> None:
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class _Record:
    """Base of the kernel's slotted records.  A record class names its
    fields (two or more), in its constructor's order, in `_fields`: its
    `__slots__`, less any slot kept outside its value.  It writes its own
    `__init__`, which sets them through their slot setters (`_setters`, in
    field order) or through `_Record.__init__`.  From `_fields` the base
    derives once per class, with no generated source, equality by value
    between records of one class, a `Name(field=value, ...)` repr and
    pickling through the constructor.  A frozen record (the default) hashes
    by its values and refuses to set or delete any name, raising
    FrozenInstanceError; one declared `frozen=False` is mutable and
    unhashable.  A method the class defines itself is kept."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, frozen: bool = True) -> None:
        super().__init_subclass__()
        fields, name = cls._fields, cls.__qualname__
        values = operator.attrgetter(*fields)  # a tuple, for two names or more
        cls._setters = tuple([getattr(cls, f).__set__ for f in fields])

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        def __repr__(self):
            pairs = ", ".join([f"{f}={v!r}" for f, v in zip(fields, values(self))])
            return f"{name}({pairs})"

        def __reduce__(self):
            return self.__class__, values(self)

        methods = dict(__eq__=__eq__, __hash__=__hash__ if frozen else None,
                       __repr__=__repr__, __reduce__=__reduce__)
        if frozen:
            methods.update(__setattr__=_refuse_assignment, __delattr__=_refuse_assignment)
        for attr, method in methods.items():
            if attr not in cls.__dict__:
                setattr(cls, attr, method)

    def __init__(self, *values) -> None:
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)


def _intern_atom(cls, key: tuple):
    """The live atom of class cls for key (cls, *fields), made on a miss."""
    ref = _interned.get(key)
    if ref is not None:
        atom = ref()
        if atom is not None:
            return atom
    atom = object.__new__(cls)
    for set_field, value in zip(cls._setters, key[1:]):
        set_field(atom, value)
    ref = _InternRef(atom, _forget)
    ref.key = key
    _interned[key] = ref
    return atom


class Constant(_Term):
    __slots__ = ("name",)
    _fields = ("name",)

    name: str

    def __new__(cls, name: str) -> Constant:
        return _intern_atom(cls, (cls, name))

    def __str__(self) -> str:
        return self.name


class Variable(_Term):
    __slots__ = ("name", "negated")
    _fields = ("name", "negated")

    name: str
    negated: bool

    def __new__(cls, name: str, negated: bool = False) -> Variable:
        return _intern_atom(cls, (cls, name, bool(negated)))

    def __str__(self) -> str:
        return "~" + self.name if self.negated else self.name


class Metavar(_Term):
    """Pattern-only placeholder (A, B, ...). Never occurs in real formulas."""

    __slots__ = ("name", "negated", "sort")
    _fields = ("name", "negated", "sort")

    name: str
    negated: bool
    sort: str  # formula | constant | literal

    def __new__(cls, name: str, negated: bool = False, sort: str = "formula") -> Metavar:
        return _intern_atom(cls, (cls, name, bool(negated), sort))

    def __str__(self) -> str:
        return "~" + self.name if self.negated else self.name


class Compound(_Term):
    """A binary node, hash-consed: constructing (rel, left, right) returns
    the live node with those fields when there is one, so equal compounds
    are one object.  It also carries the memo of `ac_canonical` (see
    there), which lives and dies with the node."""

    __slots__ = ("rel", "left", "right", "_ac_token", "_ac_form")
    _fields = ("rel", "left", "right")

    rel: str
    left: Formula
    right: Formula

    def __new__(cls, rel: str, left: Formula, right: Formula) -> Compound:
        # _intern_atom's steps, inlined: this is the kernel's hottest
        # constructor
        key = (rel, left, right)
        ref = _interned.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        _set_rel(node, rel)
        _set_left(node, left)
        _set_right(node, right)
        _set_ac_token(node, None)
        _set_ac_form(node, None)
        ref = _InternRef(node, _forget)
        ref.key = key
        _interned[key] = ref
        return node

    def __str__(self) -> str:
        return print_formula(self)


# slot setters: they bypass the raising __setattr__ and are faster than
# object.__setattr__
for _atom in (Constant, Variable, Metavar):
    _atom._setters = tuple([getattr(_atom, f).__set__ for f in _atom._fields])
del _atom
_set_rel = Compound.rel.__set__
_set_left = Compound.left.__set__
_set_right = Compound.right.__set__
_set_ac_token = Compound._ac_token.__set__
_set_ac_form = Compound._ac_form.__set__


Formula = Union[Constant, Variable, Metavar, Compound]


def is_atom(f: Formula) -> bool:
    return not isinstance(f, Compound)


def subterms(f: Formula) -> Iterator[Formula]:
    """f and its subterms in pre-order, left before right; the walk keeps
    its own stack, so a deep formula costs no recursion."""
    stack = [f]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Compound):
            stack += (t.right, t.left)


def variables(f: Formula) -> set[str]:
    """Names of the variables occurring in f (ignoring polarity)."""
    return {t.name for t in subterms(f) if isinstance(t, Variable)}


def size(f: Formula) -> int:
    return sum(1 for _ in subterms(f))


# ---------------------------------------------------------------------------
# Contexts


class PathStep(_Record):
    __slots__ = _fields = ("rel", "hole_side", "sibling")

    rel: str
    hole_side: str  # "L" | "R"
    sibling: Formula

    def __init__(self, rel: str, hole_side: str, sibling: Formula) -> None:
        _set_step_rel(self, rel)
        _set_hole_side(self, hole_side)
        _set_sibling(self, sibling)


# slot setters, as for Compound: faster than a call through _Record.__init__
_set_step_rel, _set_hole_side, _set_sibling = PathStep._setters


ContextPath = tuple  # tuple[PathStep, ...], outermost first


def plug(ctx: Sequence[PathStep], f: Formula) -> Formula:
    """Insert f at the hole described by ctx (outermost step first)."""
    out = f
    for step in reversed(tuple(ctx)):
        if step.hole_side == "L":
            out = Compound(step.rel, out, step.sibling)
        else:
            out = Compound(step.rel, step.sibling, out)
    return out


def context_at(f: Formula, sides: Sequence[str]) -> ContextPath:
    """Build the full context (with siblings) for a bare L/R path into f."""
    steps = []
    cur = f
    for side in sides:
        if not isinstance(cur, Compound):
            raise PathMismatch(f"path descends below atom {cur}")
        if side not in ("L", "R"):
            raise PathMismatch(f"bad path side {side!r}")
        steps.append(PathStep(cur.rel, side, cur.right if side == "L" else cur.left))
        cur = cur.left if side == "L" else cur.right
    return tuple(steps)


def subformula_at_sides(f: Formula, sides: Sequence[str]) -> Formula:
    cur = f
    for side in sides:
        if not isinstance(cur, Compound):
            raise PathMismatch(f"path descends below atom {cur}")
        cur = cur.left if side == "L" else cur.right
    return cur


class Cursor:
    """A formula as `frames`, the PathSteps from its root down to `focus`
    (Huet's zipper); a move rebuilds only the nodes below the frames it keeps."""

    __slots__ = ("frames", "focus")

    def __init__(self, focus: Formula):
        self.frames: list = []
        self.focus = focus

    def formula(self) -> Formula:
        return plug(self.frames, self.focus)

    def move(self, ctx: Sequence[PathStep]) -> Formula:
        """Focus ctx's hole and return the subterm there; below the frames
        equal to ctx's steps, each node must match ctx, else PathMismatch."""
        frames, depth = self.frames, 0
        for kept, step in zip(frames, ctx):
            if kept is not step and kept != step:
                break
            depth += 1
        cur = self.focus
        if depth < len(frames):  # climb back to the frames kept
            cur = self.focus = plug(frames[depth:], cur)
            del frames[depth:]
        for step in ctx[depth:]:
            if not isinstance(cur, Compound) or cur.rel != step.rel:
                raise PathMismatch(f"expected {step.rel!r} node, found {cur}")
            sibling, below = (cur.right, cur.left) if step.hole_side == "L" else (cur.left, cur.right)
            if sibling is not step.sibling:
                raise PathMismatch(f"sibling mismatch at {cur}")
            frames.append(step)
            cur = self.focus = below
        return cur

    def move_sides(self, sides: Sequence[str]) -> Formula:
        """Focus the subterm at an L/R path and return it."""
        frames, depth = self.frames, 0
        for kept, side in zip(frames, sides):
            if kept.hole_side != side:
                break
            depth += 1
        cur = self.focus = plug(frames[depth:], self.focus)
        del frames[depth:]
        for side in sides[depth:]:
            if not isinstance(cur, Compound):
                raise PathMismatch(f"path descends below atom {cur}")
            frames.append(PathStep(cur.rel, side, cur.right if side == "L" else cur.left))
            cur = self.focus = cur.left if side == "L" else cur.right
        return cur

    def rewrite(self, ctx: Sequence[PathStep], premise: Formula, conclusion: Formula):
        """Put conclusion for premise at ctx's hole and return None; where premise
        is not there, hold plug(ctx, conclusion) and return the formula it was."""
        try:
            if self.move(ctx) is premise:
                self.focus = conclusion
                return None
        except PathMismatch:
            pass
        was = self.formula()
        self.frames, self.focus = list(ctx), conclusion
        return was


# ---------------------------------------------------------------------------
# Spec-dependent operations.  `spec` is any object exposing
# negate_constant(name), dual(rel), is_associative(rel), is_commutative(rel)
# and an `ac_token` (see systems.SystemSpec).  `ac_canonical` memoises its
# result on the interned node, keyed by that token: one node is shared by
# every spec, and specs may declare the same relation symbol with different
# AC properties, so a memo answers only the spec whose token it holds.  The
# token is a bare object, so a node never keeps a spec alive.


def negate(spec, f: Formula) -> Formula:
    """Involutive negation: constants via the spec table, variables flip
    their polarity flag, compounds dualise the relation, left to right on a
    stack of their own, so a deep formula costs no recursion."""
    if isinstance(f, Constant):
        return Constant(spec.negate_constant(f.name))
    if isinstance(f, Variable):
        return Variable(f.name, not f.negated)
    if isinstance(f, Metavar):
        return Metavar(f.name, not f.negated, f.sort)
    todo, out = [f], []  # formulas to negate, and a node's dual after its operands
    while todo:
        t = todo.pop()
        if type(t) is str:  # both operands negated
            right = out.pop()
            out[-1] = Compound(t, out[-1], right)
        elif isinstance(t, Compound):
            todo += (spec.dual(t.rel), t.right, t.left)
        else:
            out.append(negate(spec, t))
    return out[0]


def spine(spec, f: Formula, rel: str) -> list[Formula]:
    """Maximal same-relation operand list of f for an associative rel (the
    singleton [f] when f is not a rel-compound), by a loop, not recursion."""
    if not (isinstance(f, Compound) and f.rel == rel and spec.is_associative(rel)):
        return [f]
    out, stack = [], [f]
    while stack:
        t = stack.pop()
        while isinstance(t, Compound) and t.rel == rel:
            stack.append(t.right)
            t = t.left
        out.append(t)
    return out


def join(rel: str, operands: Sequence[Formula]) -> Formula:
    """Right-nested rel-join of a nonempty operand list."""
    if not operands:
        raise TermError("empty join")
    out = operands[-1]
    for operand in reversed(operands[:-1]):
        out = Compound(rel, operand, out)
    return out


def _sort_key(f: Formula) -> tuple:
    """f's place in the fixed total order of AC operands.  A compound's key
    is one flat pre-order tuple, built on a stack of its own, of 3 and the
    relation for each compound and the key of each atom.  The encoding is
    prefix-free, so keys compare as the nested keys (3, rel, left's,
    right's) would."""
    if isinstance(f, Constant):
        return (0, f.name)
    if isinstance(f, Variable):
        return (1, f.name, f.negated)
    if isinstance(f, Metavar):
        return (2, f.name, f.negated)
    key, todo = [], [f]
    while todo:
        t = todo.pop()
        if isinstance(t, Compound):
            key += (3, t.rel)
            todo += (t.right, t.left)
        else:
            key += _sort_key(t)  # an atom: one call deep
    return tuple(key)


def ac_canonical(spec, f: Formula) -> Formula:
    """Canonical representative modulo the declared AC axioms only: flatten
    associative spines, sort operands of commutative relations under a fixed
    total order, rebuild right-nested.  The result is memoised on f for
    spec's token; a canonical f memoises None, not itself, so the memo
    forms no reference cycle."""
    if not isinstance(f, Compound):
        return f
    token = spec.ac_token
    if f._ac_token is token:
        out = f._ac_form
        return f if out is None else out
    if spec.is_associative(f.rel):
        elems = [ac_canonical(spec, e) for e in spine(spec, f, f.rel)]
        if spec.is_commutative(f.rel):
            elems.sort(key=_sort_key)
        out = join(f.rel, elems)
    else:
        left = ac_canonical(spec, f.left)
        right = ac_canonical(spec, f.right)
        if spec.is_commutative(f.rel) and _sort_key(right) < _sort_key(left):
            left, right = right, left
        out = Compound(f.rel, left, right)
    _set_ac_token(f, token)
    _set_ac_form(f, None if out is f else out)
    return out


def equal_mod_ac(spec, f: Formula, g: Formula) -> bool:
    """Equal modulo AC: by the spine test where it answers, else by canonical forms."""
    if f is g:
        return True
    if not (isinstance(f, Compound) and isinstance(g, Compound)) or f.rel != g.rel:
        return False
    if spec.is_associative(f.rel):
        fs, gs = spine(spec, f, f.rel), spine(spec, g, f.rel)
        if fs == gs or spec.is_commutative(f.rel) and sorted(fs, key=id) == sorted(gs, key=id):
            return True
    elif spec.is_commutative(f.rel) and f.left is g.right and f.right is g.left:
        return True
    return ac_canonical(spec, f) is ac_canonical(spec, g)


# ---------------------------------------------------------------------------
# Parsing / printing
#
# formula := atom | "(" formula (REL formula)+ ")"
# atom    := CONST | VAR | "~" VAR        (constants start uppercase)
# Chains "(x | y | z)" are right-nested.  The printer collapses right-nested
# spines back into chains, so print/parse round-trips are tree-exact.

_SYMBOL_RELS = ("->", "<-", "!>", "!<", "&", "|")


def _tokenize(text: str) -> list[str]:
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()~":
            toks.append(c)
            i += 1
            continue
        two = text[i : i + 2]
        if two in ("->", "<-", "!>", "!<"):
            toks.append(two)
            i += 2
            continue
        if c in "&|":
            toks.append(c)
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            toks.append(text[i:j])
            i = j
            continue
        raise ParseError(f"unexpected character {c!r} at offset {i}")
    return toks


def _is_rel_token(tok: str) -> bool:
    if tok in _SYMBOL_RELS:
        return True
    # identifier-shaped relation names (p0, p1, np0, np1, ...)
    return tok[0].isalpha() and tok not in ("(", ")", "~")


class _Parser:
    def __init__(self, toks: list[str], metavars: bool):
        self.toks = toks
        self.pos = 0
        self.metavars = metavars

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of input")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def formula(self) -> Formula:
        tok = self.take()
        if tok == "(":
            first = self.formula()
            rel = self.take()
            if not _is_rel_token(rel):
                raise ParseError(f"expected relation, found {rel!r}")
            operands = [first, self.formula()]
            while self.peek() != ")":
                nxt = self.take()
                if nxt != rel:
                    raise ParseError(
                        f"mixed relations {rel!r}/{nxt!r} need explicit parentheses"
                    )
                operands.append(self.formula())
            self.take()  # ")"
            return join(rel, operands)
        if tok == "~":
            name = self.take()
            return self.atom(name, negated=True)
        return self.atom(tok, negated=False)

    def atom(self, name: str, negated: bool) -> Formula:
        if not (name[0].isalpha() or name[0] == "_"):
            raise ParseError(f"bad atom {name!r}")
        if name[0].isupper():
            if self.metavars and name not in ("T", "F"):
                return Metavar(name, negated)
            if negated:
                raise ParseError(f"constants take no ~: {name}")
            return Constant(name)
        return Variable(name, negated)


def parse_formula(text: str, metavars: bool = False) -> Formula:
    """Parse the textual grammar; with metavars=True uppercase names (other
    than T/F) parse as pattern metavariables."""
    parser = _Parser(_tokenize(text), metavars)
    try:
        f = parser.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    if parser.peek() is not None:
        raise ParseError(f"trailing input at token {parser.peek()!r}")
    return f


def print_formula(f: Formula, spaces: bool = True) -> str:
    return print_memo(f, spaces, {})


def print_memo(g: Formula, spaces: bool, memo: dict) -> str:
    """print_formula, remembering the text of every compound it prints in
    memo (node -> text).  Nodes are interned, so a caller printing many
    formulas that share subterms can pass one memo per spaces mode and
    print each node once."""
    if not isinstance(g, Compound):
        return str(g)
    text = memo.get(g)
    if text is not None:
        return text
    rel = g.rel
    operands = [g.left]
    cur = g.right
    while isinstance(cur, Compound) and cur.rel == rel:
        operands.append(cur.left)
        cur = cur.right
    operands.append(cur)
    # identifier-shaped relations always need separating whitespace
    sep = " " if (spaces or rel[0].isalnum()) else ""
    text = "(" + (sep + rel + sep).join([print_memo(o, spaces, memo) for o in operands]) + ")"
    memo[g] = text
    return text
