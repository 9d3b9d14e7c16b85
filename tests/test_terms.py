import copy
import gc
import pickle
import random

import pytest

from medial import terms
from medial.r23 import make_r23_spec
from medial.system_p import make_p_spec
from medial.systems import spec_from_text
from medial.terms import (
    Compound,
    Constant,
    Cursor,
    Metavar,
    ParseError,
    PathMismatch,
    PathStep,
    Variable,
    ac_canonical,
    context_at,
    equal_mod_ac,
    join,
    negate,
    parse_formula,
    plug,
    print_formula,
    size,
    spine,
    subformula_at_sides,
    variables,
)

from helpers import P_TEXT, random_formula

spec = make_p_spec()
x, y, z = Variable("x"), Variable("y"), Variable("z")


def test_negate_constants_and_compounds():
    assert negate(spec, Constant("T")) == Constant("F")
    f = parse_formula("(x | y)")
    assert negate(spec, f) == parse_formula("(~x & ~y)")
    assert negate(spec, parse_formula("(x p0 y)")) == parse_formula("(~x p0 ~y)")


def test_negate_involution_random():
    rng = random.Random(0)
    for _ in range(200):
        f = random_formula(rng, 3)
        assert negate(spec, negate(spec, f)) == f


def test_negate_walks_deep_chains():
    # a 3,000-operand chain nests 3,000 levels deep, past the recursion limit
    f = parse_formula("(" + " | ".join(["x", "~x"] * 1500) + ")")
    g = negate(spec, f)
    assert spine(spec, g, "&") == [negate(spec, x), x] * 1500
    assert negate(spec, g) is f


def test_negation_is_ac_congruence_morphism():
    rng = random.Random(1)
    for _ in range(100):
        f = random_formula(rng, 3)
        g = ac_canonical(spec, f)
        assert equal_mod_ac(spec, negate(spec, f), negate(spec, g))


def test_plug_basics():
    assert plug((), x) == x
    ctx = (PathStep("|", "L", y),)
    assert plug(ctx, x) == Compound("|", x, y)
    ctx2 = (PathStep("&", "R", z),)
    assert plug(ctx + ctx2, x) == plug(ctx, plug(ctx2, x))


def test_subformula_at():
    f = Compound("|", x, y)
    assert Cursor(f).move((PathStep("|", "L", y),)) == x
    assert Cursor(f).move(()) == f
    with pytest.raises(PathMismatch):
        Cursor(f).move((PathStep("&", "L", y),))
    with pytest.raises(PathMismatch):
        Cursor(f).move((PathStep("|", "L", z),))


def test_plug_subformula_round_trip_random():
    rng = random.Random(2)
    for _ in range(200):
        f = random_formula(rng, 4)
        sides = []
        cur = f
        while isinstance(cur, Compound) and rng.random() < 0.7:
            side = rng.choice("LR")
            sides.append(side)
            cur = cur.left if side == "L" else cur.right
        ctx = context_at(f, sides)
        sub = Cursor(f).move(ctx)
        assert sub == subformula_at_sides(f, sides)
        assert plug(ctx, sub) == f


def _random_sides(rng, f):
    sides, cur = [], f
    while isinstance(cur, Compound) and rng.random() < 0.8:
        side = rng.choice("LR")
        sides.append(side)
        cur = cur.left if side == "L" else cur.right
    return sides


def test_cursor_moves_agree_with_plug_random():
    # a walk of rewrites through one cursor, against rebuilding the whole
    # formula from each step's context
    rng = random.Random(21)
    for _ in range(100):
        f = random_formula(rng, 5)
        cursor = Cursor(f)
        for _ in range(10):
            sides = _random_sides(rng, f)
            ctx = context_at(f, sides)
            if rng.random() < 0.5:
                assert cursor.move_sides(sides) is subformula_at_sides(f, sides)
                assert tuple(cursor.frames) == ctx
            else:
                assert cursor.move(ctx) is subformula_at_sides(f, sides)
            new = random_formula(rng, 2)
            assert cursor.rewrite(ctx, subformula_at_sides(f, sides), new) is None
            f = plug(ctx, new)
            assert cursor.formula() is f
        # a context f does not have: the cursor becomes that context's formula
        ctx = (PathStep("&", "L", Variable("q")),) + context_at(f, _random_sides(rng, f))
        assert cursor.rewrite(ctx, x, y) is f
        assert cursor.formula() is plug(ctx, y)


def test_cursor_mismatch_leaves_the_formula():
    f = parse_formula("((x | y) & z)")
    cursor = Cursor(f)
    with pytest.raises(PathMismatch, match="sibling mismatch at"):
        cursor.move((PathStep("&", "L", z), PathStep("|", "R", y)))
    with pytest.raises(PathMismatch, match="expected '&' node, found"):
        cursor.move((PathStep("&", "L", z), PathStep("&", "L", y)))
    with pytest.raises(PathMismatch, match="path descends below atom z"):
        cursor.move_sides("RL")
    assert cursor.formula() is f


def _reference_spine(f, rel):
    if isinstance(f, Compound) and f.rel == rel and spec.is_associative(rel):
        return _reference_spine(f.left, rel) + _reference_spine(f.right, rel)
    return [f]


def test_spine_walks_deep_chains_in_order():
    operands = [Variable(f"x{i}") for i in range(3000)]
    f = parse_formula("(" + " | ".join(map(str, operands)) + ")")
    assert spine(spec, f, "|") == operands
    assert spine(spec, f, "&") == [f]
    rng = random.Random(22)
    for _ in range(300):
        f = random_formula(rng, 5)
        for rel in ("&", "|", "p0", "p1"):
            assert spine(spec, f, rel) == _reference_spine(f, rel)


def test_ac_canonical_examples():
    assert ac_canonical(spec, parse_formula("((x | y) | z)")) == parse_formula(
        "(x | y | z)"
    )
    assert ac_canonical(spec, parse_formula("(y | x)")) == parse_formula("(x | y)")
    # projections flatten but never commute
    assert ac_canonical(spec, parse_formula("(x p0 y)")) == parse_formula("(x p0 y)")
    assert ac_canonical(spec, parse_formula("(y p0 x)")) == parse_formula("(y p0 x)")
    assert ac_canonical(spec, parse_formula("((x p0 y) p0 z)")) == parse_formula(
        "(x p0 y p0 z)"
    )


def test_ac_canonical_idempotent_random():
    rng = random.Random(3)
    for _ in range(200):
        f = random_formula(rng, 4)
        c = ac_canonical(spec, f)
        assert ac_canonical(spec, c) == c


def _nested_key(f):
    """The operand order as nested tuples, built by recursion."""
    if isinstance(f, Constant):
        return (0, f.name)
    if isinstance(f, Variable):
        return (1, f.name, f.negated)
    if isinstance(f, Metavar):
        return (2, f.name, f.negated)
    return (3, f.rel, _nested_key(f.left), _nested_key(f.right))


def test_operand_order_is_the_nested_order_without_recursion():
    # the flat keys order operands as the nested ones do, so every canonical
    # form stays the same; a 3,000-operand chain below a conjunction orders
    # without recursion
    rng = random.Random(31)
    fs = [random_formula(rng, 4) for _ in range(300)]
    fs += [Compound("|", Metavar(n, neg, "formula"), f)
           for n in "AB" for neg in (False, True) for f in fs[:10]]
    for _ in range(20_000):
        a, b = rng.choice(fs), rng.choice(fs)
        ka, kb = terms._sort_key(a), terms._sort_key(b)
        na, nb = _nested_key(a), _nested_key(b)
        assert (ka < kb, ka == kb) == (na < nb, na == nb)
    a = Variable("a")
    f = Compound("&", join("|", [x, y] * 1500), a)
    assert ac_canonical(spec, f) == Compound("&", a, join("|", [x] * 1500 + [y] * 1500))


def test_equal_mod_ac():
    assert equal_mod_ac(spec, parse_formula("(x | y)"), parse_formula("(y | x)"))
    assert not equal_mod_ac(spec, parse_formula("(x p0 y)"), parse_formula("(y p0 x)"))
    # associativity only: no idempotence collapse
    assert equal_mod_ac(
        spec, parse_formula("(x | (y | x))"), parse_formula("((x | y) | x)")
    )
    assert not equal_mod_ac(spec, parse_formula("(x | x)"), x)


# a descriptor whose relations commute but do not associate
COMMUTING = spec_from_text("""name: commuting
constants: T F
negation: T = F
negation: F = T
relation: c dual=d comm
relation: d dual=c comm
""")


def _formula_over(rng, rels, depth):
    if depth == 0 or rng.random() < 0.3:
        return Variable(rng.choice("xyz"), rng.random() < 0.3)
    return Compound(rng.choice(rels), _formula_over(rng, rels, depth - 1),
                    _formula_over(rng, rels, depth - 1))


def _bracketed(rng, rel, operands):
    if len(operands) == 1:
        return operands[0]
    cut = rng.randrange(1, len(operands))
    return Compound(rel, _bracketed(rng, rel, operands[:cut]), _bracketed(rng, rel, operands[cut:]))


def _ac_shuffled(own, rng, f, below):
    """f regrouped and reordered as own's flags allow, at the root, and
    below it when below is set."""
    if not isinstance(f, Compound):
        return f
    operands = spine(own, f, f.rel) if own.is_associative(f.rel) else [f.left, f.right]
    if below:
        operands = [_ac_shuffled(own, rng, o, below) for o in operands]
    if own.is_commutative(f.rel):
        rng.shuffle(operands)
    if own.is_associative(f.rel):
        return _bracketed(rng, f.rel, operands)
    return Compound(f.rel, *operands)


def _leaf_changed(rng, f):
    if not isinstance(f, Compound):
        return Variable(rng.choice("xyz"), rng.random() < 0.5)
    if rng.random() < 0.5:
        return Compound(f.rel, _leaf_changed(rng, f.left), f.right)
    return Compound(f.rel, f.left, _leaf_changed(rng, f.right))


@pytest.mark.parametrize("own", [spec, make_r23_spec(), COMMUTING], ids=["P", "R23", "commuting"])
def test_equal_mod_ac_agrees_with_canonical_forms(own):
    # every pair equal_mod_ac answers without canonicalising gets the verdict
    # the canonical forms give: AC-shuffled copies at the root and below it,
    # copies that differ below the root, the root's children swapped whatever
    # the flags, and unrelated formulas
    rng = random.Random(25)
    rels = sorted(own.relations)
    verdicts = []
    for _ in range(400):
        f = _formula_over(rng, rels, 4)
        shuffled = _ac_shuffled(own, rng, f, below=rng.random() < 0.5)
        swapped = Compound(f.rel, f.right, f.left) if isinstance(f, Compound) else f
        for g in (shuffled, _leaf_changed(rng, shuffled), swapped, _formula_over(rng, rels, 4)):
            verdict = equal_mod_ac(own, f, g)
            assert verdict == (ac_canonical(own, f) is ac_canonical(own, g))
            verdicts.append(verdict)
    assert 400 <= sum(verdicts) < len(verdicts) - 400


def test_parse_print_round_trip_random():
    rng = random.Random(4)
    for _ in range(300):
        f = random_formula(rng, 4)
        assert parse_formula(print_formula(f)) == f
        assert parse_formula(print_formula(f, spaces=False)) == f


def test_parse_chains_right_nest():
    assert parse_formula("(x | y | z)") == Compound("|", x, Compound("|", y, z))
    with pytest.raises(ParseError):
        parse_formula("(x | y & z)")
    with pytest.raises(ParseError):
        parse_formula("(x |")
    with pytest.raises(ParseError):
        parse_formula("~T")


def test_variables_and_size_walk_deep_formulas():
    # a 3,000-operand chain nests 3,000 levels deep, past the recursion limit
    f = parse_formula("(" + " | ".join(f"x{i}" for i in range(3000)) + ")")
    assert len(variables(f)) == 3000
    assert size(f) == 5999


def test_parse_atoms():
    assert parse_formula("~x") == Variable("x", True)
    assert parse_formula("T") == Constant("T")
    assert parse_formula("(x !> y)") == Compound("!>", x, y)
    assert parse_formula("(x np0 y)") == Compound("np0", x, y)


# ---------------------------------------------------------------------------
# Hash-consing: one live object per formula


def test_equal_formulas_are_one_object_random():
    rng = random.Random(6)
    formulas = [random_formula(rng, 4) for _ in range(300)]
    assert sum(isinstance(f, Compound) for f in formulas) > 150
    assert any(not isinstance(f, Compound) for f in formulas)
    for f in formulas:
        text = print_formula(f)
        assert parse_formula(text) is parse_formula(text) is f
        assert negate(spec, negate(spec, f)) is f
        c = ac_canonical(spec, f)
        assert ac_canonical(spec, c) is c
        sides, cur = [], f
        while isinstance(cur, Compound) and rng.random() < 0.7:
            side = rng.choice("LR")
            sides.append(side)
            cur = cur.left if side == "L" else cur.right
        assert plug(context_at(f, sides), subformula_at_sides(f, sides)) is f
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.deepcopy(f) is f


def test_interning_keeps_distinct_formulas_apart():
    assert Compound("|", x, y) is not Compound("|", y, x)
    assert Compound("|", x, y) != Compound("|", y, x)
    assert Compound("|", x, y) is not Compound("&", x, y)
    over_metavar = Compound("|", Metavar("X"), y)
    over_variable = Compound("|", Variable("X"), y)
    assert over_metavar is not over_variable
    assert over_metavar != over_variable
    assert Compound("|", Metavar("X", sort="literal"), y) is not over_metavar


def test_equal_atoms_are_one_object():
    nx = Variable("x", True)
    assert parse_formula("~x") is nx
    assert parse_formula("T") is Constant("T")
    assert parse_formula("~X", metavars=True) is Metavar("X", True)
    for atom in (x, nx, Constant("T"), Constant("F"), Metavar("X"),
                 Metavar("L", True, "literal")):
        assert negate(spec, negate(spec, atom)) is atom
        assert pickle.loads(pickle.dumps(atom)) is atom
        assert copy.deepcopy(atom) is atom
        assert copy.copy(atom) is atom
        assert hash(atom) == object.__hash__(atom)


def test_atom_negation_flag_is_normalised():
    assert Variable("x", 1) is Variable("x", True)
    assert Variable("x", 0) is x
    assert Variable("x", 1).negated is True
    assert repr(Variable("x", 1)) == "Variable(name='x', negated=True)"
    assert Metavar("X", 1) is Metavar("X", True)
    assert repr(Metavar("X", 1)) == "Metavar(name='X', negated=True, sort='formula')"
    assert repr(Constant("T")) == "Constant(name='T')"


def test_interning_keeps_distinct_atoms_apart():
    assert Metavar("X") is not Variable("X")
    assert Metavar("X") != Variable("X")
    assert Metavar("X") is not Metavar("X", sort="literal")
    assert Metavar("X") != Metavar("X", sort="literal")
    assert Constant("X") is not Variable("X") and Constant("X") is not Metavar("X")
    assert Variable("x", True) is not x
    assert len({Metavar("X"), Variable("X"), Constant("X"), Metavar("X", sort="literal"),
                Metavar("X", True)}) == 5


@pytest.mark.parametrize("atom", [Constant("T"), Variable("x", True), Metavar("X", sort="literal")],
                         ids=["constant", "variable", "metavar"])
def test_atom_is_immutable(atom):
    name = atom.name
    with pytest.raises(AttributeError):
        atom.name = "y"
    with pytest.raises(AttributeError):
        del atom.name
    with pytest.raises(AttributeError):
        atom.extra = 1
    assert atom.name == name


def test_compound_is_immutable():
    f = Compound("|", x, y)
    with pytest.raises(AttributeError):
        f.rel = "&"
    with pytest.raises(AttributeError):
        del f.left
    assert f.rel == "|" and Compound("|", x, y) is f


def test_intern_table_is_weak():
    gc.collect()
    start = len(terms._interned)
    rng = random.Random(7)
    kept = [random_formula(rng, 5) for _ in range(10_000)]
    assert len(terms._interned) > start
    del kept
    gc.collect()
    assert len(terms._interned) == start


def test_intern_table_forgets_atoms():
    gc.collect()
    start = len(terms._interned)
    kept = [Variable(f"fresh{i}", i % 2 == 1) for i in range(10_000)]
    kept += [Metavar(f"F{i}", sort="literal") for i in range(100)]
    kept += [Constant(f"C{i}") for i in range(100)]
    assert len(terms._interned) == start + 10_200
    assert Variable("fresh7", True) is kept[7]
    del kept
    gc.collect()
    assert len(terms._interned) == start


def test_ac_memo_holds_no_formula():
    # the canonical forms live on the formulas they were computed for, so
    # dropping the formulas frees the forms too, by reference counting
    rng = random.Random(12)
    names = ("memo_a", "memo_b", "memo_c")
    gc.collect()
    start = len(terms._interned)
    kept = [random_formula(rng, 5, names) for _ in range(10_000)]
    for f in kept:
        c = ac_canonical(spec, f)
        assert equal_mod_ac(spec, f, c) and equal_mod_ac(spec, c, f)
        assert ac_canonical(spec, f) is c
    assert len(terms._interned) > start
    del kept, f, c
    assert len(terms._interned) == start


def test_ac_memo_answers_each_spec_with_its_own_form():
    # the same relation symbol, associative in both specs, commutative in one
    flags = "relation: & dual=| assoc comm unit=T"
    assert flags in P_TEXT
    loose_text = P_TEXT.replace(flags, "relation: & dual=| assoc unit=T")
    loose = spec_from_text(loose_text)
    assert loose.is_associative("&") and not loose.is_commutative("&")
    f = parse_formula("((y & x) | (z & (y & x)))")
    for _ in range(3):
        assert ac_canonical(spec, f) is parse_formula("((x & y) | (x & y & z))")
        assert ac_canonical(loose, f) is parse_formula("((y & x) | (z & y & x))")
    # on shared nodes, alternating specs, each answer is the one a fresh
    # copy of that spec (nothing memoised for it yet) computes
    rng = random.Random(13)
    differ = 0
    for _ in range(60):
        g = random_formula(rng, 4)
        for _ in range(2):
            a = ac_canonical(spec, g)
            b = ac_canonical(loose, g)
            assert a is ac_canonical(spec_from_text(P_TEXT), g)
            assert b is ac_canonical(spec_from_text(loose_text), g)
        differ += a is not b
    assert differ > 0
