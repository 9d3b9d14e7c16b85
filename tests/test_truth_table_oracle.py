"""A semantic oracle for the syntactic checker: in every derivation that
`check` accepts, each step's formula before entails its formula after
under the truth tables of P (`system_p.evaluate`).  It shares nothing with
the rule constructors that both emit and check the steps."""

import random

from medial.derivations import Builder, check
from medial.splitting import eliminate_all_up, make_fragment
from medial.system_p import all_valuations, evaluate, make_p_spec
from medial.systems import spec_from_text, spec_to_text
from medial.terms import Compound, Constant, Variable, variables

from helpers import injected_corpus

spec = make_p_spec()
T = Constant("T")


def _unsound_steps(d) -> list:
    """Indices of the steps of d whose before does not entail their after.
    A step's after is usually the next step's before, the same interned
    formula, so each formula is evaluated once per valuation."""
    names = set(variables(d.premise))
    for step in d.steps:
        names |= variables(step.rule.conclusion)
    valuations = list(all_valuations(sorted(names)))
    memo = {}

    def table(f):
        row = memo.get(f)
        if row is None:
            row = memo[f] = tuple(evaluate(f, v) for v in valuations)
        return row

    return [
        i for i, step in enumerate(d.steps)
        if any(b and not a for b, a in zip(table(step.before), table(step.after)))
    ]


def test_eliminated_and_synthesised_steps_are_sound(height3):
    corpus = injected_corpus(seed=20240817, size=100)
    frag = make_fragment(spec)
    assert len(height3.tautologies) == 2008
    derivations = [eliminate_all_up(frag, d) for d in corpus]
    # sample picks by position alone: the proofs of the same 300 tautologies
    derivations += random.Random(20261019).sample(height3.proofs, 300)
    steps = 0
    for d in derivations:
        assert check(spec, d) is None
        assert _unsound_steps(d) == []
        steps += len(d.steps)
    assert steps > 30000


def test_an_unsound_axiom_is_caught():
    # a descriptor may declare an unsound axiom; check accepts its steps
    own = spec_from_text(spec_to_text(spec) + "axiom: drop (A|B) = A\n")
    x, y = Variable("x"), Variable("y")
    b = Builder(own, Compound("&", Compound("|", x, y), T))
    b.rewrite(("L",), x)
    d = b.derivation()
    assert check(own, d) is None
    assert _unsound_steps(d) == [0]
