"""Kernel calls free what they build by reference counting alone: none
leaves a reference cycle for the cyclic collector."""

import collections
import gc
import random

from medial.generators import derive_contraction, derive_excluded_middle
from medial.r23 import random_clone_formula
from medial.derivations import check, from_text, to_text
from medial.splitting import eliminate_all_up, make_fragment
from medial.system_p import make_p_spec, prove_tautology
from medial.terms import negate, parse_formula, print_formula

from helpers import injected_corpus


def test_kernel_calls_leave_no_cyclic_garbage():
    spec = make_p_spec()
    frag = make_fragment(spec)
    # proofs 11, 15 and 19 of this corpus reach the regrouped-spine split
    corpus = injected_corpus(seed=20240817, size=20)[10:]
    flags = gc.get_debug()
    gc.collect()
    before = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collector finds, to count it
    try:
        for proof in corpus:
            eliminate_all_up(frag, proof)
        for text in ("(T | F)", "(x | ~x)", "((x p0 y) | (~x p0 z))"):
            prove_tautology(parse_formula(text))
        d = prove_tautology(parse_formula("((x & y) | (~x | ~y))"))  # 166 steps
        check(spec, d)
        from_text(to_text(spec, d), lambda name: spec)
        print_formula(d.conclusion, spaces=False)
        derive_excluded_middle(spec, "&", parse_formula("((x | y) & (x p0 ~y))"))
        derive_contraction(spec, "|", parse_formula("((x | y) & (x p1 ~y))"))
        # atoms with names nothing else holds, so each is made, interned
        # and freed here
        fresh = parse_formula("((gc_a & ~gc_b) | (~gc_a | gc_b))")
        negate(spec, negate(spec, fresh))
        from_text(to_text(spec, prove_tautology(fresh)), lambda name: spec)
        del fresh
        rng = random.Random(3)
        for clone in ("C2", "C3"):
            random_clone_formula(rng, clone, 4)
        gc.collect()
    finally:
        gc.set_debug(flags)
        found = gc.garbage[before:]
        del gc.garbage[before:]
    kinds = collections.Counter(
        getattr(o, "__qualname__", type(o).__name__) for o in found
    )
    assert kinds == {}
