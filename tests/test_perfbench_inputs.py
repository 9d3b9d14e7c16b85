"""The benchmark builds its inputs with the kernel (`perfbench/inputs.py`),
reading rule instances and the spec's axiom table; a kernel change that
breaks that builder would surface only when the benchmark runs."""

import importlib.util
import random
from pathlib import Path

from medial.derivations import check, from_text, to_text
from medial.system_p import make_p_spec, prove_tautology
from medial.terms import TermError, parse_formula

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def _inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rejected(spec, text: str) -> bool:
    try:
        _, d = from_text(text, lambda name: spec)
    except TermError:
        return True
    return check(spec, d) is not None


def test_benchmark_mutants_are_rejected():
    inputs = _inputs()
    spec = make_p_spec()
    derivations = [prove_tautology(parse_formula("((x & y) | (~x | ~y))"))]
    derivations += inputs.injected_corpus(spec, inputs.CORPUS_SEED, 2)
    rng = random.Random(0)
    for d in derivations:
        text = to_text(spec, d)
        parsed = from_text(text, lambda name: spec)[1]
        assert check(spec, parsed) is None
        for kind in inputs.MUTANT_CLASSES:
            mutant = inputs.mutate(spec, text, parsed, kind, rng)
            assert mutant != text
            assert _rejected(spec, mutant), kind
