"""Seed-fixed fuzzing of the command line: mutants of derivation files,
formulas and a system spec go through `medial` in-process, which answers
each with exit code 0, 1 or 2 and never lets an exception escape."""

import collections
import random
import re

import pytest

from medial.cli import run
from medial.derivations import to_text
from medial.system_p import make_p_spec

from helpers import P_TEXT, injected_corpus

SEED = 20261018
MUTANTS = 60  # per source text
TOKEN = re.compile(r"\s+|\w+|.", re.S)
FIELD_VALUES = ("fwd", "bwd", "up", "&,|", "|,&", "p0,|", "p1,p0", "&", "")


def mutate(rng: random.Random, text: str) -> str:
    """One mutation: delete, duplicate or swap a token, change a path
    letter or a dir/rel value, or truncate a line."""
    op = rng.randrange(6)
    if op == 3:
        hits = list(re.finditer(r"path=(\S+)", text))
        if hits:
            m = rng.choice(hits)
            i = rng.randrange(m.start(1), m.end(1))
            return text[:i] + rng.choice("LRQ-") + text[i + 1 :]
    if op == 4:
        hits = list(re.finditer(r"(?:dir|rel)=(\S+)", text))
        if hits:
            m = rng.choice(hits)
            return text[: m.start(1)] + rng.choice(FIELD_VALUES) + text[m.end(1) :]
    if op == 5:
        lines = text.split("\n")
        n = rng.randrange(len(lines))
        lines[n] = lines[n][: rng.randrange(len(lines[n]) + 1)]
        return "\n".join(lines)
    tokens = TOKEN.findall(text)
    words = [i for i, t in enumerate(tokens) if not t.isspace()]
    i = rng.choice(words)
    if op == 0:
        del tokens[i]
    elif op == 1:
        tokens.insert(i, tokens[i])
    else:
        j = rng.choice(words)
        tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


def _derivation_texts(tmp_path) -> list:
    spec = make_p_spec()
    up = tmp_path / "up.drv"
    up.write_text(to_text(spec, injected_corpus(seed=20240817, size=1)[0]))
    commands = [
        ["prove", "(x | ~x)"],
        ["prove", "((y p0 x) | ~y)"],
        ["prove-lemma", "excluded-middle", "((x | y) & (x p1 ~y))"],
        ["prove-lemma", "contraction", "(x & (y p0 z))"],
        ["eliminate-up", str(up)],
    ]
    texts = []
    for n, argv in enumerate(commands):
        out = tmp_path / f"source{n}.drv"
        assert run(argv + ["--out", str(out)]) == 0
        texts.append(out.read_text())
    return texts


def test_cli_answers_every_mutant(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(SEED)
    mutant = tmp_path / "mutant"
    cases = [(text, [["check", str(mutant)]]) for text in _derivation_texts(tmp_path)]
    cases.append((P_TEXT, [["audit", "--system", str(mutant)]]))
    for formula in ("((x & ~y) | (y p0 (T & z)))", "(~x p1 (x | F))"):
        cases.append((formula, [["taut", "{}"], ["eval", "{}", "--assign", "x=1,y=0"]]))
    codes = collections.Counter()
    for text, commands in cases:
        for _ in range(MUTANTS):
            variant = mutate(rng, text)
            mutant.write_text(variant)
            for argv in commands:
                argv = [a.replace("{}", variant) for a in argv]
                try:
                    code = run(argv)
                except (Exception, SystemExit) as e:
                    pytest.fail(f"medial {argv[0]} raised {e!r} on the mutant:\n{variant}")
                assert code in (0, 1, 2), (argv, variant)
                codes[argv[0], code] += 1
            capsys.readouterr()
    # the mutants reach every answer: accepted, rejected, malformed
    assert {("check", 0), ("check", 1), ("check", 2), ("audit", 2), ("taut", 2)} <= set(codes)
