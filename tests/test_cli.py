import argparse
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import medial
from medial.cli import build_parser, run
from medial.derivations import Builder, to_text
from medial.system_p import make_p_spec
from medial.terms import Constant, parse_formula

from helpers import P_TEXT, injected_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_lines(tmp_path, monkeypatch, capsys):
    # the README's command block, run in order; each line exits with the
    # code its comment gives, 0 when it gives none
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    block = next(b for b in blocks if b.startswith("medial "))
    monkeypatch.chdir(tmp_path)
    ran = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "medial", line
        documented = re.search(r"#.*\(exit (\d)", line)
        ran.append((line, run(argv[1:]), int(documented.group(1)) if documented else 0))
        capsys.readouterr()
    assert ran and [(line, got) for line, got, want in ran if got != want] == []


def test_taut_exit_codes(capsys):
    assert run(["taut", "(x | ~x)"]) == 0
    assert run(["taut", "x"]) == 1
    out = capsys.readouterr().out
    assert "tautology" in out


def test_prove_and_check_round_trip(tmp_path, capsys):
    out = tmp_path / "proof.drv"
    assert run(["prove", "(x | ~x)", "--out", str(out)]) == 0
    assert run(["check", str(out)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_prove_and_check_in_subprocesses_are_quiet(tmp_path):
    # a fresh interpreter runs to exit, so freeing the interned terms at
    # shutdown must print nothing (no "Exception ignored" from a callback)
    src = os.path.dirname(os.path.dirname(os.path.abspath(medial.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "proof.drv"
    for argv in (["prove", "((x & y) | (~x | ~y))", "--out", str(out)],
                 ["check", str(out)]):
        proc = subprocess.run([sys.executable, "-m", "medial.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("ok:")


def test_prove_not_a_tautology(capsys):
    assert run(["prove", "x"]) == 1
    assert "NotATautology" in capsys.readouterr().err


def test_check_refuses_cross_system(tmp_path, capsys):
    out = tmp_path / "proof.drv"
    run(["prove", "(x | ~x)", "--out", str(out)])
    assert run(["check", str(out), "--system", "R23"]) == 1


def test_usage_and_parse_errors(capsys):
    assert run(["no-such-command"]) == 2
    assert run(["taut", "(x |"]) == 2
    assert run(["check", "/nonexistent/file.drv"]) == 2
    assert run(["check", "."]) == 2  # a directory, not a file


def test_prove_lemma_eliminate_split(tmp_path):
    em = tmp_path / "em.drv"
    assert run(["prove-lemma", "excluded-middle", "(x & y)", "--out", str(em)]) == 0
    out = tmp_path / "down.drv"
    assert run(["eliminate-up", str(em), "--out", str(out)]) == 0
    assert run(["check", str(out)]) == 0
    split_out = tmp_path / "split.txt"
    assert run(["split", str(em), "--at", "L", "--out", str(split_out)]) == 0
    assert "# kind: unitary" in split_out.read_text()


def test_eval_sat_classify_audit(capsys):
    assert run(["eval", "(F p0 T)"]) == 0
    assert capsys.readouterr().out.strip() == "F"
    assert run(["eval", "(x & T)", "--assign", "x=1"]) == 0
    assert capsys.readouterr().out.strip() == "T"
    assert run(["sat", "--clone", "C3", "(x !> x)"]) == 1
    assert run(["sat", "--clone", "C2", "(x & y)"]) == 0
    assert run(["classify", "--fn", "0111/2"]) == 0
    assert "C2" in capsys.readouterr().out
    assert run(["audit", "--system", "P"]) == 0
    assert run(["audit", "--system", "R23"]) == 1  # unsound transcriptions surfaced


@pytest.mark.parametrize(
    "assign, message",
    [
        ("x=maybe,y=1", "expected name=0|1|F|T|false|true, not 'x=maybe'"),
        ("x", "not 'x'"),
        ("x=1,,y=0", "not ''"),
        ("=1,x=1,y=1", "not '=1'"),
        ("x=1,y=1,x=0", "x is assigned twice"),
        ("x=1", "no value for y"),
    ],
)
def test_eval_rejects_malformed_assignment(capsys, assign, message):
    assert run(["eval", "(x & y)", "--assign", assign]) == 2
    assert message in capsys.readouterr().err


def test_eval_reads_every_truth_value(capsys):
    for assign, out in [("x=true, y = T", "T"), ("x=1,y=0", "F"), ("x=false,y=1", "F")]:
        assert run(["eval", "(x & y)", "--assign", assign]) == 0
        assert capsys.readouterr().out.strip() == out
    assert run(["eval", "(x & y)"]) == 2
    assert "no value for x, y" in capsys.readouterr().err


def test_bench_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["bench", "--clone", "C2", "--vars", "3", "--sizes", "10",
                "--samples", "3", "--seed", "4", "--out", str(a)]) == 0
    assert run(["bench", "--clone", "C2", "--vars", "3", "--sizes", "10",
                "--samples", "3", "--seed", "4", "--out", str(b)]) == 0
    strip = lambda text: [",".join(r.split(",")[:5]) for r in text.splitlines()]
    assert strip(a.read_text()) == strip(b.read_text())


@pytest.mark.parametrize(
    "rule, edit, message",
    [
        ("eq:const_idem:n", lambda line: line.replace("rule=", "", 1), "lacks rule"),
        ("eq:const_idem:n", lambda line: line.rsplit(" ", 1)[0], "lacks U"),
        ("eq:const_idem:n", lambda line: line.replace("dir=bwd", "dir=up", 1),
         "bad direction"),
        ("eq:const_idem:n", lambda line: line.replace("const_idem:n", "nosuch", 1),
         "unknown axiom 'nosuch'"),
        ("eq:const_idem:n", lambda line: line.replace("eq:const_idem:n", "nosuch", 1),
         "unknown rule id"),
        ("sd", lambda line: line.replace("rel=&,|", "rel=p0,p1", 1),
         "rule sd disagrees with rel=p0,p1"),
        ("eq:const_idem:n", lambda line: line + " Q=y",
         "rule eq:const_idem:n takes no binding Q"),
        ("sd", lambda line: line + " E=x", "rule sd takes no binding E"),
        ("acr", lambda line: line.replace("path=", "dir=bwd rel=p0,p1 path=", 1),
         "rule acr takes no field dir"),
        ("eq:or_unit", lambda line: line + " rel=&,|", "rule eq:or_unit takes no field rel"),
        ("sd", lambda line: line.replace("path=", "dir=bwd path=", 1),
         "rule sd takes no field dir"),
        ("eq:const_idem:n", lambda line: line.replace("path=-", "path=Q", 1),
         "bad path 'Q'"),
    ],
    ids=["no-rule", "missing-binding", "bad-dir", "unknown-axiom", "unknown-rule",
         "rel-disagrees", "extra-eq-binding", "extra-sd-binding", "acr-dir-rel",
         "eq-rel", "sd-dir", "bad-path-letter"],
)
def test_check_malformed_step_exits_2(tmp_path, capsys, rule, edit, message):
    good = tmp_path / "good.drv"
    assert run(["prove", "(x | ~x)", "--out", str(good)]) == 0
    lines = good.read_text().splitlines()
    assert lines[2] == "step: rule=eq:const_idem:n dir=bwd path=- U=F"
    n = next(n for n, line in enumerate(lines) if line.startswith(f"step: rule={rule} "))
    lines[n] = edit(lines[n])
    bad = tmp_path / "bad.drv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert lines[n].removeprefix("step: ") in err  # the step line is quoted


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:2] + ["bogus: 1"] + lines[2:],
         "line 3: unknown section 'bogus': bogus: 1"),
        (lambda lines: lines[:-1], "needs system, premise and conclusion"),
        # a repeated header line would silently replace the one before it
        (lambda lines: lines[:1] + ["system: P"] + lines[1:],
         "line 2: repeated section 'system': system: P"),
        (lambda lines: lines + ["premise: F"], "line 27: repeated section 'premise': premise: F"),
        (lambda lines: lines[:2] + [lines[-1]] + lines[2:],
         "line 27: repeated section 'conclusion': conclusion: (x | ~x)"),
    ],
    ids=["unknown-section", "no-conclusion", "repeated-system", "repeated-premise",
         "repeated-conclusion"],
)
def test_check_malformed_file_exits_2(tmp_path, capsys, edit, message):
    good = tmp_path / "good.drv"
    assert run(["prove", "(x | ~x)", "--out", str(good)]) == 0
    bad = tmp_path / "bad.drv"
    bad.write_text("\n".join(edit(good.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert run(["check", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["check"], ["eliminate-up"], ["split", "--at", "-"]],
                         ids=["check", "eliminate-up", "split"])
def test_undecodable_file_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "bad.drv"
    bad.write_bytes(b"\xff\xfe")
    assert run(argv[:1] + [str(bad)] + argv[1:]) == 2
    assert capsys.readouterr().err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:4] + lines[5:],
         "error: line 5, step 2: file not exactly threaded at rule acr: "
         "(~x | x) vs (~x | x | x)\n"),
        (lambda lines: lines[:-1] + ["conclusion: (~x | x)"],
         "error: line 26, step 23: conclusion line does not match the threaded result\n"),
    ],
    ids=["dropped-step", "ac-equal-conclusion"],
)
def test_check_names_the_line_and_step_a_file_stops_threading_at(tmp_path, capsys, edit,
                                                                 message):
    good = tmp_path / "good.drv"
    assert run(["prove", "(x | ~x)", "--out", str(good)]) == 0
    bad = tmp_path / "bad.drv"
    bad.write_text("\n".join(edit(good.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert run(["check", str(bad)]) == 1
    assert capsys.readouterr().err == message


# a command that loads the descriptor it is given
LEMMA = ["prove-lemma", "excluded-middle", "x", "--system"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--fn", "abc/x"], "--fn 'abc/x'"),
        (["classify", "--fn", "0111/3"], "--fn '0111/3'"),
        (["classify", "--fn", "0110/2", "--formula", "x"],
         "argument --formula: not allowed with argument --fn"),
        (["classify"], "one of the arguments --fn --formula is required"),
        (["bench", "--clone", "C2", "--vars", "a"], "argument --vars"),
        (["bench", "--clone", "C3", "--sizes", "10,,20"], "argument --sizes"),
        (["bench", "--clone", "C2", "--samples", "0"], "argument --samples: expected a positive"),
        (["bench", "--clone", "C2", "--samples", "-2"], "argument --samples: expected a positive"),
        (["prove-lemma", "contraction", "x", "--rel", "zz"],
         "--rel: 'zz' is not a relation of system P, which declares &, |, p0, p1"),
        (["split", "{em}", "--at", "ZZ"], "bad path 'ZZ'"),
        (LEMMA + ["{spec}"], "malformed axiom line: axiom: foo"),
        (LEMMA + ["{kind}"], "line 13: malformed axiom line: axiom: or_unit"),
        (LEMMA + ["{unbalanced}"], "line 13: unexpected end of input"),
        (LEMMA + ["{sortless}"], "line 13: metavariable Q has no sort convention"),
        (LEMMA + ["{silent}"], "axiom comm_and is AC-silent: & is declared comm"),
        (["audit", "--system", "{twice}"], "rule id c0d declared 2 times"),
        (LEMMA + ["{foreign}"], "axiom foo cannot be negated: no negation declared for zz"),
        (["audit", "--system", "{unusable}"], "rule x cannot be instantiated"),
        (LEMMA + ["{relation}"], "line 33: relation & declared twice"),
        (LEMMA + ["{name}"], "line 33: name declared twice: P, then Q"),
        (LEMMA + ["{negation}"], "line 33: negation of F declared twice"),
    ],
    ids=["fn-letters", "fn-length", "classify-both", "classify-neither", "bench-vars",
         "bench-sizes", "bench-samples-0", "bench-samples-negative", "lemma-undeclared-rel",
         "split-path", "spec-axiom", "spec-kind", "spec-unbalanced", "spec-sortless",
         "spec-ac-silent", "spec-repeated-id", "spec-foreign-axiom", "spec-unusable-rule",
         "spec-repeated-relation", "spec-repeated-name", "spec-repeated-negation"],
)
def test_malformed_arguments_exit_2(tmp_path, capsys, argv, message):
    em = tmp_path / "em.drv"
    assert run(["prove-lemma", "excluded-middle", "(x & y)", "--out", str(em)]) == 0
    specs = {
        "spec": re.sub(r"(?m)^axiom: .*$", "axiom: foo", P_TEXT, 1),
        # the old axiom line format, which carried the axiom's family number
        "kind": P_TEXT.replace("axiom: or_unit ", "axiom: or_unit kind=3 "),
        "unbalanced": P_TEXT.replace("(A|F) = A", "(A|F = A"),
        "sortless": P_TEXT.replace("(A|F) = A", "(Q|F) = Q"),
        "silent": P_TEXT + "axiom: comm_and (A&B) = (B&A)\n",
        "twice": P_TEXT.replace("rule: c1d", "rule: c0d"),
        "foreign": P_TEXT + "axiom: foo (A zz B) = A\n",
        "unusable": P_TEXT + "rule: x split_down & zz\n",
        "relation": P_TEXT + "relation: & dual=|\n",
        "name": P_TEXT + "name: Q\n",
        "negation": P_TEXT + "negation: F = F\n",
    }
    for name, body in specs.items():
        specs[name] = tmp_path / f"{name}.spec"
        specs[name].write_text(body)
    capsys.readouterr()
    assert run([a.format(em=em, **specs) for a in argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["excluded-middle", "x", "--rel", "p0"],
         "excluded middle needs a strong relation; p0 is intermediate"),
        (["contraction", "(x|y)", "--rel", "&"], "contraction needs a weak relation; & is strong"),
    ],
    ids=["em-intermediate", "contraction-strong"],
)
def test_prove_lemma_names_the_class_a_relation_lacks(capsys, argv, message):
    # a declared relation of the wrong class is a negative answer, with the
    # message library callers get from NotStrong / NotWeak
    assert run(["prove-lemma"] + argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_rejects_relation_from_binding(tmp_path, capsys):
    spec = make_p_spec()
    b = Builder(spec, Constant("T"))
    b.apply_eq((), "p0_select", dict(A=Constant("T"), B=parse_formula("(x zz y)")),
               direction="bwd")
    path = tmp_path / "zz.drv"
    path.write_text(to_text(spec, b.derivation()))
    assert run(["check", str(path)]) == 1
    assert "step 0: undeclared relation zz" in capsys.readouterr().err


def test_every_cli_argument_is_read():
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    ignored = []
    for name, sub in commands.choices.items():
        source = inspect.getsource(sub.get_default("handler"))
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if f"args.{action.dest}" not in source:
                ignored.append(f"{name} {'/'.join(action.option_strings) or action.dest}")
    assert ignored == []


def test_check_sort_violation_exits_2(tmp_path, capsys):
    lines = ["system: P", "premise: T", "step: rule=eq:var_em dir=bwd path=- X=x",
             "conclusion: (x | ~x)"]
    path = tmp_path / "em.drv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["check", str(path)]) == 0
    lines[2] = lines[2].replace("X=x", "X=(x & y)")
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["check", str(path)]) == 2
    assert "binding for X violates sort literal" in capsys.readouterr().err


def test_deeply_nested_formula_exits_2(capsys):
    # the parser reports its own depth as malformed input
    nested = "(" * 1500 + "x" + ")" * 1500
    assert run(["taut", nested]) == 2
    assert "error: formula nested too deeply" in capsys.readouterr().err


def test_check_accepts_a_deep_chain(tmp_path, capsys):
    # a 3,000-operand chain regrouped below a conjunction: canonicalising
    # it orders the operands by keys built without recursion
    ops = ["x", "y"] * 1500
    chain, turned = (f"({'|'.join(o)})" for o in (ops, ops[1:] + ops[:1]))
    drv = tmp_path / "deep.drv"
    drv.write_text(f"system: P\npremise: (a & {chain})\n"
                   f"step: rule=acr path=- A=(a&{chain}) B=({turned}&a)\n"
                   f"conclusion: ({turned} & a)\n")
    assert run(["check", str(drv)]) == 0
    assert capsys.readouterr().out.startswith("ok: 1 steps")


def test_kernel_recursion_exits_1(tmp_path, capsys):
    # proof 18 of the 16-up-rule dense set (73 steps) parses; the splitter
    # recurses once per step above a split and passes the limit on it
    d = injected_corpus(seed=20261019 + 16, size=19, ups=(16, 16))[18]
    drv = tmp_path / "dense18.drv"
    drv.write_text(to_text(make_p_spec(), d))
    assert run(["eliminate-up", str(drv), "--out", str(tmp_path / "out.drv")]) == 1
    err = capsys.readouterr().err
    assert "recursion limit reached in the kernel" in err and "nested" not in err


def test_taut_accepts_a_deep_chain(capsys):
    # evaluating a 3,000-operand chain walks it without recursion
    chain = "(" + " | ".join(["x", "~x"] * 1500) + ")"
    assert run(["taut", chain]) == 0
    assert capsys.readouterr().out == "tautology\n"


def test_check_validates_spec_file(tmp_path, capsys):
    proof = tmp_path / "proof.drv"
    assert run(["prove", "(x | ~x)", "--out", str(proof)]) == 0
    for name, text in [("good.spec", P_TEXT),
                       ("bad.spec", P_TEXT.replace("& dual=|", "& dual=zz"))]:
        (tmp_path / name).write_text(text)
        drv = tmp_path / f"{name}.drv"
        drv.write_text(proof.read_text().replace("system: P", f"system: {tmp_path / name}"))
    capsys.readouterr()
    assert run(["check", str(tmp_path / "good.spec.drv")]) == 0
    assert run(["check", str(tmp_path / "bad.spec.drv")]) == 2
    assert "dual of & undeclared: zz" in capsys.readouterr().err
