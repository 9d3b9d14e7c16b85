"""Command-line surface: checking, synthesis, elimination, splitting,
clone classification, satisfiability and benchmarks.

Exit codes: 0 success / valid / tautology / satisfiable; 1 well-formed
negative answer; 2 usage or parse errors.  Data goes to stdout,
diagnostics to stderr."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import clones, r23
from .derivations import check, from_text, parse_sides, to_text
from .generators import derive_contraction, derive_excluded_middle
from .splitting import (
    eliminate_all_up,
    make_fragment,
    shallow_split,
)
from .system_p import (
    NotATautology,
    evaluate,
    is_tautology,
    make_p_spec,
    audit_soundness,
    prove_tautology,
)
from .systems import SystemError, SystemSpec, spec_from_text, validate_spec
from .terms import ParseError, TermError, parse_formula, print_formula, variables


def resolve_system(name: str) -> SystemSpec:
    if name == "P":
        return make_p_spec()
    if name == "R23":
        return r23.make_r23_spec()
    path = Path(name)
    if not path.exists():
        raise ParseError(f"unknown system {name!r} (not a builtin or a file)")
    try:
        spec = spec_from_text(path.read_text())
        issues = validate_spec(spec)
    except (SystemError, ValueError) as e:
        issues = [f"{type(e).__name__}: {e}"]
    if issues:
        raise ParseError(f"bad system file {name}: " + "; ".join(issues))
    return spec


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    spec, d = from_text(Path(args.file).read_text(), resolve_system)
    if args.system and spec.name != args.system:
        print(f"file is for system {spec.name}, not {args.system}", file=sys.stderr)
        return 1
    failure = check(spec, d)
    if failure is None:
        print(f"ok: {len(d.steps)} steps, "
              f"{print_formula(d.premise)} -> {print_formula(d.conclusion)}")
        return 0
    print(f"invalid: {failure}", file=sys.stderr)
    return 1


def _cmd_prove(args) -> int:
    goal = parse_formula(args.formula)
    hyps = [parse_formula(h) for h in args.hyp]
    try:
        d = prove_tautology(goal, hyps)
    except NotATautology as e:
        print(f"NotATautology: {e}", file=sys.stderr)
        return 1
    _emit(to_text(make_p_spec(), d), args.out)
    return 0


def _cmd_prove_lemma(args) -> int:
    spec = resolve_system(args.system)
    f = parse_formula(args.formula)
    rel = args.rel or ("&" if args.lemma == "excluded-middle" else "|")
    if rel not in spec.relations:
        raise ParseError(f"--rel: {rel!r} is not a relation of system {spec.name}, "
                         f"which declares {', '.join(spec.relations)}")
    if args.lemma == "excluded-middle":
        d = derive_excluded_middle(spec, rel, f)
    else:
        d = derive_contraction(spec, rel, f)
    _emit(to_text(spec, d), args.out)
    return 0


def _cmd_eliminate_up(args) -> int:
    spec, d = from_text(Path(args.file).read_text(), resolve_system)
    frag = make_fragment(spec)
    recorder: list | None = [] if args.trace else None
    result = eliminate_all_up(frag, d, recorder)
    if args.trace:
        for rec in recorder:
            print(
                f"  split at {rec.alpha} ({rec.kind}): |P|={rec.len_p} "
                f"|Q0|={rec.len_q0} |Q1|={rec.len_q1}",
                file=sys.stderr,
            )
    _emit(to_text(spec, result), args.out)
    return 0


def _cmd_split(args) -> int:
    spec, d = from_text(Path(args.file).read_text(), resolve_system)
    frag = make_fragment(spec)
    occ = parse_sides(args.at)
    res = shallow_split(frag, d, occ)
    parts = [f"# kind: {res.kind}", f"# k0: {print_formula(res.k0)}",
             f"# k1: {print_formula(res.k1)}"]
    for name, piece in (("q0", res.q0), ("q1", res.q1), ("d", res.d)):
        if piece is not None:
            parts.append(f"# --- {name} ---")
            parts.append(to_text(spec, piece).rstrip("\n"))
    _emit("\n".join(parts) + "\n", args.out)
    return 0


def _cmd_classify(args) -> int:
    if args.fn:
        bits, _, arity_text = args.fn.partition("/")
        arity = int(arity_text) if arity_text.isdecimal() and len(arity_text) < 3 else -1
        if arity < 0 or set(bits) - {"0", "1"} or len(bits) != 2 ** arity:
            raise ParseError(f"--fn {args.fn!r}: give <bits>/<arity> with 2^arity bits")
        fn = clones.BoolFn(arity, tuple(c == "1" for c in bits))
    elif args.formula:
        fn = clones.formula_function(parse_formula(args.formula))
    else:
        print("classify needs --fn or --formula", file=sys.stderr)
        return 2
    print(" ".join(clones.classify(fn)))
    return 0


def _cmd_sat(args) -> int:
    f = parse_formula(args.formula)
    if args.clone == "C2":
        try:
            valuation = r23.sat_c2(f)
        except r23.ConnectiveOutsideClone as e:
            print(str(e), file=sys.stderr)
            return 2
    else:
        valuation = r23.sat_brute(f)
    if valuation is None:
        print("unsat")
        return 1
    names = sorted(valuation)
    print("sat " + " ".join(f"{n}={'1' if valuation[n] else '0'}" for n in names))
    return 0


def _cmd_audit(args) -> int:
    if args.system == "R23":
        report = r23.audit_r23()
    else:
        report = audit_soundness(resolve_system(args.system))
    sys.stdout.write(r23.audit_report_csv(report))
    return 0 if all(ok for _, ok in report) else 1


def _cmd_bench(args) -> int:
    csv = r23.bench_sat(args.clone, args.vars, args.sizes, args.seed, args.samples)
    _emit(csv, args.out)
    return 0


def _cmd_eval(args) -> int:
    f = parse_formula(args.formula)
    truth = {"0": False, "F": False, "false": False, "1": True, "T": True, "true": True}
    valuation = {}
    for part in args.assign.split(",") if args.assign is not None else ():
        name, eq, value = (s.strip() for s in part.partition("="))
        if not (name and eq) or value not in truth:
            raise ParseError(f"--assign: expected name=0|1|F|T|false|true, not {part!r}")
        if name in valuation:
            raise ParseError(f"--assign: {name} is assigned twice")
        valuation[name] = truth[value]
    unassigned = sorted(variables(f) - valuation.keys())
    if unassigned:
        raise ParseError(f"--assign gives no value for {', '.join(unassigned)}")
    print("T" if evaluate(f, valuation) else "F")
    return 0


def _cmd_taut(args) -> int:
    f = parse_formula(args.formula)
    if is_tautology(f):
        print("tautology")
        return 0
    print("not a tautology")
    return 1


def _positive_int(text: str) -> int:
    """A positive integer (an argparse type)."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, not {text!r}")
    return int(text)


def _positive_ints(text: str) -> list:
    """A comma-separated list of positive integers (an argparse type)."""
    values = [int(v) for v in text.split(",") if v.isdecimal()]
    if len(values) != text.count(",") + 1 or min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected positive integers like 4,8, not {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medial", description="deep-inference proof kernel over medial rules"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a derivation file")
    p.add_argument("file")
    p.add_argument("--system", default=None)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("prove", help="synthesise a tautology proof in system P")
    p.add_argument("formula")
    p.add_argument("--hyp", action="append", default=[])
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_prove)

    p = sub.add_parser("prove-lemma", help="run a derived-rule generator")
    p.add_argument("lemma", choices=["excluded-middle", "contraction"])
    p.add_argument("formula")
    p.add_argument("--system", default="P")
    p.add_argument("--rel", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_prove_lemma)

    p = sub.add_parser("eliminate-up", help="remove splitting up-rules")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(handler=_cmd_eliminate_up)

    p = sub.add_parser("split", help="shallow-split a proof at a path")
    p.add_argument("file")
    p.add_argument("--at", required=True, help="L/R path to the split node, - for root")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("classify", help="clones containing a boolean function")
    p.add_argument("--fn", default=None, help="<bits>/<arity>")
    p.add_argument("--formula", default=None)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("sat", help="satisfiability inside a clone")
    p.add_argument("formula")
    p.add_argument("--clone", choices=["C2", "C3"], required=True)
    p.set_defaults(handler=_cmd_sat)

    p = sub.add_parser("audit", help="semantic soundness report for a system")
    p.add_argument("--system", required=True)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("bench", help="random-formula satisfiability timing")
    p.add_argument("--clone", choices=["C2", "C3"], required=True)
    p.add_argument("--vars", type=_positive_ints, default="4,8")
    p.add_argument("--sizes", type=_positive_ints, default="20,60")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_positive_int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("eval", help="evaluate a formula")
    p.add_argument("formula")
    p.add_argument("--assign", default=None, help="x=1,y=0")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("taut", help="tautology test by truth-table enumeration")
    p.add_argument("formula")
    p.set_defaults(handler=_cmd_taut)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser reports nesting itself: this is a kernel walk
        print("error: recursion limit reached in the kernel", file=sys.stderr)
        return 1
    except TermError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
