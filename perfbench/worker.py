"""One pass of a kernel benchmark workload, in a fresh process.

Reads the workload's inputs (JSON, as ``inputs.py`` prints them) on stdin,
sets the kernel up, runs every input once as one op in a closed loop, and
prints a JSON report on stdout.  Each op is timed on its own; its result is
validated after its span has closed, against references that do not go
through the checker where one exists.  Times are reported raw and scaled to
the reference machine speed of ``speed.py``, from calibration bursts run
between ops.  With ``--setup-only`` it times the set-up and stops.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import sys
import time

from speed import SETUP_BURST, Speed
from tracer import Tracer

MODULES = ("terms", "systems", "derivations", "generators", "splitting", "system_p")
DOWN_SCHEMES = ("split_down", "eq_down", "eq_up", "ac")


class Kernel:
    """The kernel modules, the system P and its splittable fragment.

    Ops call functions through the module objects, so the wrappers a
    tracer installs after import are the ones that run."""

    def __init__(self, tracer: Tracer | None, speed: Speed):
        speed.burst(SETUP_BURST)
        start = time.perf_counter()
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"medial.{name}"))
        if tracer is not None:
            tracer.install()
            tracer.begin("setup")
        self.spec = self.system_p.make_p_spec()
        self.frag = self.splitting.make_fragment(self.spec)
        if tracer is not None:
            tracer.end()
        end = time.perf_counter()
        speed.burst(SETUP_BURST)
        self.setup_raw_s = end - start
        self.setup_s = self.setup_raw_s * speed.factor(start, end)
        self.T = self.terms.Constant("T")

    def resolve(self, name: str):
        if name != self.spec.name:
            raise self.derivations.DerivationError(f"unknown system {name!r}")
        return self.spec


# ---------------------------------------------------------------------------
# Independent references


def _negation(f, terms):
    """De Morgan negation in P, written out here rather than borrowed."""
    if isinstance(f, terms.Constant):
        return terms.Constant({"T": "F", "F": "T"}[f.name])
    if isinstance(f, terms.Variable):
        return terms.Variable(f.name, not f.negated)
    dual = {"&": "|", "|": "&", "p0": "p0", "p1": "p1"}[f.rel]
    return terms.Compound(dual, _negation(f.left, terms), _negation(f.right, terms))


def _ac_key(f, terms):
    """A canonical key of f modulo associativity of &, |, p0, p1 and
    commutativity of & and |."""
    if not isinstance(f, terms.Compound):
        return str(f)

    def spine(g):
        if isinstance(g, terms.Compound) and g.rel == f.rel:
            return spine(g.left) + spine(g.right)
        return [_ac_key(g, terms)]

    elems = spine(f)
    if f.rel in ("&", "|"):
        elems.sort()
    return "(" + f" {f.rel} ".join(elems) + ")"


def _implies(k: Kernel, a, b) -> bool:
    """a entails b under the truth tables of P."""
    names = sorted(k.terms.variables(a) | k.terms.variables(b))
    return all(not k.system_p.evaluate(a, v) or k.system_p.evaluate(b, v)
               for v in k.system_p.all_valuations(names))


def _bound_holds(rec) -> bool:
    """The length bound of shallow splitting: |Q0|+|Q1| <= |P| for a
    unitary split, one-sided for a weakening split."""
    q0, q1 = rec.len_q0 or 0, rec.len_q1 or 0
    if rec.kind == "unitary":
        return q0 + q1 <= rec.len_p
    return (q0 if rec.kind == "right_weakening" else q1) <= rec.len_p


# ---------------------------------------------------------------------------
# Ops: each returns what its validation needs; only the op itself is timed


def op_eliminate(k: Kernel, text: str, recorder: list):
    _, d = k.derivations.from_text(text, k.resolve)
    out = k.splitting.eliminate_all_up(k.frag, d, recorder)
    printed = k.derivations.to_text(k.spec, out)
    return d, out, printed, k.derivations.check(k.spec, out)


def validate_eliminate(k: Kernel, item, result, records: list, counts: dict) -> tuple:
    d, out, printed, failure = result
    counts["steps_in"] += len(d.steps)
    problems = []
    if failure is not None:
        problems.append(f"check: {failure}")
    if (out.premise, out.conclusion) != (d.premise, d.conclusion):
        problems.append("premise or conclusion changed")
    if any(s.rule.scheme.value not in DOWN_SCHEMES for s in out.steps):
        problems.append("an up-rule remains")
    if not all(_bound_holds(r) for r in records):
        problems.append("a split broke the length bound")
    if not all(_implies(k, s.before, s.after) for s in out.steps):
        problems.append("a step is unsound under the truth tables")
    return problems, [printed], len(out.steps)


def op_generate(k: Kernel, text: str, recorder):
    f = k.terms.parse_formula(text)
    em = k.generators.derive_excluded_middle(k.spec, "&", f)
    contraction = k.generators.derive_contraction(k.spec, "|", f)
    return (f, em, contraction, k.derivations.check(k.spec, em),
            k.derivations.check(k.spec, contraction))


def validate_generate(k: Kernel, item, result, records, counts) -> tuple:
    f, em, contraction, em_failure, c_failure = result
    C = k.terms.Compound
    problems = [f"check: {e}" for e in (em_failure, c_failure) if e is not None]
    if (em.premise, em.conclusion) != (k.T, C("|", f, _negation(f, k.terms))):
        problems.append("excluded middle proves the wrong formula")
    if not _implies(k, k.T, em.conclusion):
        problems.append("excluded middle is not a tautology")
    if (contraction.premise, contraction.conclusion) != (C("|", f, f), f):
        problems.append("contraction proves the wrong formula")
    printed = [k.derivations.to_text(k.spec, d) for d in (em, contraction)]
    return problems, printed, len(em.steps) + len(contraction.steps)


def op_synthesise(k: Kernel, text: str, recorder):
    f = k.terms.parse_formula(text)
    d = k.system_p.prove_tautology(f)
    printed = k.derivations.to_text(k.spec, d)
    return f, d, printed, k.derivations.check(k.spec, d)


def validate_synthesise(k: Kernel, item, result, records, counts) -> tuple:
    f, d, printed, failure = result
    problems = [] if failure is None else [f"check: {failure}"]
    if d.premise != k.T:
        problems.append("proof does not start from T")
    if _ac_key(d.conclusion, k.terms) != _ac_key(f, k.terms):
        problems.append("conclusion is not AC-equal to the goal")
    if not _implies(k, k.T, d.conclusion):
        problems.append("conclusion is not a tautology")
    return problems, [printed], len(d.steps)


def op_verify(k: Kernel, item: dict, recorder):
    try:
        _, d = k.derivations.from_text(item["text"], k.resolve)
    except k.terms.TermError as e:
        return False, f"from_text: {e}", None, None
    failure = k.derivations.check(k.spec, d)
    if failure is not None:
        return False, f"check: {failure}", None, None
    return True, None, d, k.derivations.to_text(k.spec, d)


def validate_verify(k: Kernel, item: dict, result, records, counts) -> tuple:
    accepted, reason, d, printed = result
    if accepted != item["accept"]:
        what = item.get("mutant", "valid file")
        return [f"{what} {'accepted' if accepted else 'rejected'}: {reason}"], [], 0
    if not accepted:
        counts["rejected"] += 1
        return [], [], 0
    if printed != item["text"]:
        return ["re-print differs from the file"], [], 0
    return [], [printed], len(d.steps)


EXTRA_COUNTS = {"eliminate": ("steps_in",), "verify": ("rejected",)}
WORKLOADS = {
    "eliminate": (op_eliminate, validate_eliminate),
    "generate": (op_generate, validate_generate),
    "synthesise": (op_synthesise, validate_synthesise),
    "verify": (op_verify, validate_verify),
}


# ---------------------------------------------------------------------------


def run_pass(workload: str, items: list, order_seed: int, tracer: Tracer | None) -> dict:
    speed = Speed()
    k = Kernel(tracer, speed)
    op, validate = WORKLOADS[workload]
    order = list(range(len(items)))
    random.Random(order_seed).shuffle(order)
    recorder: list = []
    counts = dict.fromkeys(("steps_out", "splits", "bound_violations", "irreducible")
                           + EXTRA_COUNTS.get(workload, ()), 0)
    spans, errors = [], []
    digests: dict = {}  # input index -> sha256 of its printed outputs
    failed = 0
    for idx in order:
        item = items[idx]
        first_record = len(recorder)
        speed.maybe_burst()
        start = tracer.begin("op") if tracer else time.perf_counter()
        try:
            result = op(k, item, recorder)
            error = None
        except Exception as e:  # an op that raises is a failed op, not a crash
            result, error = None, e
        end = tracer.end() if tracer else time.perf_counter()
        spans.append((start, end))
        records = recorder[first_record:]
        counts["splits"] += len(records)
        counts["bound_violations"] += sum(not _bound_holds(r) for r in records)
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
            if isinstance(error, k.splitting.IrreducibleCase):
                counts["irreducible"] += 1
        else:
            problems, printed, steps = validate(k, item, result, records, counts)
            counts["steps_out"] += steps
            if printed:
                digests[idx] = hashlib.sha256("".join(printed).encode()).hexdigest()
        if tracer:
            tracer.spans.append((idx, start, end, not problems))
        if problems:
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {idx}: {'; '.join(problems)}")
    speed.burst()
    report = {
        "setup_s": k.setup_s,
        "setup_raw_s": k.setup_raw_s,
        "latencies": [(end - start) * speed.factor(start, end) for start, end in spans],
        "raw_latencies": [end - start for start, end in spans],
        "attempted": len(items),
        "failed": failed,
        "errors": errors,
        # in input order, so the seed's op order does not move it
        "digest": hashlib.sha256(
            "\n".join(digests[i] for i in sorted(digests)).encode()).hexdigest(),
        "counts": counts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        for attr in ("ac_cache", "eq_cache"):
            cache = getattr(k.spec, attr, None)
            counts[f"{attr}_size"] = 0 if cache is None else len(cache)
        report["layers"] = tracer.layer_metrics()
        report["call_tree"] = tracer.call_tree()
        report["spans"] = tracer.spans
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--order-seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        k = Kernel(None, Speed())
        report = {"setup_s": k.setup_s, "setup_raw_s": k.setup_raw_s}
    else:
        items = json.load(sys.stdin)["items"]
        report = run_pass(args.workload, items, args.order_seed,
                          Tracer() if args.trace else None)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
