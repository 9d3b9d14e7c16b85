"""Per-layer tracing for the kernel benchmark, from outside the kernel.

`Tracer.install` replaces each public function named in `LAYERS` by a
timing wrapper.  The wrapper is bound under every name that holds the
function in any ``medial.*`` module, because modules import each other's
names with ``from .systems import ...``; Builder methods are wrapped on
the class.  Calls are aggregated per (function, parent) as calls, total
time and self time, since the kernel makes millions of inner calls; each
op gets one span of its own.  A call made while the same function is
already running (recursion, direct or through other functions) is part of
the outer call: it is neither counted nor timed on its own, so total
times never count an interval twice.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> functions timed at their boundary
LAYERS = {
    "terms": ("parse_formula", "print_formula", "ac_canonical", "equal_mod_ac", "negate"),
    "systems": ("eq_step_for", "check_rule_instance", "eq_instance",
                "instantiate_rule", "validate_spec"),
    "derivations": ("check", "from_text", "to_text", "exactify",
                    "Builder.rewrite", "Builder.apply", "Builder.splice"),
    "generators": ("derive_excluded_middle", "derive_contraction"),
    "splitting": ("eliminate_up_step", "shallow_split", "context_reduce", "make_fragment"),
    "system_p": ("prove_tautology", "prove_line"),
}
# generator functions: only their calls are counted, and the time spent
# consuming them stays with the caller
COUNTED = {"systems": ("iter_matches",)}
KINDS = ("calls", "total_s", "self_s")


class Tracer:
    def __init__(self):
        self.on = False
        self.rows: dict = {}         # (name, parent) -> [calls, total_s, self_s]
        self.counts: dict = {}       # name -> calls, for COUNTED functions
        self.spans: list = []        # (op id, start, end, ok)
        self.check_steps = 0
        self.eq_step_none = 0
        self._stack = [["run", 0.0]]  # [name, time covered by child spans]
        self._running: set = set()

    # -- spans ------------------------------------------------------------
    def begin(self, name: str) -> float:
        self._stack.append([name, 0.0])
        self.on = True
        return time.perf_counter()

    def end(self) -> float:
        end = time.perf_counter()
        self.on = False
        self._stack.pop()
        return end

    # -- wrappers ---------------------------------------------------------
    def _timed(self, name: str, fn):
        rows, stack, running, clock = self.rows, self._stack, self._running, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on or name in running:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            running.add(name)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                running.discard(name)
                stack.pop()
                parent[1] += dt
                row = rows.get((name, parent[0]))
                if row is None:
                    row = rows[(name, parent[0])] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self, name: str, wrapper):
        """Counters read at a boundary: steps checked, failed lookups."""
        if name == "derivations.check":
            def check(spec, d):
                if self.on:
                    self.check_steps += len(d.steps)
                return wrapper(spec, d)
            return functools.wraps(wrapper)(check)
        if name == "systems.eq_step_for":
            def eq_step_for(spec, lhs, rhs):
                inst = wrapper(spec, lhs, rhs)
                if inst is None and self.on:
                    self.eq_step_none += 1
                return inst
            return functools.wraps(wrapper)(eq_step_for)
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "medial" or n.startswith("medial.")]
        plan = [(mod, fn, self._timed) for mod, fns in LAYERS.items() for fn in fns]
        plan += [(mod, fn, self._counted) for mod, fns in COUNTED.items() for fn in fns]
        for mod, fn, make in plan:
            home = sys.modules[f"medial.{mod}"]
            name = f"{mod}.{fn}"
            if "." in fn:
                cls_name, meth = fn.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, make(name, getattr(cls, meth)))
                continue
            original = getattr(home, fn)
            wrapper = self._hooks(name, make(name, original))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    # -- results ----------------------------------------------------------
    def layer_metrics(self) -> dict:
        """Calls, total and self time per function, summed over parents."""
        out = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                for kind in KINDS:
                    out[f"{mod}.{fn}.{kind}"] = 0
        for (name, _parent), row in self.rows.items():
            for kind, value in zip(KINDS, row):
                out[f"{name}.{kind}"] += value
        for name, calls in self.counts.items():
            out[f"{name}.calls"] = calls
        eq_calls = out["systems.eq_step_for.calls"]
        out["systems.eq_step_for.none"] = self.eq_step_none / eq_calls if eq_calls else 0.0
        out["derivations.check.steps"] = self.check_steps
        return out

    def call_tree(self) -> list:
        return [
            {"function": name, "parent": parent, "calls": calls,
             "total_s": total, "self_s": self_s}
            for (name, parent), (calls, total, self_s) in sorted(
                self.rows.items(), key=lambda kv: -kv[1][2])
        ]
