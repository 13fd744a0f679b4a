"""Spans around the library's public functions, for the traced replay.

Each listed function is replaced by a wrapper at every module that binds
it: the modules import each other's functions by name (`from .core import
verify_axioms`), so patching only the defining module would miss the calls
between layers. A span is (name, start, end, parent span, count, job);
spans stay in memory until the replay ends. Self time is a span's
duration minus that of its direct children.

The bit helpers `members`, `mask_of` and `product_of_sets` stay unwrapped:
their calls are too many and too short to time.
"""

from __future__ import annotations

import json
import sys
import time

WRAPPED = {
    "cli": ("main", "parse_trame"),
    "core": ("from_json", "verify_axioms", "is_reflector", "find_isomorphism"),
    "groups": ("subgroups", "generated", "is_invariant_modulo", "verify_group"),
    "constructions": ("right_coset_hypergroup", "left_coset_hypergroup",
                      "stabilizer_hypergroup", "s_family", "s_family_class",
                      "s_family_group_realization", "utumi", "utumi_is_associative",
                      "utumi_simplicity_criterion", "canonical_presentation"),
    "presentations": ("is_adequate", "is_invariant_modulo_equiv", "quotient"),
    "simplicity": ("reflector_congruences", "quotient_by", "reflets",
                   "invariant_modulo_subgroups", "is_simple_coset"),
}


def _triples(args, result):
    """Associativity triples verify_axioms checked: up to its witness."""
    n = args[0].n
    w = result.assoc_witness
    return n ** 3 if w is None else (w[0] * n + w[1]) * n + w[2] + 1


# work counted from a call's arguments and result
COUNTS = {
    "core.verify_axioms": _triples,
    "groups.subgroups": lambda args, result: len(result),
    "simplicity.reflector_congruences": lambda args, result: len(result),
    "simplicity.reflets": lambda args, result: len(result),
}

# (metric, unit): the per-layer metrics, in the order they are reported
METRICS = [
    ("cli.main.self_s", "s"), ("cli.parse_trame.self_s", "s"),
    ("core.from_json.self_s", "s"),
    ("core.verify_axioms.self_s", "s"), ("core.verify_axioms.calls", "count"),
    ("core.verify_axioms.triples", "count"),
    ("core.is_reflector.self_s", "s"), ("core.is_reflector.calls", "count"),
    ("core.find_isomorphism.self_s", "s"), ("core.find_isomorphism.calls", "count"),
    ("groups.subgroups.self_s", "s"), ("groups.subgroups.calls", "count"),
    ("groups.subgroups.found", "count"),
    ("groups.generated.self_s", "s"), ("groups.generated.calls", "count"),
    ("groups.is_invariant_modulo.self_s", "s"), ("groups.is_invariant_modulo.calls", "count"),
    ("groups.verify_group.self_s", "s"),
    ("constructions.self_s", "s"),
    ("presentations.is_adequate.self_s", "s"), ("presentations.is_adequate.calls", "count"),
    ("presentations.is_invariant_modulo_equiv.self_s", "s"),
    ("presentations.is_invariant_modulo_equiv.calls", "count"),
    ("presentations.quotient.self_s", "s"),
    ("simplicity.reflector_congruences.self_s", "s"),
    ("simplicity.reflector_congruences.calls", "count"),
    ("simplicity.reflector_congruences.found", "count"),
    ("simplicity.quotient_by.self_s", "s"), ("simplicity.quotient_by.calls", "count"),
    ("simplicity.reflets.kept", "count"),
    ("simplicity.invariant_modulo_subgroups.self_s", "s"),
    ("simplicity.invariant_modulo_subgroups.calls", "count"),
    ("simplicity.is_simple_coset.self_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self._patched: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = COUNTS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = count(args, result) if count is not None and result is not None else 0
                spans[idx] = (name, start, end, parent, n, self.job)
        return wrapper

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "hypergroups" or k.startswith("hypergroups.")}
        for layer, names in WRAPPED.items():
            home = mods[f"hypergroups.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def metrics(self, overhead_s: float) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict = {}
        calls: dict = {}
        counts: dict = {}
        for i, (name, start, end, _, n, _) in enumerate(self.spans):
            key = "constructions" if name.startswith("constructions.") else name
            self_s[key] = self_s.get(key, 0.0) + (end - start - child[i])
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + n
        derived = {"trace.overhead_s": overhead_s,
                   "core.verify_axioms.triples": counts.get("core.verify_axioms", 0),
                   "groups.subgroups.found": counts.get("groups.subgroups", 0),
                   "simplicity.reflector_congruences.found":
                       counts.get("simplicity.reflector_congruences", 0),
                   "simplicity.reflets.kept": counts.get("simplicity.reflets", 0)}
        out = {}
        for metric, unit in METRICS:
            if metric in derived:
                value = derived[metric]
            elif metric.endswith(".self_s"):
                value = self_s.get(metric[:-len(".self_s")], 0.0)
            else:
                value = calls.get(metric[:-len(".calls")], 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Spans as JSON: names once, then [name, start, end, parent, count, job]."""
        names = sorted({s[0] for s in self.spans})
        index = {s: i for i, s in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[s[0]], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4], s[5]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
