"""Traced runs: spans around the package's public functions, from outside.

``Tracer.install`` replaces each function in SPECS at every binding it is
called through: the defining module, every ``curlsharp`` module that
copied it with ``from ... import``, every class attribute that aliases it
(``__radd__ = __add__``) and, for the certificate reference builders, the
entries of ``certificates.REFERENCES`` in place.  ``uninstall`` puts the
originals back.  Only modules already imported are patched, so a workload
imports nothing it would not import untraced.

A span records (name, start, end, parent, op id, self time, tag), where
self time is the span's duration minus its direct children's.  Functions
called tens of thousands of times per op (the MultiPoly kernel, the mode
evaluations, the polynomial parser) are *kernels*: their spans are summed
per (op, name, parent name) instead of stored one by one, which keeps a
traced certify run in tens of MB.  Everything stays in memory until
``write_spans``.  Calls made outside an op (the output checks) are not
recorded.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Spec:
    module: str
    attr: str  # "func", "Class.method", or "REFERENCES[*]"
    name: str  # span name; its layer is the part before the first "."
    kernel: bool = False
    # tag(arguments by name, result) -> a value kept on the span
    tag: Callable | None = None


SPECS = (
    Spec("curlsharp.cli", "main", "cli"),
    Spec("curlsharp.poly", "MultiPoly.__mul__", "poly.mul", kernel=True),
    Spec("curlsharp.poly", "MultiPoly.__add__", "poly.add", kernel=True),
    Spec("curlsharp.poly", "MultiPoly.subs", "poly.subs", kernel=True),
    Spec("curlsharp.poly", "MultiPoly.subs_many", "poly.subs_many", kernel=True),
    Spec("curlsharp.poly", "parse_poly", "poly.parse", kernel=True),
    Spec("curlsharp.nonneg", "nonneg_on_interval", "nonneg",
         tag=lambda a, r: r[1].method),
    Spec("curlsharp.constants", "rellich_hardy_A", "constants.mode_eval", kernel=True),
    Spec("curlsharp.constants", "rellich_hardy_C", "constants.mode_eval", kernel=True),
    Spec("curlsharp.constants", "rellich_hardy_A_min", "constants.a_min"),
    Spec("curlsharp.constants", "rellich_hardy_C_min", "constants.c_min"),
    Spec("curlsharp.sweep", "sweep_gamma", "sweep", tag=lambda a, r: len(r)),
    Spec("curlsharp.polyfamily", "build_family", "polyfamily.build_family"),
    Spec("curlsharp.certificates", "load_corpus", "certificates.load"),
    Spec("curlsharp.certificates", "parse_certificate", "certificates.parse"),
    Spec("curlsharp.certificates", "REFERENCES[*]", "certificates.reference"),
    Spec("curlsharp.certificates", "check_certificate", "certificates.check",
         tag=lambda a, r: len(a["cert"].n_values)),
    Spec("curlsharp.certificates", "run_suite", "certificates.run_suite",
         tag=lambda a, r: (a.get("regimes") is None,
                           sum(not x.ok for x in r.reports + r.structural))),
    Spec("curlsharp.certificates", "quotient_constant_links", "certificates.links"),
    Spec("curlsharp.certificates", "difference_quotient_guard", "certificates.guard",
         tag=lambda a, r: r[1]),
    Spec("curlsharp.certificates", "interleaving_spot_checks", "certificates.interleave"),
    Spec("curlsharp.spectral", "quadratic_form", "spectral.form",
         tag=lambda a, r: r.rel_diff),
    Spec("curlsharp.spectral", "derivative_norms", "spectral.gl"),
    Spec("curlsharp.spectral", "Profile.make", "spectral.profile"),
    Spec("curlsharp.spectral", "rh_quotient", "spectral.rh_quotient",
         tag=lambda a, r: a["field"].profile.n),
    Spec("curlsharp.spectral", "minimizing_sequence", "spectral.minimizing_sequence",
         tag=lambda a, r: a["params"].N),
    Spec("curlsharp.spectral", "remainder_check", "spectral.remainder"),
    Spec("curlsharp.spectral", "brute_min_tau_nu", "spectral.brute"),
    Spec("curlsharp.oracle", "crosscheck", "oracle.crosscheck",
         tag=lambda a, r: (a["params"].N, a["profile"].n)),
    Spec("curlsharp.oracle", "weighted_integrals", "oracle.integrals",
         tag=lambda a, r: r.est_error),
)

# layers whose calls to build_family are counted apart
FAMILY_CALLERS = ("certificates", "spectral", "oracle")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op, self, tag]
        self.kernels = defaultdict(lambda: [0, 0.0, 0.0])  # (op, name, parent) -> calls, total, self
        self.ops: dict[int, tuple[str, int]] = {}  # op id -> (kind, root span index)
        self._stack: list = []  # frames [name, span index, child time]
        self._op: int | None = None
        self._patches: list = []  # (owner, key, original)
        self._caches: dict = {}  # lru-cached minima -> cache_info at install
        self.cache_hits = self.cache_misses = 0

    # ---- recording ---------------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> None:
        idx = len(self.spans)
        self.spans.append(None)
        self.ops[op_id] = (kind, idx)
        self._op = op_id
        self._stack.append(["op", idx, 0.0, time.perf_counter()])

    def end_op(self) -> None:
        name, idx, child, t0 = self._stack.pop()
        t1 = time.perf_counter()
        self.spans[idx] = [name, t0, t1, -1, self._op, t1 - t0 - child, None]
        self._op = None

    def _wrap(self, spec: Spec, fn):
        tracer, stack, spans, clock = self, self._stack, self.spans, time.perf_counter
        name = spec.name
        if spec.kernel:
            kernels = self.kernels

            def wrapper(*args, **kwargs):
                if tracer._op is None:
                    return fn(*args, **kwargs)
                parent = stack[-1]
                frame = [name, -1, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    parent[2] += dur
                    agg = kernels[(tracer._op, name, parent[0])]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[2]
        else:
            sig = inspect.signature(fn) if spec.tag else None

            def wrapper(*args, **kwargs):
                if tracer._op is None:
                    return fn(*args, **kwargs)
                parent = stack[-1]
                idx = len(spans)
                spans.append(None)
                frame = [name, idx, 0.0]
                stack.append(frame)
                result = None
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    t1 = clock()
                    stack.pop()
                    parent[2] += t1 - t0
                    tag = None
                    if sig is not None and result is not None:
                        tag = spec.tag(sig.bind(*args, **kwargs).arguments, result)
                    spans[idx] = [name, t0, t1, parent[1], tracer._op,
                                  t1 - t0 - frame[2], tag]
        wrapper.__bench_span__ = name
        wrapper.__wrapped__ = fn
        return wrapper

    # ---- patching ----------------------------------------------------------

    def _patch(self, owner, key, replacement) -> None:
        """Rebind ``owner[key]`` (a dict) or ``owner.key`` (a module or class)."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._patches.append((owner, key, vars(owner)[key]))
            setattr(owner, key, replacement)

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "curlsharp" or n.startswith("curlsharp."))]
        by_name = {m.__name__: m for m in mods}
        constants = by_name["curlsharp.constants"]
        self._caches = {f: f.cache_info() for f in (
            constants.rellich_hardy_A_min, constants.rellich_hardy_C_min)}
        for spec in SPECS:
            mod = by_name.get(spec.module)
            if mod is None:
                continue  # not imported by this workload
            if spec.attr == "REFERENCES[*]":
                for key, fn in list(mod.REFERENCES.items()):
                    self._patch(mod.REFERENCES, key, self._wrap(spec, fn))
            elif "." in spec.attr:
                cls_name, meth = spec.attr.split(".")
                cls = getattr(mod, cls_name)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(spec, raw.__func__))
                else:
                    new = self._wrap(spec, raw)
                for key in [k for k, v in vars(cls).items() if v is raw]:
                    self._patch(cls, key, new)
            else:
                orig = getattr(mod, spec.attr)
                new = self._wrap(spec, orig)
                for m in mods:
                    for key in [k for k, v in vars(m).items() if v is orig]:
                        self._patch(m, key, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        for f, before in self._caches.items():
            after = f.cache_info()
            self.cache_hits += after.hits - before.hits
            self.cache_misses += after.misses - before.misses
        self._caches = {}

    # ---- aggregation -------------------------------------------------------

    def _done(self) -> list:
        return [s for s in self.spans if s is not None]

    def self_by_op(self) -> dict[int, float]:
        """Sum of self times (spans and kernels) for each op."""
        out: dict[int, float] = defaultdict(float)
        for s in self._done():
            out[s[4]] += s[5]
        for (op, _, _), (_, _, self_s) in self.kernels.items():
            out[op] += self_s
        return out

    def _family_caller(self, span) -> str | None:
        idx = span[3]
        while idx >= 0:
            parent = self.spans[idx]
            if layer_of(parent[0]) in FAMILY_CALLERS:
                return layer_of(parent[0])
            idx = parent[3]
        return None

    def layer_metrics(self, traced, untraced, setup) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced records, per op unless the unit
        says otherwise, plus set-up stages and tracing overhead."""
        n = len(traced)
        spans = self._done()
        by_name = defaultdict(list)
        for s in spans:
            by_name[s[0]].append(s)
        kern = defaultdict(lambda: [0, 0.0, 0.0])
        kern_parent = defaultdict(int)
        for (_, name, parent), (calls, total, self_s) in self.kernels.items():
            k = kern[name]
            k[0] += calls
            k[1] += total
            k[2] += self_s
            kern_parent[(name, parent)] += calls

        def calls(name):
            return (len(by_name[name]) + kern[name][0]) / n, "count/op"

        def self_s(name):
            return (sum(s[5] for s in by_name[name]) + kern[name][2]) / n, "s/op"

        def incl_s(*names):
            return sum(s[2] - s[1] for nm in names for s in by_name[nm]) / n, "s/op"

        def tag_sum(name, pick=lambda t: t):
            return sum(pick(s[6]) for s in by_name[name] if s[6] is not None) / n, "count/op"

        def tag_max(name):
            return max((s[6] for s in by_name[name] if s[6] is not None), default=0.0), "ratio"

        family = defaultdict(int)
        for s in by_name["polyfamily.build_family"]:
            family[self._family_caller(s)] += 1
        hits, misses = self.cache_hits, self.cache_misses
        nonneg_tags = [s[6] for s in by_name["nonneg"]]
        walls_t = sum(r.wall for r in traced)
        walls_u = sum(r.wall for r in untraced)
        self_total = sum(self.self_by_op().values())

        m = {
            "setup.core_import_s": (statistics.median(setup[0]), "s"),
            "setup.numeric_import_s": (statistics.median(setup[1]), "s"),
            "cli.calls": calls("cli"),
            "cli.self_s": self_s("cli"),
            "cli.out_bytes": (sum(r.out_bytes for r in traced) / n, "B/op"),
        }
        for short in ("mul", "add", "subs", "parse"):
            m[f"poly.{short}.calls"] = calls(f"poly.{short}")
            m[f"poly.{short}.self_s"] = self_s(f"poly.{short}")
        m.update({
            "nonneg.calls": calls("nonneg"),
            "nonneg.self_s": self_s("nonneg"),
            "nonneg.bernstein": (nonneg_tags.count("bernstein") / n, "count/op"),
            "nonneg.sturm": (nonneg_tags.count("sturm") / n, "count/op"),
            "constants.a_min.calls": calls("constants.a_min"),
            "constants.c_min.calls": calls("constants.c_min"),
            "constants.min_s": incl_s("constants.a_min", "constants.c_min"),
            "constants.mode_evals": calls("constants.mode_eval"),
            "constants.mode_eval.self_s": self_s("constants.mode_eval"),
            "constants.min_cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                              "ratio"),
            "sweep.rows": tag_sum("sweep"),
            "sweep.self_s": self_s("sweep"),
        })
        for caller in FAMILY_CALLERS:
            m[f"polyfamily.build_family.calls.{caller}"] = (family[caller] / n, "count/op")
        m.update({
            "polyfamily.build_family_s": incl_s("polyfamily.build_family"),
            "polyfamily.polys_substituted": (
                kern_parent[("poly.subs_many", "polyfamily.build_family")] / n, "count/op"),
            "certificates.load_s": incl_s("certificates.load"),
            "certificates.files_parsed": calls("certificates.parse"),
            "certificates.reference_s": incl_s("certificates.reference"),
            "certificates.check.calls": calls("certificates.check"),
            "certificates.check.self_s": self_s("certificates.check"),
            "certificates.n_instantiations": tag_sum("certificates.check"),
            "certificates.links_s": incl_s("certificates.links"),
            "certificates.link_cells": (
                kern_parent[("constants.mode_eval", "certificates.links")] / n, "count/op"),
            "certificates.guard_s": incl_s("certificates.guard"),
            "certificates.guard_points": tag_sum("certificates.guard"),
            "certificates.interleave_s": incl_s("certificates.interleave"),
            "certificates.reports_failed": tag_sum("certificates.run_suite", lambda t: t[1]),
            "spectral.form.calls": calls("spectral.form"),
            "spectral.form.self_s": self_s("spectral.form"),
            "spectral.gl.calls": calls("spectral.gl"),
            "spectral.gl.s": incl_s("spectral.gl"),
            "spectral.profile.calls": calls("spectral.profile"),
            "spectral.profile.s": incl_s("spectral.profile"),
            "spectral.brute_s": incl_s("spectral.brute"),
            "spectral.backend_rel_diff_max": tag_max("spectral.form"),
            "oracle.crosscheck.calls": calls("oracle.crosscheck"),
            "oracle.crosscheck.self_s": self_s("oracle.crosscheck"),
            "oracle.integrals_s": incl_s("oracle.integrals"),
            "oracle.est_error_max": tag_max("oracle.integrals"),
            "trace.untraced_ops_per_s": (len(untraced) / walls_u, "ops/s"),
            "trace.traced_ops_per_s": (n / walls_t, "ops/s"),
            "trace.overhead": ((len(untraced) / walls_u) / (n / walls_t), "ratio"),
            "trace.self_coverage": (self_total / walls_t, "ratio"),
        })
        return m

    # ---- reporting ---------------------------------------------------------

    def _mean_s(self, name, keep=lambda tag: True) -> tuple[float | None, int]:
        durs = [s[2] - s[1] for s in self._done() if s[0] == name and keep(s[6])]
        return (statistics.mean(durs) if durs else None), len(durs)

    def baseline_rows(self) -> list[tuple[str, float | None, int]]:
        """The ROADMAP baseline table, from spans: (row, mean s, samples)."""
        per_point: dict[int, float] = defaultdict(float)
        for s in self._done():
            if s[0] in ("constants.a_min", "constants.c_min") \
                    and self.ops[s[4]][0] == "constants":
                per_point[s[4]] += s[2] - s[1]
        min_mean = statistics.mean(per_point.values()) if per_point else None
        return [
            ("run_suite() (72 reports)",
             *self._mean_s("certificates.run_suite", lambda t: t is not None and t[0])),
            ("quotient_constant_links(n_max=10)", *self._mean_s("certificates.links")),
            ("difference_quotient_guard() (10k points)", *self._mean_s("certificates.guard")),
            ("build_family(params) per call", *self._mean_s("polyfamily.build_family")),
            ("exact A_min + C_min per gamma (cold cache)", min_mean, len(per_point)),
            ("rh_quotient, bump n=40",
             *self._mean_s("spectral.rh_quotient", lambda t: t == 40)),
            ("minimizing_sequence N=5, ns=10,20,40",
             *self._mean_s("spectral.minimizing_sequence", lambda t: t == 5)),
            ("crosscheck N=3, one nu, n=2",
             *self._mean_s("oracle.crosscheck", lambda t: t == (3, 2))),
        ]

    def print_report(self, traced, untraced) -> None:
        walls = sum(r.wall for r in traced)
        by_layer: dict[str, float] = defaultdict(float)
        for s in self._done():
            by_layer[layer_of(s[0])] += s[5]
        for (_, name, _), (_, _, self_s) in self.kernels.items():
            by_layer[layer_of(name)] += self_s
        print(f"self time by layer over {len(traced)} traced ops "
              f"({walls:.3f} s op wall time; 'op' is the harness around each call):")
        for layer, value in sorted(by_layer.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<14} {value / len(traced):12.6f} s/op {100 * value / walls:6.1f} %")
        print(f"  {'sum':<14} {sum(by_layer.values()) / len(traced):12.6f} s/op "
              f"{100 * sum(by_layer.values()) / walls:6.1f} %")
        print("baseline rows (mean span duration):")
        for label, mean, count in self.baseline_rows():
            shown = "n/a (no span in this workload)" if mean is None \
                else f"{mean * 1e3:10.3f} ms  ({count} spans)"
            print(f"  {label:<44} {shown}")

    def write_spans(self, path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "op", "self", "tag"],
            "spans": self._done(),
            "kernels": [[op, name, parent, *agg]
                        for (op, name, parent), agg in self.kernels.items()],
            "ops": {str(k): v for k, v in self.ops.items()},
        }
        path.write_text(json.dumps(doc, default=str) + "\n")
