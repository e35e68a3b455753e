"""Spans around calls into ``openxxz``, installed from outside the package.

:class:`Tracer` replaces each traced function by a wrapper in every
``openxxz`` module namespace that binds it (``from .x import f`` bindings
included), and each traced method on its class, only while a traced op or
setup runs.  A wrapper records one span (name, start, end, parent span) per
call; the spans stay in memory in flat arrays and are written once, at the
end of the run.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, qualified name) of every traced function or method
TRACED = (
    ("lattice", "transfer"), ("lattice", "u_minus"), ("lattice", "bulk_monodromy"),
    ("lattice", "site_op"), ("lattice", "AuxOp.__matmul__"),
    ("gauge", "sos_block"), ("gauge", "u_tilde"), ("gauge", "s_chain"),
    ("sov", "SovBasis.__init__"), ("sov", "big_a_eps"), ("sov", "sov_norm_const"),
    ("spectrum", "brute_spectrum"), ("spectrum", "solve_tq"),
    ("scalar", "sp_direct"), ("scalar", "separate_state"), ("scalar", "sp_sov"),
    ("scalar", "sp_thm52"), ("scalar", "f_eps"),
    ("detid", "generic_point_set"), ("detid", "check_identity_D"),
    ("detid", "check_identity_E"), ("detid", "a_functional"),
    ("trig", "varsigma"), ("trig", "vdm_hat"), ("trig", "TrigPoly.__call__"),
)

# called millions of times per run, for less work than a span costs: these
# are counted, and their time stays in the caller's self time
COUNTED_ONLY = frozenset({"trig.varsigma"})

# metric stem of a traced name, where it differs from the name itself
STEMS = {"AuxOp.__matmul__": "auxop_matmul", "SovBasis.__init__": "SovBasis",
         "TrigPoly.__call__": "trigpoly_eval"}


class CountingRng:
    """Generator proxy that counts ``uniform`` calls; draws are unchanged."""

    def __init__(self, rng):
        self._rng = rng
        self.uniform_calls = 0

    def uniform(self, *args, **kwargs):
        self.uniform_calls += 1
        return self._rng.uniform(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("H")
        self.parent = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = []
        self.active = False
        self.counts = {}
        self.matmul_flop = 0.0
        self.singular_ratios = []
        self.samplers = []
        self._patches = []

    # -- installation -------------------------------------------------------

    def prepare(self):
        """Build a wrapper for each traced function and find its bindings."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "openxxz" or name.startswith("openxxz.")]
        for mod_name, qual in TRACED:
            mod = sys.modules[f"openxxz.{mod_name}"]
            span_name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig, self._wrap(span_name, orig)))
                continue
            orig = getattr(mod, qual)
            wrapper = self._wrap(span_name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig, wrapper))

    def start(self):
        """Put the wrappers in place; untraced code never runs through them."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.active = True

    def stop(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)
        self.active = False

    def counting_rng(self, rng):
        proxy = CountingRng(rng)
        if self.active:
            self.samplers.append(proxy)
        return proxy

    def _wrap(self, span_name, fn):
        if span_name in COUNTED_ONLY:
            return self._wrap_counter(span_name, fn)
        idx = len(self.names)
        self.names.append(span_name)
        hook = {"lattice.AuxOp.__matmul__": self._count_matmul,
                "spectrum.solve_tq": self._keep_ratio}.get(span_name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tr.starts)
            tr.name_id.append(idx)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.ends.append(0.0)
            tr._stack.append(sid)
            tr.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.ends[sid] = perf_counter()
                tr._stack.pop()
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    def _wrap_counter(self, span_name, fn):
        self.counts[span_name] = 0
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.counts[span_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_matmul(self, args, out):
        # einsum "ikab,kjbc->ijac" on 2x2 blocks of dim d: 8 d^3 complex
        # multiply-adds, 8 real flops each
        d = args[0].blocks.shape[2]
        self.matmul_flop += 64.0 * d ** 3

    def _keep_ratio(self, args, out):
        self.singular_ratios.append(out.singular_ratio)

    # -- results ------------------------------------------------------------

    def _arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.starts, dtype=np.float64)
        end = np.frombuffer(self.ends, dtype=np.float64)
        return name_id, parent, start, end

    def metrics(self):
        """Self time, calls and module totals, keyed by metric name."""
        name_id, parent, start, end = self._arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_by_name = np.bincount(name_id, weights=self_time, minlength=k)
        out = {"trace.spans": (float(len(dur)), "count")}
        modules = {}
        for i, span_name in enumerate(self.names):
            mod, qual = span_name.split(".", 1)
            stem = f"{mod}.{STEMS.get(qual, qual)}"
            out[f"{stem}_s"] = (float(self_by_name[i]), "s")
            out[f"{stem}_calls"] = (float(calls[i]), "count")
            modules[mod] = modules.get(mod, 0.0) + float(self_by_name[i])
        for span_name, count in self.counts.items():
            out[f"{span_name}_calls"] = (float(count), "count")
        for mod, total in modules.items():
            out[f"{mod}.self_s"] = (total, "s")
        out["lattice.auxop_matmul_gflop"] = (self.matmul_flop / 1e9, "Gflop")
        out["spectrum.solve_tq_singular_ratio_p50"] = (
            float(np.median(self.singular_ratios)) if self.singular_ratios else 0.0, "ratio")
        out["detid.generic_point_set_tries"] = (
            float(sum(s.uniform_calls for s in self.samplers) // 2), "count")
        return out

    def write(self, path):
        """Write every span to an .npz file: the span-name table, and per span
        its name index, parent span index (-1 for none), start and end in
        seconds of ``time.perf_counter``."""
        name_id, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id.astype(np.uint16),
                 parent=parent, start=start, end=end)
