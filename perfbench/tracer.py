"""Span tracer that wraps the public functions of the residua modules from
outside, plus the per-layer metrics computed from what it records.

Installing rebinds every module attribute that holds a wrapped function
(the package uses `from .x import f` throughout, so one function can sit
in several module namespaces) and then fails loudly if any residua module
still holds an unwrapped original.  Each call records a span (name,
parent span, start, end, raised or not) in compact arrays kept in memory
and written out by `dump_spans`; calls, inclusive and self seconds are
also summed per (name, parent name) pair as the calls happen.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time
from array import array
from math import comb

# modules whose public functions are wrapped; `ring` and `field` are not:
# their module functions are per monomial or per coefficient
WRAPPED_MODULES = (
    "groebner", "ideals", "fitting", "koszul", "residual", "corpus", "instances", "cli",
)
# the polynomial layer is traced at these four methods only
RING_METHODS = (
    ("ring.add", "Polynomial", "__add__"),
    ("ring.mul", "Polynomial", "__mul__"),
    ("ring.mul_term", "Polynomial", "mul_term"),
    ("ring.from_dict", "PolyRing", "from_dict"),
)
MODULE_ENGINE = ("groebner.syzygies", "groebner.express_in_terms", "groebner.module_member")


def _key(*ideals) -> str:
    """Digest of the generator tuples of the given ideals."""
    text = repr(tuple(tuple(g.terms for g in I.generators) for I in ideals))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _minors_submatrices(ring, matrix, r, *_a, **_k) -> int:
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if r <= 0 or r > min(rows, cols):
        return 0
    return comb(rows, r) * comb(cols, r)


# calls whose arguments are keyed, to measure how often inputs repeat
KEYED = {
    "ideals.colon": lambda a, I, *_r, **_k: _key(a, I),
    "ideals.height": lambda I, *_r, **_k: _key(I),
    "ideals.min_gens": lambda I, *_r, **_k: _key(I),
}


class Tracer:
    def __init__(self):
        self.names = ["<root>"]
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("f")   # seconds since the tracer was created
        self.span_end = array("f")
        self.span_ok = array("b")
        # (name id, parent name id) -> [calls, incl_s, self_s, returned, zero results]
        self.pairs = {}
        self.keys = {name: set() for name in KEYED}
        self.submatrices = 0
        self.t_base = time.perf_counter()
        # frames: [name id, span index, child seconds]
        self.stack = [[0, -1, 0.0]]
        self.active = [0]
        self.originals = {}    # id(original) -> (name, original)
        self.wrappers = {}     # name -> wrapper

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.active.append(0)
        stack, active, pairs = self.stack, self.active, self.pairs
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end, s_ok = self.span_start, self.span_end, self.span_ok
        base, clock = self.t_base, time.perf_counter
        keyer = KEYED.get(name)
        keys = self.keys.get(name)
        is_nf = name == "groebner.normal_form"
        is_minors = name == "fitting.minors"
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(parent[1])
            s_end.append(0.0)
            s_ok.append(0)
            frame = [nid, idx, 0.0]
            stack.append(frame)
            active[nid] += 1
            returned = False
            t0 = clock()
            s_start.append(t0 - base)
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = clock()
                stack.pop()
                active[nid] -= 1
                dur = t1 - t0
                parent[2] += dur
                s_end[idx] = t1 - base
                s_ok[idx] = returned
                agg = pairs.get((nid, parent[0]))
                if agg is None:
                    agg = pairs[(nid, parent[0])] = [0, 0.0, 0.0, 0, 0]
                agg[0] += 1
                if not active[nid]:
                    agg[1] += dur
                agg[2] += dur - frame[2]
            agg[3] += 1
            if is_nf and result.is_zero():
                agg[4] += 1
            elif keyer is not None:
                keys.add(keyer(*args, **kwargs))
            elif is_minors:
                tracer.submatrices += _minors_submatrices(*args, **kwargs)
            return result

        traced.__wrapped__ = fn
        self.originals[id(fn)] = (name, fn)
        self.wrappers[name] = traced
        return traced

    def install(self):
        """Wrap and rebind everywhere, then check nothing was missed."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "residua" or n.startswith("residua.")}
        for short in WRAPPED_MODULES:
            mod = mods.get(f"residua.{short}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._wrap(f"{short}.{attr}", obj)
        ring = mods["residua.ring"]
        for name, cls_name, attr in RING_METHODS:
            cls = getattr(ring, cls_name)
            setattr(cls, attr, self._wrap(name, vars(cls)[attr]))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = self.originals.get(id(obj))
                if hit is not None and hit[1] is obj:
                    setattr(mod, attr, self.wrappers[hit[0]])
        self.check_installed(mods)

    def check_installed(self, mods):
        leftovers = []
        for mod_name, mod in mods.items():
            for attr, obj in vars(mod).items():
                hit = self.originals.get(id(obj))
                if hit is not None and hit[1] is obj:
                    leftovers.append(f"{mod_name}.{attr} -> {hit[0]}")
        ring = mods["residua.ring"]
        for name, cls_name, attr in RING_METHODS:
            if vars(getattr(ring, cls_name))[attr] is not self.wrappers[name]:
                leftovers.append(f"residua.ring.{cls_name}.{attr} -> {name}")
        if leftovers:
            raise RuntimeError("tracer left unwrapped originals: " + "; ".join(leftovers))

    def ring_calls(self) -> int:
        """Calls into the polynomial layer so far: a deterministic measure
        of arithmetic work."""
        ring_ids = {i for i, n in enumerate(self.names) if n.startswith("ring.")}
        return sum(agg[0] for (nid, _p), agg in self.pairs.items() if nid in ring_ids)

    def clear_spans(self):
        """Drop the recorded spans (aggregates stay); call between ops."""
        if len(self.stack) != 1:
            raise RuntimeError("clear_spans inside an open span")
        for arr in (self.span_name, self.span_parent, self.span_start,
                    self.span_end, self.span_ok):
            del arr[:]

    # -- output --------------------------------------------------------------

    def profile(self) -> dict:
        """Mergeable summary: pair aggregates, input keys, minor counts."""
        pairs = {}
        for (nid, pid), agg in self.pairs.items():
            pairs[f"{self.names[nid]}|{self.names[pid]}"] = list(agg)
        return {
            "pairs": pairs,
            "keys": {name: sorted(ks) for name, ks in self.keys.items()},
            "submatrices": self.submatrices,
            "spans": len(self.span_name),
        }

    def dump_spans(self, path):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "arrays": [["name", "H"], ["parent", "i"], ["start", "f"],
                       ["end", "f"], ["returned", "b"]],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end, self.span_ok):
                arr.tofile(fh)


def merge_profiles(profiles) -> dict:
    out = {"pairs": {}, "keys": {}, "submatrices": 0, "spans": 0}
    for prof in profiles:
        for k, agg in prof["pairs"].items():
            cur = out["pairs"].setdefault(k, [0, 0.0, 0.0, 0, 0])
            for i, v in enumerate(agg):
                cur[i] += v
        for name, ks in prof["keys"].items():
            out["keys"].setdefault(name, set()).update(ks)
        out["submatrices"] += prof["submatrices"]
        out["spans"] += prof["spans"]
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

COUNT, SECONDS, RATIO = "count", "s", "ratio"


def layer_metrics(profile: dict, extra: dict) -> dict:
    """Per-layer metrics from a merged profile.  `extra` carries the
    values measured outside the tracer (import time, traced and untraced
    sweep seconds)."""
    by_name = {}
    by_pair = {}
    for k, agg in profile["pairs"].items():
        name, parent = k.split("|")
        by_pair[(name, parent)] = agg
        cur = by_name.setdefault(name, [0, 0.0, 0.0, 0, 0])
        for i, v in enumerate(agg):
            cur[i] += v

    def stat(name, i):
        return by_name.get(name, [0, 0.0, 0.0, 0, 0])[i]

    def pair(name, parent, i):
        return by_pair.get((name, parent), [0, 0.0, 0.0, 0, 0])[i]

    def module_self(prefix):
        return sum(agg[2] for name, agg in by_name.items() if name.startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    def distinct(name):
        return ratio(len(profile["keys"].get(name, ())), stat(name, 0))

    spairs = pair("groebner.normal_form", "groebner.buchberger", 0)
    spair_zero = pair("groebner.normal_form", "groebner.buchberger", 4)
    ladder_in_gen = pair("residual.height_ladder_ok", "residual.generic_generators", 0)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for short in ("add", "mul_term", "mul"):
        put(f"ring.{short}.calls", stat(f"ring.{short}", 0), COUNT)
        put(f"ring.{short}.self_s", stat(f"ring.{short}", 2), SECONDS)
    put("ring.from_dict.calls", stat("ring.from_dict", 0), COUNT)
    for short in ("buchberger", "normal_form"):
        put(f"groebner.{short}.calls", stat(f"groebner.{short}", 0), COUNT)
        put(f"groebner.{short}.self_s", stat(f"groebner.{short}", 2), SECONDS)
    put("groebner.spair_reductions", spairs, COUNT)
    put("groebner.spair_zero_ratio", ratio(spair_zero, spairs), RATIO)
    put("groebner.reduce_basis.self_s", stat("groebner.reduce_basis", 2), SECONDS)
    put("groebner.divide_exact.self_s", stat("groebner.divide_exact", 2), SECONDS)
    put("groebner.module.calls", sum(stat(n, 0) for n in MODULE_ENGINE), COUNT)
    put("groebner.module.self_s", sum(stat(n, 2) for n in MODULE_ENGINE), SECONDS)
    put("ideals.colon.calls", stat("ideals.colon", 0), COUNT)
    put("ideals.colon.incl_s", stat("ideals.colon", 1), SECONDS)
    put("ideals.colon.distinct_ratio", distinct("ideals.colon"), RATIO)
    put("ideals.intersect.calls", stat("ideals.intersect", 0), COUNT)
    put("ideals.intersect.incl_s", stat("ideals.intersect", 1), SECONDS)
    put("ideals.height.calls", stat("ideals.height", 0), COUNT)
    put("ideals.height.distinct_ratio", distinct("ideals.height"), RATIO)
    put("ideals.min_gens.calls", stat("ideals.min_gens", 0), COUNT)
    put("ideals.min_gens.distinct_ratio", distinct("ideals.min_gens"), RATIO)
    put("ideals.dimension.calls", stat("ideals.dimension", 0), COUNT)
    put("fitting.minors.calls", stat("fitting.minors", 0), COUNT)
    put("fitting.minors.submatrices", profile["submatrices"], COUNT)
    put("fitting.self_s", module_self("fitting."), SECONDS)
    for short in ("homology_lifts", "kitt", "kitt_via_cycles", "fitt0_via_Z1"):
        put(f"koszul.{short}.incl_s", stat(f"koszul.{short}", 1), SECONDS)
    put("koszul.self_s", module_self("koszul."), SECONDS)
    put("residual.hypotheses.incl_s", sum(
        pair(f"residual.{n}", "residual.verify", 1)
        for n in ("is_residual", "height_ladder_ok")
    ) + pair("ideals.check_Gs", "residual.verify", 1), SECONDS)
    put("residual.lhs.incl_s", pair("ideals.colon", "residual.verify", 1), SECONDS)
    put("residual.rhs.incl_s", pair("residual.rhs_formula", "residual.verify", 1)
        + pair("koszul.kitt", "residual.verify", 1), SECONDS)
    put("residual.height_ladder.calls", stat("residual.height_ladder_ok", 0), COUNT)
    put("residual.genericity.useful_ratio",
        ratio(stat("residual.generic_generators", 3), ladder_in_gen), RATIO)
    put("corpus.generate_instance.calls", stat("corpus.generate_instance", 0), COUNT)
    put("corpus.generate_instance.incl_s", stat("corpus.generate_instance", 1), SECONDS)
    put("cli.import_s", extra["cli_import_s"], SECONDS)
    put("instances.parse_instance.incl_s", stat("instances.parse_instance", 1), SECONDS)
    put("cli.main.incl_s", stat("cli.main", 1), SECONDS)
    put("trace.sweep_s", extra["traced_sweep_s"], SECONDS)
    put("trace.overhead_s", extra["traced_sweep_s"] - extra["untraced_sweep_s"], SECONDS)
    put("trace.spans", profile["spans"], COUNT)
    return m


# counts that must repeat exactly between two traced runs on one seed
def work_counts(metrics: dict) -> dict:
    return {
        k: v["value"] for k, v in metrics.items()
        if k.endswith(".calls") or k.endswith(".distinct_ratio")
        or k in ("groebner.spair_reductions", "groebner.spair_zero_ratio",
                 "fitting.minors.submatrices", "residual.genericity.useful_ratio",
                 "trace.spans")
    }
