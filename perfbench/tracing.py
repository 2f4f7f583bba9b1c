"""Per-layer tracing from outside the package.

The tracer wraps the listed functions of each layer module and records one
span per call: name, start, end, parent span and operation id.  Spans are
kept in flat arrays while the run lasts and turned into per-layer metrics
(call counts, self time, shares and ratios) when it ends.

Modules import functions by name (``from .linalg import vec``), so a
function object can be reachable under several module globals.  Wrapping
rebinds every ``aproots.*`` module global that is the same object as the
defining attribute; methods are wrapped on their class.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, qualified name) of every traced function, grouped by layer.
LAYERS = {
    "linalg": ["vec", "solve_general", "in_simplicial_cone", "inverse", "mat_vec"],
    "cartan": ["AffineContext.is_real_root", "AffineContext.ensure_level",
               "AffineContext.coroot_coords"],
    "coxeter": ["CoxeterContext.__init__", "CoxeterContext.phi_c_class",
                "CoxeterContext.tau", "CoxeterContext.sigma"],
    "almost_positive": ["enumerate_phi_c"],
    "compatibility": ["degree", "compatibility_degree", "compat_arrows",
                      "coroot_coordinates", "tube_support"],
    "expansion": ["cluster_expansion", "rotate_affine", "expand_in_parabolic",
                  "imaginary_expansion", "in_delta_cone_interior"],
    "clusters": ["exchange", "enumerate_clusters", "is_cluster",
                 "cones_intersect_in_face", "nu_inverse"],
    "mutation": ["Seed.mutate", "poly_mul", "poly_div_exact", "seed_bfs"],
    "oracle_bridge": ["verify_bijection", "conjecture_evidence"],
}

TRACED = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# Span name of one benchmark operation; its self time is benchmark code.
OP_SPAN = "bench.op"


def _observe_poly_mul(counters, args, result):
    counters["term_pairs"] += len(args[0]) * len(args[1])
    counters["max_terms"] = max(counters["max_terms"], len(result))


def _observe_poly_div(counters, args, result):
    counters["max_terms"] = max(counters["max_terms"], len(result))


def _observe_cone(counters, args, result):
    counters["cone_hits"] += result is not None


def _observe_rotate(counters, args, result):
    counters["letters"] += len(result[0])


def _observe_level(counters, args, result):
    counters["max_level"] = max(counters["max_level"], args[1])


OBSERVERS = {
    "mutation.poly_mul": _observe_poly_mul,
    "mutation.poly_div_exact": _observe_poly_div,
    "linalg.in_simplicial_cone": _observe_cone,
    "expansion.rotate_affine": _observe_rotate,
    "cartan.AffineContext.ensure_level": _observe_level,
}


class Tracer:
    """Span recorder.  Wrappers call straight through while `on` is false."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.names = [OP_SPAN]
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {"term_pairs": 0, "max_terms": 0, "cone_hits": 0,
                         "letters": 0, "max_level": 0}

    def _wrapper(self, key, fn):
        nid = len(self.names)
        self.names.append(key)
        observe = OBSERVERS.get(key)
        tracer = self
        name, parent, op_id = self.name, self.parent, self.op_id
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            op_id.append(tracer.op)
            stack.append(idx)
            start.append(clock())
            end.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, api):
        """Wrap every function in LAYERS inside the imported package `api`.

        Returns the number of module globals rebound, defining ones included.
        """
        modules = [m for k, m in sys.modules.items()
                   if k == api.__name__ or k.startswith(api.__name__ + ".")]
        rebound = 0
        for key in TRACED:
            mod_name, qual = key.split(".", 1)
            mod = sys.modules[f"{api.__name__}.{mod_name}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrapper(key, cls.__dict__[meth]))
                rebound += 1
                continue
            fn = getattr(mod, qual)
            wrapped = self._wrapper(key, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)
                        rebound += 1
        return rebound

    def op_span(self, op):
        """Context manager marking one benchmark operation."""
        return _OpSpan(self, op)

    def dump(self, path):
        """Write the spans (gzip: a JSON header line, then the raw arrays)."""
        header = {"names": self.names, "count": len(self.name),
                  "arrays": ["name:i", "parent:i", "op_id:i", "start:d", "end:d"],
                  "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.op_id, self.start, self.end):
                fh.write(arr.tobytes())

    def metrics(self, traced_wall):
        """Per-layer metrics from the recorded spans.

        `traced_wall` is the traced timed region's wall time; shares and
        `clusters.exchange.wall_frac` are fractions of it.
        """
        names, nid = self.names, self.name
        idx_of = {n: i for i, n in enumerate(names)}
        count = len(nid)
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        for i in range(count):
            k = nid[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]

        def ancestor_flags(target):
            """flags[i]: span i has an ancestor named `target`.  Parents are
            recorded before their children, so one forward pass suffices."""
            tid = idx_of[target]
            flags = bytearray(count)
            for i in range(count):
                p = self.parent[i]
                if p >= 0 and (nid[p] == tid or flags[p]):
                    flags[i] = 1
            return flags

        def nested_calls(inner, flags):
            iid = idx_of[inner]
            return sum(1 for i in range(count) if nid[i] == iid and flags[i])

        out = {}
        for key in TRACED:
            k = idx_of[key]
            out[f"{key}.calls"] = (calls[k], "count")
            out[f"{key}.self_s"] = (self_s[k], "s")
        for mod, fns in LAYERS.items():
            total = sum(self_s[idx_of[f"{mod}.{fn}"]] for fn in fns)
            out[f"{mod}.self_share"] = (total / traced_wall, "fraction")

        def per(num, den):
            return num / den if den else 0.0

        c = self.counters
        ex = idx_of["clusters.exchange"]
        deg = idx_of["compatibility.degree"]
        out["mutation.poly_mul.term_pairs"] = (c["term_pairs"], "count")
        out["mutation.max_terms"] = (c["max_terms"], "terms")
        in_degree = sum(1 for i in range(count)
                        if nid[i] == idx_of["compatibility.compatibility_degree"]
                        and self.parent[i] >= 0 and nid[self.parent[i]] == deg)
        out["compatibility.degree.hit_ratio"] = (
            1.0 - per(in_degree, calls[deg]) if calls[deg] else 0.0, "fraction")
        in_ex = ancestor_flags("clusters.exchange")
        out["clusters.exchange.phi_scans_per_call"] = (
            per(nested_calls("almost_positive.enumerate_phi_c", in_ex), calls[ex]),
            "1/call")
        out["clusters.exchange.degree_calls_per_call"] = (
            per(nested_calls("compatibility.degree", in_ex), calls[ex]), "1/call")
        outer_ex = sum(self.end[i] - self.start[i] for i in range(count)
                       if nid[i] == ex and not in_ex[i])
        out["clusters.exchange.wall_frac"] = (outer_ex / traced_wall, "fraction")
        nu_inv = idx_of["clusters.nu_inverse"]
        out["clusters.nu_inverse.solves_per_call"] = (
            per(nested_calls("linalg.solve_general", ancestor_flags("clusters.nu_inverse")),
                calls[nu_inv]), "1/call")
        cone = idx_of["linalg.in_simplicial_cone"]
        out["linalg.in_simplicial_cone.hit_ratio"] = (
            per(c["cone_hits"], calls[cone]), "fraction")
        rot = idx_of["expansion.rotate_affine"]
        out["expansion.rotate_affine.letters_per_call"] = (
            per(c["letters"], calls[rot]), "1/call")
        out["cartan.ensure_level.max_level"] = (c["max_level"], "level")
        return out


class _OpSpan:
    def __init__(self, tracer, op):
        self.tracer = tracer
        self.op = op

    def __enter__(self):
        t = self.tracer
        t.op = self.op
        if t.on:
            self.idx = len(t.name)
            t.name.append(0)
            t.parent.append(-1)
            t.op_id.append(self.op)
            t.stack.append(self.idx)
            t.start.append(time.perf_counter())
            t.end.append(0.0)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if t.on:
            t.end[self.idx] = time.perf_counter()
            t.stack.pop()
        return False
