"""Span recording around the public callables of `grrs`, from outside it.

`Tracer.install()` replaces each listed callable by a wrapper that records
one span per call: its duration, the time covered by the spans it encloses
(so self time = duration - child time), and the caller's span.  Functions
are re-bound in every `grrs` module that holds them by name, so calls across
module boundaries are caught; methods are wrapped on their class.

Spans are aggregated in memory per callable and per (caller, callee) edge and
read out once the workload has ended.  The benchmark opens a root span per
operation (`Tracer.root`), so the self times of all spans add up to the time
spent inside the operations.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, qualified name) of every traced callable; names in the report are
# "<module>.<qualname>".
TRACED = [
    ("linalg", "BilinearSpace.form"),
    ("linalg", "BilinearSpace.in_kernel"),
    ("linalg", "rref"),
    ("linalg", "solve_in_span"),
    ("linalg", "hnf_int"),
    ("linalg", "Lattice.from_vectors"),
    ("linalg", "Lattice.intersect"),
    ("linalg", "Lattice.residue"),
    ("linalg", "Lattice.coset_representatives"),
    ("finite", "FiniteRootSystem.__init__"),
    ("finite", "check_axioms"),
    ("finite", "gw_orbits"),
    ("finite", "weyl_orbits"),
    ("finite", "isomorphic_finite"),
    ("finite", "generate_subsystem"),
    ("symbolic", "SymbolicRootSystem.__init__"),
    ("symbolic", "from_finite"),
    ("symbolic", "check_symbolic_axioms"),
    ("symbolic", "CosetSet.__init__"),
    ("symbolic", "CosetSet.subset_of"),
    ("symbolic", "CosetSet.contains"),
    ("catalog", "build"),
    ("catalog", "family"),
    ("catalog", "a_nn_x"),
    ("classify", "canonical_mask"),
    ("classify", "canonical_pair"),
    ("classify", "recognize_cl"),
    ("classify", "identify"),
    ("classify", "enumerate_classes"),
    ("serialize", "dumps"),
    ("serialize", "loads"),
    ("cli", "main"),
]

# Per-call counters beyond calls and times: key -> f(args, result) -> {name: n}
COUNTERS = {
    "serialize.dumps": lambda args, out: {"bytes": len(out)},
    "serialize.loads": lambda args, out: {"bytes": len(args[0])},
    "cli.main": lambda args, out: {f"exit_{out}": 1},
}


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "raised", "active", "counters")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0  # outermost activations only, so recursion is not double counted
        self.raised = 0
        self.active = 0
        self.counters = {}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.edges = {}  # (caller key, callee key) -> calls
        self.roots = []  # (name, start, end, self_s) per root span
        # frames: [child time, key]; the bottom frame collects spans made
        # outside every root span
        self.outside = [0.0, "outside"]
        self._stack = [self.outside]

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, Stat())
        count = COUNTERS.get(key)
        stack, edges = self._stack, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, key]
            stack.append(frame)
            stat.active += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if not stat.active:
                    stat.total_s += dt
                parent[0] += dt
                edge = (parent[1], key)
                edges[edge] = edges.get(edge, 0) + 1
            if count is not None:
                for name, n in count(args, out).items():
                    stat.counters[name] = stat.counters.get(name, 0) + n
            return out

        return traced

    def install(self):
        """Wrap every callable in TRACED; call after `grrs` is imported."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "grrs" or name.startswith("grrs."))
        }
        for modname, qualname in TRACED:
            key = f"{modname}.{qualname}"
            owner = modules[f"grrs.{modname}"]
            if "." in qualname:
                clsname, attr = qualname.split(".")
                cls = getattr(owner, clsname)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self._wrap(key, raw.__func__)))
                else:
                    setattr(cls, attr, self._wrap(key, raw))
                continue
            fn = getattr(owner, qualname)
            wrapped = self._wrap(key, fn)
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, name, wrapped)

    @contextmanager
    def root(self, name):
        """A top-level span: everything below it is attributed to it."""
        if len(self._stack) != 1:
            raise RuntimeError("root spans do not nest")
        frame = [0.0, f"op:{name}"]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.roots.append((name, t0, t1, (t1 - t0) - frame[0]))
