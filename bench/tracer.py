"""Outside-in span tracer for the singwave layers.

`install()` replaces every public function of the layer modules with a
timing wrapper, in every module namespace that binds it. That covers the
names a module re-imports from another (`spectrum.kummer_m`,
`cli.find_eigenvalues`, `verify.projection_condition`, ...) and the lazy
`from .x import y` inside function bodies, which read the patched module
attribute at call time. Private helpers are not wrapped; their time is self
time of the nearest wrapped caller.

Each span records its id, its parent's id, a name, start and end, and its
self time: the duration minus the part covered by its child spans. Spans
stay in memory in flat arrays and are written out when the run ends.
Recursive re-entry (`kummer_m` calling itself through the Kummer
transformation) is a child span, so no time is counted twice; it is flagged
and not counted as a separate call.

Work sent to a forked worker pool is traced too: the child inherits the
open spans of the parent, records its own spans under them, and writes
them to `<trace_dir>/worker-<pid>.pkl` whenever it returns to the depth it
was forked at. `merge_workers()` folds those files back in and subtracts the
interval the workers cover from the self time of the waiting parent span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import pickle
from array import array
from time import perf_counter_ns

LAYERS = ("specfun", "spectrum", "data", "evolution", "laplace", "verify",
          "cli")

# bit flags stored per span
REENTRY = 1  # the parent span has the same name
LARGE_Z = 2  # kummer_m argument in the asymptotic / high-precision band

LARGE_Z_ABS = 34.0

_COLUMNS = (("sid", "q"), ("parent", "q"), ("name", "i"), ("t0", "q"),
            ("t1", "q"), ("self_ns", "q"), ("flags", "b"))


def _new_columns():
    return {col: array(code) for col, code in _COLUMNS}


class Tracer:
    def __init__(self, trace_dir):
        self.trace_dir = trace_dir
        self.names = []
        self._name_idx = {}
        self.cols = _new_columns()
        self.counters = {}
        # open spans: [sid, name_idx, t0, child_ns]
        self.stack = []
        self._pid = os.getpid()
        self._next = self._pid << 32
        self._worker_depth = None
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------ recording

    def name_index(self, name):
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def enter(self, name_idx):
        self._next += 1
        self.stack.append([self._next, name_idx, perf_counter_ns(), 0])

    def exit(self, flags=0):
        t1 = perf_counter_ns()
        sid, name_idx, t0, child_ns = self.stack.pop()
        dur = t1 - t0
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
            if parent[1] == name_idx:
                flags |= REENTRY
        c = self.cols
        c["sid"].append(sid)
        c["parent"].append(parent[0] if parent is not None else 0)
        c["name"].append(name_idx)
        c["t0"].append(t0)
        c["t1"].append(t1)
        c["self_ns"].append(dur - child_ns)
        c["flags"].append(flags)
        if self._worker_depth is not None \
                and len(self.stack) == self._worker_depth:
            self._flush_worker()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        self.enter(self.name_index(name))
        try:
            yield
        finally:
            self.exit()

    # ---------------------------------------------------- forked pool workers

    def _after_fork(self):
        self._pid = os.getpid()
        self._next = self._pid << 32
        self.cols = _new_columns()
        self.counters = {}
        self._worker_depth = len(self.stack)

    def _flush_worker(self):
        path = os.path.join(self.trace_dir, f"worker-{self._pid}.pkl")
        # one pickle record per return to the fork depth; read back only by
        # merge_workers() in the process that started the pool
        with open(path, "ab") as fh:
            self._dump(fh)
        self.cols = _new_columns()
        self.counters = {}

    def merge_workers(self):
        """Fold worker spans into this tracer; the waiting parent's self
        time loses the interval its worker children cover."""
        by_parent = {}
        for fname in sorted(os.listdir(self.trace_dir)):
            if not fname.startswith("worker-"):
                continue
            with open(os.path.join(self.trace_dir, fname), "rb") as fh:
                while True:
                    try:
                        rec = pickle.load(fh)
                    except EOFError:
                        break
                    self._merge_record(rec, by_parent)
            os.remove(os.path.join(self.trace_dir, fname))
        if not by_parent:
            return
        sid = self.cols["sid"]
        self_ns = self.cols["self_ns"]
        for i in range(len(sid)):
            spans = by_parent.get(sid[i])
            if spans:
                self_ns[i] = max(0, self_ns[i] - _union_ns(spans))

    def _merge_record(self, rec, by_parent):
        remap = [self.name_index(n) for n in rec["names"]]
        cols = {}
        for col, code in _COLUMNS:
            a = array(code)
            a.frombytes(rec["cols"][col])
            cols[col] = a
        own = set(cols["sid"])
        for i in range(len(cols["sid"])):
            for col, _code in _COLUMNS:
                v = cols[col][i]
                self.cols[col].append(remap[v] if col == "name" else v)
            parent = cols["parent"][i]
            if parent not in own:  # opened before the fork
                by_parent.setdefault(parent, []).append(
                    (cols["t0"][i], cols["t1"][i]))
        for key, v in rec["counters"].items():
            self.count(key, v)

    # ------------------------------------------------------------- results

    def aggregate(self):
        """{name: {"calls", "spans", "self_ns", "total_ns", "large_z_calls",
        "large_z_self_ns"}} over all recorded spans."""
        out = {}
        c = self.cols
        for i in range(len(c["sid"])):
            name = self.names[c["name"][i]]
            a = out.get(name)
            if a is None:
                a = out[name] = {"calls": 0, "spans": 0, "self_ns": 0,
                                 "total_ns": 0, "large_z_calls": 0,
                                 "large_z_self_ns": 0}
            flags = c["flags"][i]
            a["spans"] += 1
            a["self_ns"] += c["self_ns"][i]
            if not flags & REENTRY:
                a["calls"] += 1
                a["total_ns"] += c["t1"][i] - c["t0"][i]
                if flags & LARGE_Z:
                    a["large_z_calls"] += 1
            if flags & LARGE_Z:
                a["large_z_self_ns"] += c["self_ns"][i]
        return out

    def write(self, path):
        with open(path, "wb") as fh:
            self._dump(fh)

    def _dump(self, fh):
        pickle.dump({"names": self.names,
                     "cols": {k: v.tobytes() for k, v in self.cols.items()},
                     "counters": self.counters}, fh)


def _union_ns(intervals):
    total = 0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


# ----------------------------------------------------------------- counters
# Hooks that read a call's arguments or result, keyed by span name.

def _kummer_flags(args, kwargs):
    z = args[2] if len(args) > 2 else kwargs.get("z", 0)
    return LARGE_Z if abs(complex(z)) >= LARGE_Z_ABS else 0


def _after_find_eigenvalues(tracer, args, kwargs, result):
    tracer.count("spectrum.eigenvalues_returned", len(result))


def _after_alpha_sweep(tracer, args, kwargs, result):
    alphas = list(args[0] if args else kwargs["alphas"])
    present = {p.alpha for p in result}
    # alpha = 1 has an empty spectrum, so no rows is the right answer there
    dropped = sum(1 for a in alphas if a not in present and a != 1.0)
    tracer.count("spectrum.alpha_sweep.points", len(alphas))
    tracer.count("spectrum.sweep_points_dropped", dropped)


def _after_simulate(tracer, args, kwargs, result):
    steps = len(result.trace.times) - 1
    tracer.count("evolution.simulate.steps", steps)
    tracer.count("evolution.simulate.node_steps", steps * result.grid.N)


_FLAGS = {"specfun.kummer_m": _kummer_flags}
_AFTER = {"spectrum.find_eigenvalues": _after_find_eigenvalues,
          "spectrum.alpha_sweep": _after_alpha_sweep,
          "evolution.simulate": _after_simulate}


def _wrap(tracer, fn, name):
    idx = tracer.name_index(name)
    flags_of = _FLAGS.get(name)
    after = _AFTER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(idx)
        flags = 0
        try:
            if flags_of is not None:
                flags = flags_of(args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        finally:
            tracer.exit(flags)

    return wrapper


def install(tracer):
    """Wrap the public functions of every layer wherever they are bound.
    Returns the number of distinct functions wrapped."""
    modules = [importlib.import_module(f"singwave.{m}") for m in LAYERS]
    wrappers = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__ or ""
            if not home.startswith("singwave."):
                continue
            w = wrappers.get(obj)
            if w is None:
                name = f"{home.split('.', 1)[1]}.{obj.__name__}"
                w = wrappers[obj] = _wrap(tracer, obj, name)
            setattr(mod, attr, w)
    return len(wrappers)
