"""Outside-in tracing of ffstat's modules for the benchmark's traced run.

Nothing under ``src/`` knows about this file.  ``wrapped(tracer)``
replaces module functions and class methods of ffstat with timing
wrappers and puts the originals back on exit.  A module function is
replaced in every ffstat module that holds it, so calls made inside the
defining module (through its globals) and calls through names imported
elsewhere (``from ._tables import poly_tables``) are both seen.

Every wrapped call is a span: a name, a start, an end and the span that
caused it.  Spans are not kept one by one: the hot calls (``ChiCache.chi``
runs about 4e5 times in one command) would cost more memory than the
work they describe.  Each thread instead keeps a stack of open spans and
folds each closed span into per-name totals: calls, inclusive busy
seconds (outermost call of that name on the thread only) and self
seconds (duration minus the part of its interval covered by child spans).

A span opened on a thread whose stack is empty (a ``ThreadPoolExecutor``
worker) takes as its parent the span open on top of the main thread's
stack, the one waiting for the pool.  Its interval is handed to that
parent, whose self time then subtracts the union of such intervals:
two workers busy at once cover the parent's wait only once.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
import time

# (span name, module, attribute path, metrics read off the span).  The
# name's first part is the layer; ``_tables`` is named ``tables`` because
# metric names must start with a letter or digit.  "s" reports the span's
# inclusive busy seconds as ``<name>.s``, "calls" its call count as
# ``<name>.calls``; every span counts towards its layer's ``self_s``.
TARGETS = (
    ("ffpoly.extension_field", "ffstat.ffpoly", "extension_field", ("s",)),
    ("ffpoly.chi_vector", "ffstat.ffpoly", "ExtensionField.chi_vector", ("s", "calls")),
    ("ffpoly.jacobi_symbol", "ffstat.ffpoly", "jacobi_symbol", ("s", "calls")),
    ("ffpoly.primes", "ffstat.ffpoly", "primes", ("s",)),
    ("ffpoly.enumerate_polys", "ffstat.ffpoly", "enumerate_polys", ("s",)),
    ("tables.poly_tables", "ffstat._tables", "poly_tables", ("s",)),
    ("tables.legendre_array", "ffstat._tables", "PolyTables.legendre_array", ("s", "calls")),
    ("tables.chiq", "ffstat._tables", "PolyTables.chiq", ("s",)),
    ("tables.factor", "ffstat._tables", "PolyTables.factor", ("s", "calls")),
    ("lfunc.l_suite", "ffstat.lfunc", "l_suite", ("s",)),
    ("lfunc.complete_l", "ffstat.lfunc", "complete_l", ("s",)),
    ("lfunc.frobenius_traces", "ffstat.lfunc", "frobenius_traces", ("s",)),
    ("lfunc.rh_max_deviation", "ffstat.lfunc", "rh_max_deviation", ("s",)),
    ("biquad.family_size", "ffstat.biquad", "family_size", ("s",)),
    # builds the monic family on its first call per (q, g), whichever of
    # family_size or cache.family_cached asks first
    ("biquad.monic_triples", "ffstat.biquad", "_monic_triples", ("s",)),
    # one call per family member built; reported as biquad.members
    ("biquad.members", "ffstat.biquad", "CurveTriple.__post_init__", ()),
    ("biquad.pair_sum", "ffstat.biquad", "ChiCache.pair_sum", ("calls",)),
    ("biquad.chi", "ffstat.biquad", "ChiCache.chi", ("calls",)),
    ("biquad.zeta_numerator", "ffstat.biquad", "zeta_numerator", ("s",)),
    ("eulerprod.h_value", "ffstat.eulerprod", "h_value", ("s",)),
    ("eulerprod.prime_sum", "ffstat.eulerprod", "prime_sum", ("s",)),
    ("eulerprod.l_value", "ffstat.eulerprod", "l_value", ("s",)),
    ("moments.average_trace", "ffstat.moments", "average_trace", ("s", "calls")),
    ("moments.error_decomposition", "ffstat.moments", "error_decomposition", ("s", "calls")),
    # the body of one pool task: the root span of each worker thread
    ("moments.scan_family", "ffstat.moments", "_scan_family", ()),
    ("moments.nkk_sums_all", "ffstat.moments", "nkk_sums_all", ("s",)),
    ("moments.c_blocks", "ffstat.moments", "c_blocks", ("s",)),
    ("moments.c_constant_kk", "ffstat.moments", "c_constant_kk", ("s", "calls")),
    ("moments.one_level_density", "ffstat.moments", "one_level_density", ("s",)),
    ("cache.load", "ffstat.cache", "load", ("s",)),
    ("cache.store", "ffstat.cache", "store", ("s",)),
    ("cache.family_cached", "ffstat.cache", "family_cached", ("s",)),
    ("cli.main", "ffstat.cli", "main", ()),
    ("cli.emit", "ffstat.cli", "emit", ("s",)),
)

LAYERS = ("ffpoly", "tables", "lfunc", "biquad", "eulerprod", "moments", "cache", "cli")


def _count_l_suite(counts, result):
    counts["lfunc.l_suite.moduli"] = counts.get("lfunc.l_suite.moduli", 0) + result.moduli


def _count_load(counts, result):
    key = "cache.load.misses" if result is None else "cache.load.hits"
    counts[key] = counts.get(key, 0) + 1


def _count_store(counts, result):
    counts["cache.store.bytes"] = counts.get("cache.store.bytes", 0) + os.path.getsize(result)


def _count_average_trace(counts, result):
    if result.mode == "exhaustive":
        counts["moments.family_scans"] = counts.get("moments.family_scans", 0) + 1


def _count_decomposition(counts, result):
    counts["moments.family_scans"] = counts.get("moments.family_scans", 0) + 1


# counters read off a call's result, by span name
HOOKS = {
    "lfunc.l_suite": _count_l_suite,
    "cache.load": _count_load,
    "cache.store": _count_store,
    "moments.average_trace": _count_average_trace,
    "moments.error_decomposition": _count_decomposition,
}


def union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class _ThreadState:
    __slots__ = ("stack", "active", "stats", "counts")

    def __init__(self):
        self.stack = []
        self.active = {}
        self.stats = {}  # name -> [calls, inclusive seconds, self seconds]
        self.counts = {}


class Tracer:
    """Per-thread span stacks folded into per-name totals.

    ``clock`` is injectable so tests can drive spans on a synthetic
    timeline.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._main_stack = None

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
            if threading.current_thread() is threading.main_thread():
                self._main_stack = st.stack
        return st

    def enter(self, name):
        st = self._state()
        foreign_parent = None
        if not st.stack and st.stack is not self._main_stack:
            try:
                foreign_parent = self._main_stack[-1]
            except (TypeError, IndexError):
                pass
        # [name, start, same-thread child seconds, foreign child intervals, foreign parent]
        frame = [name, 0.0, 0.0, None, foreign_parent]
        st.stack.append(frame)
        st.active[name] = st.active.get(name, 0) + 1
        frame[1] = self.clock()
        return frame

    def exit(self, frame):
        end = self.clock()
        st = self._local.st
        st.stack.pop()
        name, start, covered, foreign, foreign_parent = frame
        dur = end - start
        if foreign:
            with self._lock:
                covered += union_length(foreign, start, end)
        stats = st.stats.get(name)
        if stats is None:
            stats = st.stats[name] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[2] += max(0.0, dur - covered)
        depth = st.active[name] - 1
        st.active[name] = depth
        if depth == 0:
            stats[1] += dur
        if st.stack:
            st.stack[-1][2] += dur
        elif foreign_parent is not None:
            with self._lock:
                if foreign_parent[3] is None:
                    foreign_parent[3] = []
                foreign_parent[3].append((start, end))

    def count(self, hook, result):
        hook(self._state().counts, result)

    def summary(self):
        """{"spans": {name: [calls, inclusive s, self s]}, "counts": {...}}
        merged over every thread that opened a span."""
        with self._lock:
            states = list(self._states)
        return merge({"spans": st.stats, "counts": st.counts} for st in states)


def _wrap(tracer, name, fn, hook):
    enter, exit_ = tracer.enter, tracer.exit

    if hook is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            tracer.count(hook, result)
            return result

    wrapper.__bench_wrapped__ = True
    return wrapper


def _ffstat_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "ffstat" or n.startswith("ffstat."))]


@contextlib.contextmanager
def wrapped(tracer):
    """Install timing wrappers for ``TARGETS``; yields the span names whose
    target does not exist (reported as zero), restores everything on exit."""
    patches = []  # (owner, attribute, original), undone in reverse
    missing = []
    try:
        for name, modname, path, _ in TARGETS:
            mod = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = owner.__dict__.get(attr) if owner is not None else None
            if not callable(orig):
                missing.append(name)
                continue
            wrapper = _wrap(tracer, name, orig, HOOKS.get(name))
            if owner_name:
                patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for m in _ffstat_modules():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        patches.append((m, key, orig))
                        setattr(m, key, wrapper)
        yield missing
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)


def layer_metrics(summary, stdout_bytes):
    """The per-layer metrics of one traced command (or a sum of them)."""
    spans, counts = summary["spans"], summary["counts"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    out = {}
    for name, _, _, reported in TARGETS:
        if "s" in reported:
            out[name + ".s"] = spans.get(name, (0, 0.0, 0.0))[1]
        if "calls" in reported:
            out[name + ".calls"] = calls(name)
    out["biquad.members"] = calls("biquad.members")
    chi_calls = calls("biquad.chi")
    out["biquad.chi.reuse_ratio"] = (
        1.0 - calls("ffpoly.chi_vector") / chi_calls if chi_calls else 0.0)
    for key in ("lfunc.l_suite.moduli", "moments.family_scans", "cache.load.hits",
                "cache.load.misses", "cache.store.bytes"):
        out[key] = counts.get(key, 0)
    out["cli.stdout_bytes"] = stdout_bytes
    for layer in LAYERS:
        out[layer + ".self_s"] = sum(v[2] for k, v in spans.items()
                                     if k.split(".", 1)[0] == layer)
    return out


def merge(summaries):
    """Sum several ``Tracer.summary()`` results (one per process)."""
    spans, counts = {}, {}
    for s in summaries:
        for name, vals in s["spans"].items():
            cur = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                cur[i] += vals[i]
        for key, val in s["counts"].items():
            counts[key] = counts.get(key, 0) + val
    return {"spans": spans, "counts": counts}
