"""Outside-in span tracer for the bcs layers.

The tracer replaces, for the lifetime of one traced pass, every module
binding of a public bcs function with a timing wrapper: the defining
module's own name and every copy made by ``from .x import f``.  It also
wraps ``value`` on every potential class.  Nothing under ``src/`` changes;
``uninstall`` puts every original object back.

Each thread keeps its own span stack.  A span's self time is its duration
minus the part of that interval its child spans cover.  A span that starts
on a pool thread with an empty stack is a child of the innermost span open
on the main thread, which is the one that fanned the work out; the union of
such concurrent children is subtracted from the parent.  Self times of
spans running concurrently on pool threads are each measured in wall time,
so on the ``boundary`` workload their sum can exceed the elapsed time.

Inclusive time counts only the outermost call of a function on a thread,
so recursion (nested ``integrate_finite`` in ``dt_form_d1``) is not counted
twice.

Work reached only through private names is not wrapped and shows up in
the self time of the enclosing public function: ``t1..t4`` through
``boundary3d._TERMS`` (in ``m3``, ``criterion`` and ``table1_values``),
``_w_matrix``, ``_power_top`` and ``_vhat_spline`` (in ``tc0`` and
``ground_state``).  An integrand's own Python time is self time of the
quadrature call that evaluates it, unless it calls a wrapped function.
"""
from __future__ import annotations

import importlib
import threading
import time
import types

LAYERS = ("cli", "quad", "special", "potentials", "kernels", "bs_solver",
          "boundary3d", "diagnostics")

PRIVATE_WORK_NOTE = (
    "private work is reported in the enclosing public function's self time: "
    "t1..t4 via boundary3d._TERMS (m3, criterion, table1_values); "
    "_w_matrix, _power_top, _vhat_spline (tc0, ground_state)")

# Per-wrapper record fields, accumulated per thread and merged at the end.
FIELDS = ("calls", "self_s", "incl_s", "evals", "nonconverged", "max_len")
_CALLS, _SELF, _INCL, _EVALS, _NONCONV, _MAXLEN = range(len(FIELDS))


def _union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _observe_quad(rec, result):
    rec[_EVALS] += result.evaluations
    rec[_NONCONV] += not result.converged


def _observe_len(rec, result):
    rec[_MAXLEN] = max(rec[_MAXLEN], len(result))


_OBSERVERS = {
    "quad.integrate_finite": _observe_quad,
    "bs_solver.build_grid": _observe_len,
}


class Tracer:
    """Install wrappers with ``install``, run the pass, then ``uninstall``
    and read ``summary``.  Not reentrant: one tracer per process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_tables = []
        self._main_stack = None
        self._restore = []      # (owner, attribute, original)
        self._wrapper_keys = {}  # wrapper id -> function key

    # -- installation -----------------------------------------------------

    def install(self):
        self._main_stack = self._state()[0]
        for layer in LAYERS:
            mod = importlib.import_module(f"bcs.{layer}")
            for name, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__.startswith("bcs.")):
                    key = f"{obj.__module__[4:]}.{obj.__name__}"
                    self._replace(mod, name, obj, key, f"{layer}:{name}")
        potentials = importlib.import_module("bcs.potentials")
        for cls in vars(potentials).values():
            if (isinstance(cls, type) and issubclass(cls, potentials.RadialPotential)
                    and cls is not potentials.RadialPotential and "value" in vars(cls)):
                self._replace(cls, "value", vars(cls)["value"], "potentials.value",
                              f"potentials:{cls.__name__}.value")

    def _replace(self, owner, attr, original, key, wrapper_id):
        self._restore.append((owner, attr, original))
        self._wrapper_keys[wrapper_id] = key
        setattr(owner, attr, self._wrap(original, key, wrapper_id))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped binding holds its original object again."""
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self._restore)

    # -- spans --------------------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            table = {}
            state = self._local.state = ([], {}, table)
            with self._lock:
                self._thread_tables.append(table)
            return state

    def _wrap(self, fn, key, wrapper_id):
        state_of = self._state
        perf = time.perf_counter
        observe = _OBSERVERS.get(key)
        tracer = self

        def wrapper(*args, **kwargs):
            stack, active, table = state_of()
            rec = table.get(wrapper_id)
            if rec is None:
                rec = table[wrapper_id] = [0, 0.0, 0.0, 0, 0, 0]
            if stack:
                parent, foreign = stack[-1], False
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent, foreign = tracer._main_stack[-1], True
            else:
                parent, foreign = None, False
            span = [0.0, []]   # same-thread child time, foreign child intervals
            stack.append(span)
            depth = active.get(key, 0)
            active[key] = depth + 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[key] = depth
                dur = end - start
                covered = span[0]
                if span[1]:
                    covered += _union_length(span[1], start, end)
                rec[_CALLS] += 1
                rec[_SELF] += dur - covered
                if depth == 0:
                    rec[_INCL] += dur
                if parent is not None:
                    if foreign:
                        parent[1].append((start, end))
                    else:
                        parent[0] += dur
            if observe is not None:
                observe(rec, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Merged records: ``functions`` by function key, ``bindings`` by
        wrapper id (module:name), each a list ordered as ``FIELDS``."""
        bindings, functions = {}, {}
        for table in self._thread_tables:
            for wid, rec in table.items():
                _merge(bindings, wid, rec)
        for wid, rec in bindings.items():
            _merge(functions, self._wrapper_keys[wid], rec)
        return {"functions": functions, "bindings": bindings}


def _merge(into: dict, key: str, rec: list) -> None:
    acc = into.setdefault(key, [0, 0.0, 0.0, 0, 0, 0])
    for i in (_CALLS, _SELF, _INCL, _EVALS, _NONCONV):
        acc[i] += rec[i]
    acc[_MAXLEN] = max(acc[_MAXLEN], rec[_MAXLEN])
