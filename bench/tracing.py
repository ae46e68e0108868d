"""In-process tracing of the library's layers, from outside the library.

`Tracer.install` wraps public functions of `lsb_lab` in every module that
binds them (the scenario and verify modules import names from dynamics and
actions, so patching one module would miss calls).  Layer boundaries get
spans; functions called once per RK4 stage or per sample get counters only,
because a span there would cost more than the call it measures.  Spans stay
in memory until the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover; children may run on other threads and overlap.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import importlib
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict, namedtuple

import numpy as np

Span = namedtuple("Span", "id name start end parent op thread")

# (home module, attribute, span name); the span name of integrate_extremal
# gets ".line" or ".manifold" from its state space.
SPAN_TARGETS = [
    ("lsb_lab.scenario", "run_checks", "scenario.run_checks"),
    ("lsb_lab.scenario", "simulate_columns", "scenario.simulate_columns"),
    ("lsb_lab.scenario", "write_csv", "scenario.write_csv"),
    ("lsb_lab.scenario", "write_report", "scenario.write_report"),
    ("lsb_lab.verify", "check_equivalence_rigid",
     "verify.check_equivalence_rigid"),
    ("lsb_lab.verify", "check_conservation", "verify.check_conservation"),
    ("lsb_lab.verify", "check_rk4_order", "verify.check_rk4_order"),
    ("lsb_lab.verify", "check_action_equality",
     "verify.check_action_equality"),
    ("lsb_lab.verify", "check_cross_ratio", "verify.check_cross_ratio"),
    ("lsb_lab.verify", "check_closed_form", "verify.check_closed_form"),
    ("lsb_lab.verify", "check_closed_loop_audit",
     "verify.check_closed_loop_audit"),
    ("lsb_lab.dynamics", "integrate_euler_poincare",
     "dynamics.integrate_euler_poincare"),
    ("lsb_lab.dynamics", "reconstruct_group", "dynamics.reconstruct_group"),
    ("lsb_lab.dynamics", "integrate_extremal", "dynamics.integrate_extremal"),
    ("lsb_lab.dynamics", "integrate_riccati", "dynamics.integrate_riccati"),
]
INTEGRATORS = {"integrate_euler_poincare", "reconstruct_group",
               "integrate_extremal", "integrate_riccati"}
COUNTER_TARGETS = [
    ("lsb_lab.dynamics", "euler_poincare_rhs", "dynamics.euler_poincare_rhs"),
    ("lsb_lab.groups", "bracket", "groups.bracket"),
    ("lsb_lab.groups", "inertia_solve", "groups.inertia_solve"),
    ("scipy.linalg", "expm", "dynamics.expm"),
    ("lsb_lab.dynamics", "closed_loop_rhs", "dynamics.closed_loop_rhs"),
    ("lsb_lab.dynamics", "feedback_solve", "dynamics.feedback_solve"),
    ("lsb_lab.actions", "riccati_coefficients",
     "actions.riccati_coefficients"),
    ("lsb_lab.actions", "clebsch_lagrangian", "actions.clebsch_lagrangian"),
    ("lsb_lab.actions", "quadratic_cost", "actions.quadratic_cost"),
]
SCENARIO_CLASS = ("lsb_lab.scenario", "Scenario", "scenario.Scenario")


def fingerprint(obj, h=None):
    """Digest of a call's inputs: arrays by dtype, shape and bytes,
    dataclasses by their fields, enums by value."""
    top = h is None
    h = h or hashlib.sha1()
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            fingerprint(getattr(obj, f.name), h)
    elif isinstance(obj, enum.Enum):
        h.update(f"e{obj.value}".encode())
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            fingerprint(item, h)
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}".encode())
        for k in sorted(obj):
            h.update(str(k).encode())
            fingerprint(obj[k], h)
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())
    return h.hexdigest() if top else h


def union_length(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
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


def self_times(spans):
    """Map span id to its self time: duration minus child coverage."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - union_length(children[s.id], s.start, s.end) for s in spans}


def _lsb_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lsb_lab"
                                  or name.startswith("lsb_lab."))]


class Tracer:
    """Spans, counters and integrator fingerprints of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()      # counter name -> calls
        self.amounts = Counter()     # e.g. "...steps", "...bytes"
        self.calls = defaultdict(list)   # op id -> integrator fingerprints
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        self.op = None
        self.root = None

    # -- recording -------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name` and return its result."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op,
                                   threading.get_ident()))

    def run_op(self, op_id, name, fn, *args):
        """Run one op as the root span; spans opened on worker threads with
        an empty stack become its children."""
        self.op = op_id
        sid = next(self._ids)
        self.root = sid
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.spans.append(Span(sid, name, start, end, None, op_id,
                                   threading.get_ident()))
            self.root = None

    def count(self, name):
        with self._lock:
            self.counts[name] += 1

    def add(self, name, amount):
        with self._lock:
            self.amounts[name] += amount

    # -- wrappers --------------------------------------------------------
    def _span_wrapper(self, attr, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if attr == "integrate_extremal":
                space = args[0] if args else kwargs["space"]
                span_name += ".line" if space.is_line else ".manifold"
            if attr in INTEGRATORS:
                digest = fingerprint((attr, args, kwargs))
                with self._lock:
                    self.calls[self.op].append(digest)
            try:
                result = self.call(span_name, fn, *args, **kwargs)
            except Exception as e:
                steps = getattr(e, "last_index", None)
                if attr in INTEGRATORS and steps is not None:
                    self.add(span_name + ".steps", steps + 1)
                raise
            if attr in INTEGRATORS:
                self.add(span_name + ".steps", result.times.size - 1)
            elif attr == "write_csv":
                self.add(span_name + ".bytes", os.path.getsize(args[0]))
            return result
        return wrapper

    def _counter_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _patch_everywhere(self, home, attr, wrapper_for):
        home_mod = importlib.import_module(home)
        original = getattr(home_mod, attr)
        wrapped = wrapper_for(original)
        targets = [home_mod] + [m for m in _lsb_modules() if m is not home_mod]
        for mod in targets:
            if mod.__dict__.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def install(self):
        """Wrap every traced function in each module that binds it."""
        importlib.import_module("lsb_lab.cli")
        for home, attr, name in SPAN_TARGETS:
            self._patch_everywhere(
                home, attr,
                lambda fn, a=attr, n=name: self._span_wrapper(a, n, fn))
        for home, attr, name in COUNTER_TARGETS:
            self._patch_everywhere(
                home, attr, lambda fn, n=name: self._counter_wrapper(n, fn))
        home, cls_name, name = SCENARIO_CLASS
        cls = getattr(importlib.import_module(home), cls_name)
        original = cls.__init__

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            self.call(name, original, obj, *args, **kwargs)
        self._patches.append((cls, "__init__", original))
        cls.__init__ = init

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def self_time_by_name(self):
        selfs = self_times(self.spans)
        out = Counter()
        for s in self.spans:
            out[s.name] += selfs[s.id]
        return out

    def useful_integration_ratio(self):
        total = sum(len(v) for v in self.calls.values())
        distinct = sum(len(set(v)) for v in self.calls.values())
        return distinct / total if total else 0.0

    def parallel_efficiency(self, roots):
        """Summed per-thread busy time of the roots' direct children over
        root wall time times the number of threads that ran them."""
        kids = defaultdict(lambda: defaultdict(list))
        for s in self.spans:
            if s.parent in roots:
                kids[s.parent][s.thread].append((s.start, s.end))
        busy = capacity = 0.0
        for s in self.spans:
            if s.id not in roots or not kids[s.id]:
                continue
            by_thread = kids[s.id]
            busy += sum(union_length(iv, s.start, s.end)
                        for iv in by_thread.values())
            capacity += (s.end - s.start) * len(by_thread)
        return busy / capacity if capacity else 0.0

    def span_records(self):
        return [s._asdict() for s in self.spans]
