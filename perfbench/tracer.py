"""In-memory span tracer and the patches that attach it to fastslow.

Spans are recorded from outside the program: each traced function is
replaced, under the name its caller looks it up by, with a wrapper that
records (name, parent, start, end).  Coupling slots are only counted.
Everything is restored when the patch context exits.
"""

from __future__ import annotations

import dataclasses
import functools
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict = {}
        self.maxima: dict = {}

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def span(self, name: str, fn):
        """Wrap ``fn`` so each call records a span.  The wrapped result is
        returned unchanged."""
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call adds one to ``counts[name]``; no span."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """name -> {"calls", "s", "self_s"} over every recorded span."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = self_times(parent, dur)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_total = np.bincount(ids, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(self_total[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def self_times(parent, duration):
    """Span duration minus the time covered by its direct children.

    Spans come from one thread through a call stack, so the children of a
    span are disjoint and lie inside it; their durations add up to the
    covered part.
    """
    parent = np.asarray(parent)
    duration = np.asarray(duration, dtype=float)
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


class Patches:
    """Attribute and item replacements undone on exit, last first."""

    def __init__(self):
        self._undo = []

    def setattr(self, owner, name: str, value) -> None:
        # __dict__ holds the plain function even where the attribute is a
        # method, so restoring it leaves the class exactly as it was
        self._undo.append((setattr, owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def setitem(self, mapping, key, value) -> None:
        self._undo.append((mapping.__setitem__, key, mapping[key]))
        mapping[key] = value

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            restore, *args = self._undo.pop()
            restore(*args)
        return False


# (span name, [(module, attribute the caller looks up)]).  A function
# imported with ``from .x import y`` is looked up in the importing module,
# so it is patched there as well as where it is defined.
SPAN_TARGETS = [
    ("cli.write_json", [("cli", "write_json")]),
    ("integrate.integrate_full", [("cli", "integrate_full"),
                                  ("studies", "integrate_full")]),
    ("integrate.integrate_reduced", [("studies", "integrate_reduced")]),
    ("integrate.rk4_step", [("integrate", "rk4_step")]),
    ("integrate.trajectory_to_csv", [("cli", "trajectory_to_csv")]),
    ("certificate.certify_nonpairwise", [("cli", "certify_nonpairwise")]),
    ("certificate.scan_mixed_derivatives",
     [("cli", "scan_mixed_derivatives"),
      ("certificate", "scan_mixed_derivatives")]),
    ("certificate.mixed_second_derivative_fd",
     [("certificate", "mixed_second_derivative_fd")]),
    ("studies.convergence_study", [("cli", "convergence_study")]),
    ("studies.attraction_study", [("cli", "attraction_study")]),
    ("studies.phase_distance", [("studies", "phase_distance")]),
    ("studies.fit_loglog", [("studies", "fit_loglog")]),
    ("studies.distance_to_slow_manifold",
     [("studies", "distance_to_slow_manifold")]),
]


def instrument(tracer: Tracer, modules: dict) -> Patches:
    """Patch the fastslow ``modules`` (short name -> module) for one traced
    pass.  Names a module no longer has are skipped, so their metrics
    read 0."""
    patches = Patches()
    cli = modules["cli"]
    for command, fn in list(cli.COMMANDS.items()):
        patches.setitem(cli.COMMANDS, command, tracer.span(f"cli.{command}", fn))
    patches.setattr(cli, "main", tracer.span("cli.main", cli.main))

    def weights_bytes(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            traj = fn(*args, **kwargs)
            if getattr(traj, "weights", None) is not None:
                tracer.peak("integrate.weights_stack_bytes", traj.weights.nbytes)
            return traj
        return wrapper

    def csv_bytes(fn):
        @functools.wraps(fn)
        def wrapper(traj, stream, *args, **kwargs):
            before = stream.tell()
            result = fn(traj, stream, *args, **kwargs)
            tracer.add("integrate.trajectory_to_csv.bytes", stream.tell() - before)
            return result
        return wrapper

    def field_points(fn):
        @functools.wraps(fn)
        def wrapper(self, theta, *args, **kwargs):
            tracer.add("fields.ReducedField.points", np.size(theta) / self.n_nodes)
            return fn(self, theta, *args, **kwargs)
        return wrapper

    measure = {"integrate.integrate_full": weights_bytes,
               "integrate.trajectory_to_csv": csv_bytes}
    for span_name, sites in SPAN_TARGETS:
        for module_name, attr in sites:
            fn = getattr(modules[module_name], attr, None)
            if fn is None:
                continue
            if span_name in measure:
                fn = measure[span_name](fn)
            patches.setattr(modules[module_name], attr, tracer.span(span_name, fn))

    field_cls = modules["fields"].ReducedField
    patches.setattr(field_cls, "__call__", tracer.span(
        "fields.ReducedField", field_points(field_cls.__call__)))

    model = modules["model"]
    for slot in (f.name for f in dataclasses.fields(model.Coupling)):
        if slot in model.KuramotoCoupling.__dict__:
            patches.setattr(model.KuramotoCoupling, slot, tracer.counter(
                f"model.{slot}", model.KuramotoCoupling.__dict__[slot]))
    return patches
