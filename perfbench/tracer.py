"""Outside-in call tracer for rodfem.

Every public function of every ``rodfem`` module is rebound, under one
wrapper per function, in each module that holds a reference to it.  A call
is therefore recorded where it is made, not only where the function is
defined: ``engine3d.solve_step``, the ``linsolve`` names imported into
``assembly3d`` and ``solver2d``, the ``write_*`` names imported into ``cli``
and ``rodfem.run`` itself all go through the wrapper.  A few methods are
patched on their classes instead (``BandedMatrix.matvec``/``add_entries``,
``BandedLU.backsolve`` and the drag models' ``element_matrices``).

Spans are kept in memory as ``[name id, start ns, end ns, parent index]``
and written out once, at the end.  A span's self time is its duration minus
the durations of its child spans; calls are sequential in one thread, so
the children never overlap.  Nothing under ``src/`` is modified.
"""

import csv
import functools
import importlib
import inspect
import pkgutil
import time

#: (module, class, method) patched on the class itself
METHODS = (
    ("linsolve", "BandedMatrix", "matvec"),
    ("linsolve", "BandedMatrix", "add_entries"),
    ("linsolve", "BandedLU", "backsolve"),
    ("materials", "IsotropicDrag", "element_matrices"),
    ("materials", "ResistiveForceDrag", "element_matrices"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = []
        self.band_bytes = 0

    def _wrap(self, name, fn, before=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span = [nid, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _note_band(self, a, *args, **kwargs):
        # LAPACK band storage: 2*kl + ku + 1 rows of n doubles (computed)
        if hasattr(a, "kl"):
            self.band_bytes = (2 * a.kl + a.ku + 1) * a.n * 8

    def install(self):
        import rodfem

        modules = [rodfem] + [
            importlib.import_module(f"rodfem.{info.name}")
            for info in pkgutil.iter_modules(rodfem.__path__)
        ]
        wrapped = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith("rodfem."):
                    continue
                if obj not in wrapped:
                    name = f"{home.split('.', 1)[1]}.{obj.__name__}"
                    before = self._note_band if name == "linsolve.factorize" else None
                    wrapped[obj] = self._wrap(name, obj, before)
                setattr(mod, attr, wrapped[obj])
        for modname, clsname, meth in METHODS:
            cls = getattr(importlib.import_module(f"rodfem.{modname}"), clsname)
            setattr(cls, meth, self._wrap(f"{modname}.{meth}", vars(cls)[meth]))

    def totals(self, first, last):
        """Aggregate spans[first:last], one or more whole timed calls.

        Returns {name: [calls, inclusive ns, self ns]}, the summed duration
        of the top-level spans, the number of ``linsolve.solve`` calls and
        how many of them ran the second refinement round (a third
        back-solve).
        """
        spans = self.spans[first:last]
        child_ns = [0] * len(spans)
        backsolves = [0] * len(spans)
        top_ns = 0
        backsolve_id = self._ids.get("linsolve.backsolve")
        for nid, start, end, parent in spans:
            if parent < 0:
                top_ns += end - start
                continue
            child_ns[parent - first] += end - start
            if nid == backsolve_id:
                backsolves[parent - first] += 1
        by_name = {}
        solves = refine2 = 0
        for i, (nid, start, end, _) in enumerate(spans):
            name = self.names[nid]
            acc = by_name.setdefault(name, [0, 0, 0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child_ns[i]
            if name == "linsolve.solve":
                solves += 1
                refine2 += backsolves[i] >= 3
        return by_name, top_ns, solves, refine2

    def dump(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_ns", "end_ns", "parent"])
            for nid, start, end, parent in self.spans:
                out.writerow([self.names[nid], start, end, parent])
