"""Outside-in tracing: wrap the solver's public functions from the benchmark.

Nothing in the package is edited.  `from .x import f` binds f under a second
name in the importing module, so install() replaces every module attribute
that is the original function, wherever it was imported.  A function that a
later version of the package no longer has is skipped and reports 0 calls.

Spans live in flat arrays (name index, parent span, start, end) for the
current pass only; summary() folds them into calls, total and self time,
where self time is the span's duration minus that of its wrapped children.
"""

import importlib
import pkgutil
import time
from array import array

PACKAGE = "hermite_heat"

# (module, function) pairs, reported as "<module>.<function>".
TRACED = (
    ("experiments", "run_table"),
    ("solver", "run"),
    ("solver", "initial_coefficients"),
    ("solver", "step"),
    ("assembly", "assemble_initial_system"),
    ("assembly", "assemble_crank_nicolson"),
    ("basis", "build_basis_table"),
    ("problem", "build_mesh"),
    ("linalg", "band_lu_factor"),
    ("linalg", "band_lu_solve"),
    ("linalg", "band_matvec"),
    ("experiments", "error_norms"),
    ("cli", "main"),
)
NAMES = tuple(f"{module}.{function}" for module, function in TRACED)

# Kernels whose first argument carries (n, kl, ku); calls are counted per shape
# so that computed flops and bytes follow the calls actually made.
SHAPED = ("linalg.band_lu_solve", "linalg.band_matvec")


def package_modules():
    """The package and every module in it."""
    package = importlib.import_module(PACKAGE)
    return [package] + [
        importlib.import_module(f"{PACKAGE}.{info.name}") for info in pkgutil.iter_modules(package.__path__)
    ]


def rebind(original, replacement, modules):
    """Point every module attribute bound to original at replacement.

    Returns the (module, attribute, original) triples needed to undo it.
    """
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr, original))
    return patched


class Tracer:
    """Wraps the TRACED functions and records one span per call."""

    def __init__(self):
        self.shapes = {name: {} for name in SHAPED}
        self._patched = []
        self._stack = [-1]
        self.reset()

    def reset(self):
        """Drop the spans and shape counts of the previous pass."""
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        for counts in self.shapes.values():
            counts.clear()

    def install(self):
        modules = package_modules()
        homes = {m.__name__: m for m in modules}
        for index, (module, function) in enumerate(TRACED):
            home = homes.get(f"{PACKAGE}.{module}")
            original = getattr(home, function, None)
            if original is None:
                continue
            wrapper = self._wrap(index, original, self.shapes.get(NAMES[index]))
            self._patched += rebind(original, wrapper, modules)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, index, fn, shapes):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if shapes is not None:
                try:
                    key = (args[0].n, args[0].kl, args[0].ku)
                except (IndexError, AttributeError):
                    key = None
                shapes[key] = shapes.get(key, 0) + 1
            span = len(tracer.start)
            tracer.name.append(index)
            tracer.parent.append(stack[-1])
            tracer.end.append(0.0)
            stack.append(span)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[span] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def summary(self):
        """{"<name>.calls"/".total_s"/".self_s": value} for every traced name."""
        import numpy as np

        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        duration = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        own = duration - children
        calls = np.bincount(name, minlength=len(NAMES))
        total = np.bincount(name, weights=duration, minlength=len(NAMES))
        self_time = np.bincount(name, weights=own, minlength=len(NAMES))
        out = {}
        for i, label in enumerate(NAMES):
            out[f"{label}.calls"] = int(calls[i])
            out[f"{label}.total_s"] = float(total[i])
            out[f"{label}.self_s"] = float(self_time[i])
        return out

    def save(self, path):
        """Write the current pass's spans as a .npz of flat arrays."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(NAMES),
            name=np.asarray(self.name),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
