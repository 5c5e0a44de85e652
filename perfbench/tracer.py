"""Span tracing around the public functions of each symwave layer.

The tracer observes from outside: ``install`` replaces each target function
by a wrapper in every symwave namespace that bound it (the defining module
and the modules that imported it with ``from ... import``), and ``remove``
puts the originals back.  Each call records a span (name, start, end,
parent) in memory and bumps counts at the same boundary.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# (defining module, attribute, layer name).  Dotted attributes are methods.
TARGETS = (
    ("symwave.estimates", "sup_weighted", "estimates.sup_weighted"),
    ("symwave.estimates", "kernel_on_grid", "estimates.kernel_on_grid"),
    ("symwave.estimates", "kunze_stein_bound", "estimates.kunze_stein_bound"),
    ("symwave.wave_kernel", "kernel_piece", "wave_kernel.kernel_piece"),
    ("symwave.wave_kernel", "shell_integral", "wave_kernel.shell_integral"),
    ("symwave.wave_kernel", "bessel_j", "wave_kernel.bessel_j"),
    ("symwave.wave_kernel", "chi_pair", "wave_kernel.chi_pair"),
    ("symwave.geometry", "phi0_envelope", "geometry.phi0_envelope"),
    ("symwave.geometry", "phi0", "geometry.phi0"),
    ("symwave.geometry", "integrate_biinvariant", "geometry.integrate_biinvariant"),
    ("symwave.spherical", "forward_transform", "spherical.forward_transform"),
    ("symwave.spherical", "inverse_transform", "spherical.inverse_transform"),
    ("symwave.spherical", "plancherel_constant", "spherical.plancherel_constant"),
    ("symwave.evolution", "KleinGordonPropagator.to_spectral", "evolution.to_spectral"),
    ("symwave.evolution", "KleinGordonPropagator.to_radial", "evolution.to_radial"),
    ("symwave.evolution", "semilinear_solve", "evolution.semilinear_solve"),
    ("symwave.evolution", "gaussian_state", "evolution.gaussian_state"),
)

# Array length in (Bessel and shell evaluations) or out (transforms).
_POINTS = {
    "wave_kernel.shell_integral": lambda args, out: np.size(args[1]),
    "wave_kernel.bessel_j": lambda args, out: np.size(args[1]),
    "spherical.forward_transform": lambda args, out: out.values.size,
    "spherical.inverse_transform": lambda args, out: out.values.size,
}


def _kernel_key(args):
    """The key of the radial-profile cache behind one kernel_piece call."""
    rs, p, H, piece = args[:4]
    return (rs.tag, float(p.t), complex(p.sigma), piece,
            round(float(np.linalg.norm(H)), 12))


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans = []             # (name, start, end, parent index or -1)
        self.points = {}
        self.kernel_keys = set()
        self.iterations = 0
        self._stack = []
        self._patches = []          # (namespace, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "symwave" or n.startswith("symwave.")]
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._patch(ns, key, orig, wrapper)

    def remove(self) -> None:
        while self._patches:
            ns, key, orig = self._patches.pop()
            setattr(ns, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _patch(self, ns, key, orig, wrapper) -> None:
        self._patches.append((ns, key, orig))
        setattr(ns, key, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        points = _POINTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if points is not None:
                self.points[name] = self.points.get(name, 0) + int(points(args, out))
            if name == "wave_kernel.kernel_piece":
                self.kernel_keys.add(_kernel_key(args))
            elif name == "evolution.semilinear_solve":
                self.iterations += out.iterations
            return out

        wrapper.__perfbench_traced__ = True
        return wrapper

    # -- results ----------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per layer: calls, inclusive seconds and self seconds (inclusive
        minus the time of wrapped children), plus points where defined."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for _, _, name in TARGETS}
        for (name, t0, t1, _), c in zip(self.spans, child):
            st = stats[name]
            st["calls"] += 1
            st["s"] += t1 - t0
            st["self_s"] += t1 - t0 - c
        for name, n in self.points.items():
            stats[name]["points"] = n
        kp = stats["wave_kernel.kernel_piece"]
        kp["distinct"] = len(self.kernel_keys)
        kp["reuse"] = 1.0 - kp["distinct"] / kp["calls"] if kp["calls"] else 0.0
        stats["evolution.semilinear_solve"]["iterations"] = self.iterations
        return stats

    def write_spans(self, path: str, run_id: str) -> None:
        """JSON lines, one span each; ``parent`` indexes the same file."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": run_id, "id": i, "name": name,
                                     "start": t0, "end": t1,
                                     "parent": parent}) + "\n")
