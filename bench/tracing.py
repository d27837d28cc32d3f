"""Span tracing around the public functions of every ``lapoly`` module.

Nothing in ``src/`` is edited: ``Tracer.install`` replaces each public
function (and each public method of a public class, but the accessors in
``UNTRACED``) with a wrapper, and
rebinds every name under which a ``lapoly`` module holds the original.
That covers calls through an imported name (``triangulate.det_int``) and
through a module attribute (``polytope.lp.point_in_hull``) alike.

Spans are aggregated in memory as they close: per function the number of
calls and the inclusive time (outermost activation only, so recursion is
not counted twice); per module the self time, that is span time minus the
time of the child spans it caused.  ``Tracer.snapshot`` returns the result;
the caller writes it out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import resource
import time

MODULES = (
    "cli",
    "complexes",
    "laplacian",
    "polytope",
    "triangulate",
    "ehrhart",
    "linalg",
    "lp",
)


def rss_mb():
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def box_volume(polytope, n=1, *_args, **_kwargs):
    """Lattice points in the bounding box of the n-th dilation: the
    candidates a box scan may visit.  Computed here from the generator
    points, not by the code under test."""
    volume = 1
    for k in range(polytope.ambient_dim):
        coords = [p[k] for p in polytope.points]
        volume *= n * (max(coords) - min(coords)) + 1
    return volume


class _Stat:
    __slots__ = ("calls", "seconds", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


# accessors called once per candidate cell pair (~860k times for d = 4);
# a wrapper would add ~10% to the pass
UNTRACED = {"triangulate.cell_points"}
# counts summed over a function's calls, computed from its arguments
# before the call: function -> (count name, counting function)
BEFORE = {"polytope.lattice_point_count": ("polytope.box_candidates", box_volume)}
# gauges sampled after each call: function -> gauge name
AFTER = {"ehrhart.hstar_structural": "ehrhart.hstar_structural.rss_mb"}


class Tracer:
    """Counts and times calls into ``lapoly``; install once per process.

    ``clock`` returns seconds; pass one that leaves out time the process
    spends on something else (see ``hostspeed.HostSpeed``)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.self_s = {name: 0.0 for name in MODULES}
        self.gauges = {}
        self.top_s = 0.0
        self._stack = []

    def _wrap(self, module, name, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        self_s = self.self_s
        clock = self.clock
        before = BEFORE.get(name)
        gauge = AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                key, fn_before = before
                tracer.gauges[key] = tracer.gauges.get(key, 0) + fn_before(*args, **kwargs)
            stack.append(0.0)
            stat.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.depth -= 1
                stat.calls += 1
                if stat.depth == 0:
                    stat.seconds += elapsed
                self_s[module] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.top_s += elapsed
                if gauge is not None:
                    tracer.gauges[gauge] = rss_mb()

        return traced

    def install(self, package):
        """Wrap the public API of every module of ``package`` in place."""
        modules = {name: getattr(package, name) for name in MODULES}
        replaced = {}
        for mod_name, module in modules.items():
            functions = []
            methods = []
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    functions.append((attr, value))
                elif inspect.isclass(value):
                    for meth, fn in vars(value).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            methods.append((value, meth, fn))
            # a method keeps its bare name unless the module already uses it
            taken = {attr for attr, _ in functions}
            bare = [meth for _, meth, _ in methods]
            for attr, fn in functions:
                wrapper = self._wrap(mod_name, f"{mod_name}.{attr}", fn)
                replaced[id(fn)] = (fn, wrapper)
            for cls, meth, fn in methods:
                unique = meth not in taken and bare.count(meth) == 1
                name = f"{mod_name}.{meth if unique else f'{cls.__name__}.{meth}'}"
                if name not in UNTRACED:
                    setattr(cls, meth, self._wrap(mod_name, name, fn))
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def snapshot(self):
        """Calls and inclusive seconds per function, self seconds per
        module, the gauges, and the time covered by top-level spans."""
        return {
            "functions": {
                name: {"calls": s.calls, "s": s.seconds}
                for name, s in sorted(self.stats.items())
                if s.calls
            },
            "self_s": dict(self.self_s),
            "gauges": dict(self.gauges),
            "top_s": self.top_s,
        }
