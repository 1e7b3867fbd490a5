"""Per-module spans and counters, recorded from outside the program.

``Tracer.install`` wraps the public functions of the traced modules and
rebinds every module attribute in ``schrod1d`` that refers to one of them
(``cli.bands``, ``fsm.smallest_singular_value``, the package re-exports,
...), so calls made through any binding are seen. Calls through the
module (``pl.peval``) and calls inside a module (``peval`` in
``polynomials``) resolve through the rebound attribute too.

Timed wrappers keep a stack: a function's self time is its busy time
minus the busy time of the wrapped calls it made. Very hot, tiny
functions are wrapped count-only, so the trace does not drown them in
timer calls; their time stays in their caller's self time.
"""

import inspect
import os
import sys
import time
from dataclasses import dataclass

MODULES = ("potential", "polynomials", "transfer", "spectral", "limitops",
           "fsm", "cli", "jsonio")

COUNT_ONLY = frozenset({
    "polynomials.peval", "polynomials.sign", "polynomials.degree",
    "potential.fibonacci_value", "jsonio.to_jsonable",
})


def _section_sites(name, args, kwargs):
    """Sites in the section(s) a call works on, or None."""
    def arg(i, key):
        return kwargs[key] if key in kwargs else args[i]
    if name == "fsm.solve_section":
        return arg(3, "r") - arg(2, "l") + 1
    if name in ("spectral.smallest_singular_value",
                "spectral.truncation_spectrum"):
        return int(arg(1, "size"))
    if name == "fsm.stability_scan":
        return sum(int(s) for s in set(arg(2, "sizes")))
    return None


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    sites: int = 0
    raised: int = 0
    bytes: int = 0
    nested: int = 0  # solve_section calls made inside reference_solution


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats = {}
        self._stack = []  # [name, child busy time]
        self._undo = []

    def stat(self, name):
        return self.stats.setdefault(name, Stat())

    def _counting(self, name, fn):
        st = self.stat(name)

        def wrapper(*args, **kwargs):
            st.calls += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, name, fn):
        st = self.stat(name)
        stack = self._stack
        clock = time.perf_counter
        singular = self.package.fsm.SectionSingularError
        in_reference = name == "fsm.solve_section"
        writes = name in ("jsonio.write_json", "jsonio.write_csv")

        def wrapper(*args, **kwargs):
            if in_reference and any(f[0] == "fsm.reference_solution"
                                    for f in stack):
                self.stat("fsm.reference_solution").nested += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except singular:
                st.raised += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                st.calls += 1
                st.busy_s += dt
                st.self_s += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                sites = _section_sites(name, args, kwargs)
                if sites is not None:
                    st.sites += sites
            if writes:
                st.bytes += os.path.getsize(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every public function of MODULES and rebind all references."""
        pkg = self.package
        replace = {}
        for mod_name in MODULES:
            mod = getattr(pkg, mod_name)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = "%s.%s" % (mod_name, attr)
                make = self._counting if name in COUNT_ONLY else self._timed
                replace[obj] = make(name, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == pkg.__name__ or
                                   mod_name.startswith(pkg.__name__ + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])
                    self._undo.append((mod, attr, obj))
        # Potential.value is a method on each family: count every site lookup
        base = pkg.potential.Potential
        for cls in vars(pkg.potential).values():
            if inspect.isclass(cls) and issubclass(cls, base) \
                    and "value" in vars(cls):
                orig = vars(cls)["value"]
                setattr(cls, "value", self._counting("potential.value", orig))
                self._undo.append((cls, "value", orig))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()
