"""Spans around the public functions of each charstacks layer.

The benchmark measures the package from outside: `install` replaces each
target function, wherever a charstacks module binds it, with a wrapper
that records a span.  A span's self time is its duration minus the time
covered by the spans it directly contains.  Only the traced worker calls
`install`; the untraced worker calls `assert_untouched` instead, so the
end-to-end numbers come from the original function objects.
"""

import functools
import inspect
import sys
import time

# (module, attribute path, span name).  Several targets may share a span
# name; their calls, times and self times are pooled.
TARGETS = [
    ("charstacks.cli", "main", "cli.main"),
    ("charstacks.charstack", "eseries", "charstack.series"),
    ("charstacks.charstack", "mixed_series", "charstack.series"),
    ("charstacks.charstack", "counterexample_report", "charstack.series"),
    ("charstacks.charstack", "is_generic", "charstack.is_generic"),
    ("charstacks.hlvkernel", "omega", "hlvkernel.omega"),
    ("charstacks.hlvkernel", "hook_H", "hlvkernel.hook_H"),
    ("charstacks.hlvkernel", "hlv_HH", "hlvkernel.hlv_HH"),
    ("charstacks.symfunc", "ple_log", "symfunc.ple_log"),
    ("charstacks.symfunc", "SymFunc.__mul__", "symfunc.mul"),
    ("charstacks.symfunc", "SymFunc.__rmul__", "symfunc.mul"),
    ("charstacks.symfunc", "plethysm_pr", "symfunc.plethysm_pr"),
    ("charstacks.symfunc", "SymFunc.to_basis", "symfunc.to_basis"),
    ("charstacks.macdonald", "modified_H", "macdonald.modified_H"),
    ("charstacks.macdonald", "specialized_H", "macdonald.specialized_H"),
    ("charstacks.macdonald", "qt_inner", "macdonald.qt_inner"),
    ("charstacks.exactalg", "RatFunc.simplified", "exactalg.simplified"),
    ("charstacks.exactalg", "RatFunc.substitute", "exactalg.substitute"),
    ("charstacks.exactalg", "u_to_q", "exactalg.u_to_q"),
    ("charstacks.ffcount", "enumerate_gl", "ffcount.enumerate_gl"),
    ("charstacks.ffcount", "FqOrbit.members", "ffcount.orbit_members"),
    ("charstacks.ffcount", "count_nonorientable", "ffcount.count"),
    ("charstacks.ffcount", "count_orientable", "ffcount.count"),
]

SPAN_NAMES = sorted({name for _, _, name in TARGETS})

MARK = "_perfbench_span"


def _max_terms(symfunc):
    """Largest numerator and denominator term counts over the coefficients."""
    num = max((len(c.num.terms) for c in symfunc.coeffs.values()), default=0)
    den = max((len(c.den.terms) for c in symfunc.coeffs.values()), default=0)
    return num, den


def _observe_log(rec, out):
    num, den = _max_terms(out)
    rec.count_max("symfunc.log.max_num_terms", num)
    rec.count_max("symfunc.log.max_den_terms", den)


def _observe_omega(rec, out):
    num, den = _max_terms(out)
    rec.count_max("hlvkernel.omega.max_num_terms", num)
    rec.count_max("hlvkernel.omega.max_den_terms", den)


def _observe_HH(rec, out):
    rec.count_max("hlvkernel.HH.num_terms", len(out.num.terms))
    rec.count_max("hlvkernel.HH.den_terms", len(out.den.terms))


def _observe_H(rec, out):
    rec.count_max("macdonald.H.max_terms", _max_terms(out)[0])


# size counters read off returned objects, by span name
OBSERVERS = {
    "symfunc.ple_log": _observe_log,
    "hlvkernel.omega": _observe_omega,
    "hlvkernel.hlv_HH": _observe_HH,
    "macdonald.modified_H": _observe_H,
}

COUNTER_NAMES = [
    "symfunc.log.max_num_terms", "symfunc.log.max_den_terms",
    "hlvkernel.omega.max_num_terms", "hlvkernel.omega.max_den_terms",
    "hlvkernel.HH.num_terms", "hlvkernel.HH.den_terms",
    "macdonald.H.max_terms",
]


class Recorder:
    """In-memory span tallies for one worker process."""

    def __init__(self):
        self.stack = []  # frames [name, start, time in direct children]
        self.depth = {name: 0 for name in SPAN_NAMES}
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.total_s = {name: 0.0 for name in SPAN_NAMES}
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        self.top_s = 0.0  # time covered by spans with no enclosing span
        self.counters = {name: 0 for name in COUNTER_NAMES}

    def enter(self, name):
        self.depth[name] += 1
        self.stack.append([name, time.perf_counter(), 0.0])

    def leave(self):
        name, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        self.depth[name] -= 1
        self.self_s[name] += dur - child
        if self.depth[name] == 0:
            # a re-entered span's inner calls already lie inside this one
            self.total_s[name] += dur
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.top_s += dur

    def pause(self, seconds):
        """Leave out of every open span time spent outside the package."""
        for frame in self.stack:
            frame[1] += seconds

    def count_max(self, name, value):
        self.counters[name] = max(self.counters[name], value)

    def summary(self):
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "top_s": self.top_s,
                "counters": self.counters}


def _wrap(rec, name, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def span(*args, **kwargs):
        rec.calls[name] += 1
        rec.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.leave()
        if observe is not None:
            observe(rec, out)
        return out

    setattr(span, MARK, name)
    return span


def _wrap_generator(rec, name, fn):
    """A generator does its work inside next(), so each next() is a span."""

    def timed(gen):
        while True:
            rec.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.leave()
            yield item

    @functools.wraps(fn)
    def span(*args, **kwargs):
        rec.calls[name] += 1
        return timed(fn(*args, **kwargs))

    setattr(span, MARK, name)
    return span


def _package_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if key == "charstacks" or key.startswith("charstacks.")]


def _resolve(module, path):
    """(owner, attribute name, original function) for a target."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    fn = owner.__dict__[attr] if outer else getattr(owner, attr)
    return owner, attr, fn


def install(rec):
    """Wrap every target where callers look it up.

    Module-level functions are rebound in every charstacks module that
    holds them, so names imported with `from ... import` are covered.
    Methods are rebound on their class, each attribute separately.
    """
    originals = []
    for module, path, name in TARGETS:
        owner, attr, fn = _resolve(module, path)
        if hasattr(fn, MARK):
            raise RuntimeError(f"{module}.{path} is already wrapped")
        originals.append(fn)
        make = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap
        wrapper = make(rec, name, fn)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if any(value is fn for fn in originals):
                raise RuntimeError(f"{mod.__name__}.{key} escaped wrapping")


def assert_untouched():
    """The untraced worker must run the original function objects."""
    for module, path, _ in TARGETS:
        if hasattr(_resolve(module, path)[2], MARK):
            raise RuntimeError(f"{module}.{path} is wrapped in an untraced run")
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                raise RuntimeError(
                    f"{mod.__name__}.{key} is wrapped in an untraced run")
