"""In-memory tracing of cycsieve, installed from outside the program.

``Tracer.patch(modules)`` wraps the public functions of every module, and the
public methods plus ``__init__`` of every class the module defines, and
installs each wrapper at every binding site it finds: the defining module and
every ``from ... import`` alias in the other modules (``sieve.residue_data``,
``cycsieve.run_sieve``, ...).  Methods are patched on the class, so class
aliases such as ``charsums.CycRing`` need nothing more.  ``find_unpatched``
reports any binding site that still holds an original, so a missed alias
fails the traced run instead of silently dropping calls.

A timed wrapper keeps, per name and per process, the call count, the
inclusive time (outermost call only, so recursion is not counted twice) and
the self time: its duration minus the durations of the timed calls made
inside it.  Nothing is written per call; aggregates stay in memory and are
written out once per process (``snapshot``).  Only the spans named in
``RECORDED`` (one per box chunk) are kept one by one, with pid and start/end.

Pool workers are forked with the wrappers in place.  After a fork the child
resets its tracer and, each time a recorded span ends at the top of its
stack, rewrites ``<pid>.json`` in the trace directory, because the pool ends
its workers with a signal and no exit hook runs.

Hot kernels are treated as follows, so that wrapping does not swamp the
figures:

* ``UNWRAPPED``: field element arithmetic on ``PrimeField`` and the cheap
  ``ExtensionField`` element helpers, and ``polyring.normalize``/``degree``/
  ``leading``.  They run tens of millions of times on the box pass; their
  time stays in the caller's self time.
* ``COUNT_ONLY``: ``ExtensionField.index`` and the recursive
  ``reports.normalize`` and ``reports.cell_text``.  Calls are counted; time
  stays in the caller's self time.

Each timed call costs about a microsecond, which lands in the caller's self
time; ``trace.overhead_frac`` reports the total.
"""

import functools
import inspect
import json
import os
import time

UNWRAPPED = frozenset(
    [f"ffield.PrimeField.{m}" for m in (
        "add", "sub", "neg", "mul", "inv", "div", "power", "is_zero",
        "from_int", "index", "from_index", "elements", "trace_to_prime")]
    + [f"ffield.ExtensionField.{m}" for m in (
        "add", "sub", "neg", "is_zero", "from_int", "embed_base",
        "from_index", "elements")]
    + ["polyring.normalize", "polyring.degree", "polyring.leading"])

COUNT_ONLY = frozenset([
    "ffield.ExtensionField.index",
    "reports.normalize", "reports.cell_text"])

# spans kept one by one: name -> positional index and name of each argument
# kept with the span
RECORDED = {"sieve.accumulate_chunk": ((5, "start"), (6, "stop"))}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# name -> (kind, extract(args, kwargs, result)); "distinct" keeps the set of
# extracted keys, "sum" adds up the extracted numbers
OBSERVED = {
    "geometry.eval_form_at_polys": ("distinct", lambda a, kw, r: r),
    "polyring.factor": ("distinct", lambda a, kw, r: _arg(a, kw, 1, "f")),
    "characters.ResidueData.index_of_poly": (
        "distinct", lambda a, kw, r: (a[0].pi, _arg(a, kw, 1, "f"))),
    "charsums.Budget.charge": ("sum", lambda a, kw, r: _arg(a, kw, 1, "n")),
    "charsums.CharSumContext.char_sum": (
        "sum", lambda a, kw, r: a[0].Q ** a[0].nvars),
    "geometry.dual_membership": ("sum", lambda a, kw, r: int(r is None)),
}


def _is_wrappable(obj, module_name):
    return (callable(obj) and not inspect.isclass(obj)
            and getattr(obj, "__module__", None) == module_name)


class Tracer:
    """Aggregates for the wrapped callables of one process."""

    def __init__(self, out_dir=None, clock=time.perf_counter_ns):
        self.out_dir = out_dir
        self.clock = clock
        self.pid = os.getpid()
        self.forked = False
        self.stack = [0]      # child time accumulated by each open span
        self.names = [None]   # name of each open span
        self.stats = {}       # name -> [calls, inclusive_ns, self_ns, depth]
        self.spans = []       # [name, parent, pid, start_ns, end_ns, args]
        self.distinct = {}    # name -> set of keys
        self.sums = {}        # name -> number
        self.wrappers = {}    # id(original) -> (original, wrapper)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn):
        """A wrapper for fn, timed unless name is in COUNT_ONLY."""
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        stack, names, clock = self.stack, self.names, self.clock
        kind, extract = OBSERVED.get(name, (None, None))
        observe = None
        if kind == "distinct":
            seen = self.distinct.setdefault(name, set())

            def observe(a, kw, r):
                seen.add(extract(a, kw, r))
        elif kind == "sum":
            sums = self.sums
            sums.setdefault(name, 0)

            def observe(a, kw, r):
                sums[name] += extract(a, kw, r)
        recorded = RECORDED.get(name)

        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats[0] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0)
            names.append(name)
            stats[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                child = stack.pop()
                names.pop()
                stats[3] -= 1
                stats[0] += 1
                stats[2] += dt - child
                if not stats[3]:
                    stats[1] += dt
                stack[-1] += dt
            if observe is not None:
                observe(args, kwargs, result)
            if recorded is not None:
                self.spans.append([name, names[-1], self.pid, t0, t1, {
                    key: _arg(args, kwargs, i, key) for i, key in recorded}])
                if self.forked and len(stack) == 1:
                    self.write()
            return result
        return timed

    def patch(self, modules, prefix="cycsieve."):
        """Wrap the public callables defined in modules and install every
        wrapper at every binding site among modules.  Returns the number of
        distinct callables wrapped."""
        for mod in modules:
            short = mod.__name__[len(prefix):]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(f"{short}.{attr}", obj)
                elif _is_wrappable(obj, mod.__name__):
                    self._wrap_once(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = self.wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return len(self.wrappers)

    def _patch_class(self, qualname, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if _is_wrappable(obj, cls.__module__):
                setattr(cls, attr, self._wrap_once(f"{qualname}.{attr}", obj))

    def _wrap_once(self, name, fn):
        hit = self.wrappers.get(id(fn))
        if hit is None:
            if name in UNWRAPPED:
                return fn
            hit = (fn, self.wrap(name, fn))
            self.wrappers[id(fn)] = hit
        return hit[1]

    def find_unpatched(self, modules):
        """Binding sites (module.attr or module.Class.attr) that still hold an
        original that was wrapped."""
        def original(obj):
            hit = self.wrappers.get(id(obj))
            return hit is not None and hit[0] is obj

        found = []
        for mod in modules:
            for attr, obj in vars(mod).items():
                if original(obj):
                    found.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(obj):
                    for mattr, mobj in vars(obj).items():
                        if original(mobj):
                            found.append(f"{mod.__name__}.{attr}.{mattr}")
        return sorted(set(found))

    # -- processes and output -----------------------------------------------

    def after_fork(self):
        """Start a forked child from empty aggregates (the parent's open
        spans never close here)."""
        self.pid = os.getpid()
        self.forked = True
        self.stack[:] = [0]
        self.names[:] = [None]
        for stats in self.stats.values():
            stats[:] = [0, 0, 0, 0]
        self.spans.clear()
        for seen in self.distinct.values():
            seen.clear()
        for name in self.sums:
            self.sums[name] = 0

    def snapshot(self):
        return {
            "pid": self.pid,
            "stats": {n: s[:3] for n, s in self.stats.items() if s[0]},
            "spans": self.spans,
            "distinct": {n: sorted(map(repr, s))
                         for n, s in self.distinct.items()},
            "sums": dict(self.sums),
        }

    def write(self):
        path = os.path.join(self.out_dir, f"{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def merge(snapshots):
    """One aggregate over snapshots of several processes or invocations."""
    out = {"stats": {}, "spans": [], "distinct": {}, "sums": {}}
    for snap in snapshots:
        for name, (calls, incl, self_ns) in snap["stats"].items():
            acc = out["stats"].setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_ns
        out["spans"].extend(snap["spans"])
        for name, keys in snap["distinct"].items():
            out["distinct"].setdefault(name, set()).update(keys)
        for name, value in snap["sums"].items():
            out["sums"][name] = out["sums"].get(name, 0) + value
    return out


def read_dir(path):
    """Snapshots written to one trace directory."""
    snaps = []
    for entry in sorted(os.listdir(path)):
        if entry.endswith(".json"):
            with open(os.path.join(path, entry), encoding="utf-8") as fh:
                snaps.append(json.load(fh))
    return snaps
