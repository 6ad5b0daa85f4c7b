"""Spans around calls into qtwist's layers, recorded from outside the library.

A layer is one qtwist module.  Every public function it defines, and every
public method of a class it defines, is replaced by a wrapper that records
a span (name, parent, start, end).  The wrapper is bound under every name
that refers to the original function, in every qtwist module:
``qtwist.apps.coords_product_pairs`` and ``qtwist.boxtimes.coords_product_pairs``
are separate bindings, and patching only one would leave the calls through
the other without a span.

Methods of the ``abgroup`` classes (``FinAbGroup.reduce``, ``add``,
``Bicharacter.value`` ...) are tiny and called tens of thousands of times
per pass, so they get call counts and no spans.

Spans stay in memory; ``summary`` and ``dump`` read them at the end.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("matspan", "abgroup", "qgroup", "coact", "heis", "boxtimes", "apps", "cli")
COUNT_ONLY_LAYERS = ("abgroup",)

# A table entry counts as non-zero above this magnitude; it matches the
# 1e-12 residual tolerance of the report snapshot.
NNZ_EPS = 1e-12

# Span groups reported as one inclusive time (an inner call of a member
# inside another member is not counted twice).
GROUPS = {
    "boxtimes.build": (
        "boxtimes.build_via_heisenberg",
        "boxtimes.build_via_covariant",
        "boxtimes.build_from_markings",
    ),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _coords_product_pairs(tr, args, kwargs, out):
    xs, ys = _arg(args, kwargs, 0, "xs"), _arg(args, kwargs, 1, "ys")
    tr.extra["boxtimes.coords_product_pairs.products"] += xs.shape[0] * ys.shape[0]
    tr.extra["boxtimes.coords_product_pairs.out_mb"] += out.nbytes / 1e6


def _leg_frames(tr, args, kwargs, legs):
    for m in legs.mults:
        tr.extra["boxtimes.leg_frames.table_nnz"] += int(np.count_nonzero(np.abs(m) > NNZ_EPS))
        tr.extra["boxtimes.leg_frames.table_size"] += m.size


def _orthonormal_rows(tr, args, kwargs, out):
    shape = np.shape(_arg(args, kwargs, 0, "rows"))
    rows = shape[0] if len(shape) > 1 else 1
    tr.extra["matspan.orthonormal_rows.cells"] += rows * (shape[-1] if shape else 1)


def _verify_coaction(tr, args, kwargs, out):
    gamma = _arg(args, kwargs, 0, "gamma")
    row_len = (gamma.graded.ambient_dim * gamma.model.group.order) ** 2
    key = "coact.verify_coaction.row_len_max"
    tr.maxima[key] = max(tr.maxima.get(key, 0), row_len)


def _build_model(tr, args, kwargs, out):
    tr.groups.add(_arg(args, kwargs, 0, "group").cycles)


EXTRA_METRICS = (
    "boxtimes.coords_product_pairs.products",
    "boxtimes.coords_product_pairs.out_mb",
    "boxtimes.leg_frames.table_nnz_ratio",
    "matspan.orthonormal_rows.cells",
    "coact.verify_coaction.row_len_max",
    "qgroup.build_model.distinct_groups",
)

HOOKS = {
    "boxtimes.coords_product_pairs": _coords_product_pairs,
    "boxtimes.leg_frames": _leg_frames,
    "matspan.orthonormal_rows": _orthonormal_rows,
    "coact.verify_coaction": _verify_coaction,
    "qgroup.build_model": _build_model,
}


def _targets(module, layer):
    """(span name, owner class or None, attribute, function) to wrap."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", None, name, obj
        elif inspect.isclass(obj):
            for mname, meth in vars(obj).items():
                if not mname.startswith("_") and inspect.isfunction(meth):
                    yield f"{layer}.{name}.{mname}", obj, mname, meth


class Tracer:
    """Install with ``install()``, run the traced code, then ``uninstall()``."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, parent index, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.extra: defaultdict = defaultdict(float)
        self.maxima: dict = {}
        self.groups: set = set()
        self.count_names: list[str] = []
        self._patches: list = []

    # -- patching ---------------------------------------------------------

    def _span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [nid, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return wrapper

    def _count(self, name, fn):
        self.count_names.append(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        import qtwist  # noqa: F401  (loads every layer module)

        plan, replace = [], {}
        for layer in LAYERS:
            module = sys.modules[f"qtwist.{layer}"]
            for name, owner, attr, fn in _targets(module, layer):
                if owner is None:
                    replace[id(fn)] = (fn, self._span(name, fn))
                elif layer in COUNT_ONLY_LAYERS:
                    plan.append((owner, attr, fn, self._count(name, fn)))
                else:
                    plan.append((owner, attr, fn, self._span(name, fn)))
        modules = [m for n, m in sys.modules.items() if n == "qtwist" or n.startswith("qtwist.")]
        for module in modules:
            for attr, value in vars(module).items():
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    plan.append((module, attr, value, hit[1]))
        return plan

    def install(self) -> None:
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def known(self, metric: str) -> bool:
        """Whether a per-layer metric name is one this tracer can produce."""
        if metric in EXTRA_METRICS:
            return True
        prefix, _, suffix = metric.rpartition(".")
        if prefix in LAYERS:
            return suffix == "self_s"
        if prefix in self.count_names:
            return suffix == "calls"
        if prefix in GROUPS:
            return suffix == "s"
        return prefix in self.names and suffix in ("s", "self_s", "calls")

    # -- read-out ---------------------------------------------------------

    def mark(self) -> tuple[int, Counter, dict]:
        """A snapshot of the additive state, to split phases later."""
        return len(self.spans), Counter(self.counts), dict(self.extra)

    def _totals(self, lo: int, hi: int) -> dict:
        """Additive per-layer figures over spans[lo:hi]."""
        spans, names = self.spans, self.names
        child = defaultdict(float)
        for rec in spans[lo:hi]:
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
        groups = {m: g for g, members in GROUPS.items() for m in members}
        out: defaultdict = defaultdict(float)
        for i in range(lo, hi):
            nid, parent, t0, t1 = spans[i]
            name = names[nid]
            layer = name.split(".", 1)[0]
            dur = t1 - t0
            own = dur - child.get(i, 0.0)
            out[f"{layer}.self_s"] += own
            out[f"{name}.self_s"] += own
            out[f"{name}.calls"] += 1
            # inclusive time, counted once for nested calls of the same name
            group = groups.get(name)
            outer_name = outer_group = True
            p = parent
            while p >= 0 and (outer_name or outer_group):
                pname = names[spans[p][0]]
                outer_name = outer_name and pname != name
                outer_group = outer_group and (group is None or groups.get(pname) != group)
                p = spans[p][1]
            if outer_name:
                out[f"{name}.s"] += dur
            if group is not None and outer_group:
                out[f"{group}.s"] += dur
        return out

    def summary(self, setup: tuple, passes: list[tuple]) -> dict:
        """Per-layer figures for one set-up plus one pass.

        ``setup`` is (mark before set-up, mark after); ``passes`` holds the
        same pair for every traced pass.  Additive figures are the set-up
        figure plus the mean over the traced passes.
        """
        n = len(passes)

        def phase(a, b):
            tot = self._totals(a[0], b[0])
            for key in set(b[1]) | set(a[1]):
                tot[f"{key}.calls"] += b[1][key] - a[1].get(key, 0)
            for key in set(b[2]) | set(a[2]):
                tot[key] += b[2].get(key, 0.0) - a[2].get(key, 0.0)
            return tot

        out = defaultdict(float, phase(*setup))
        for a, b in passes:
            for key, value in phase(a, b).items():
                out[key] += value / n
        size = out.pop("boxtimes.leg_frames.table_size", 0.0)
        nnz = out.pop("boxtimes.leg_frames.table_nnz", 0.0)
        out["boxtimes.leg_frames.table_nnz_ratio"] = nnz / size if size else 0.0
        out.update(self.maxima)
        out["qgroup.build_model.distinct_groups"] = len(self.groups)
        return dict(out)

    def dump(self, path: str) -> None:
        """Write every span as gzipped JSON: names plus [name, parent, start, end] rows."""
        doc = {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
