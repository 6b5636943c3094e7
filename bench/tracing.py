"""Span tracing of sl11kit's public functions, installed from outside the package.

A :class:`Tracer` wraps each traced function once and rebinds it in every
module that holds it, so a name imported with ``from .graded import
graded_kron`` is traced where it is called, and recursion nests.  Nothing
under ``src/`` changes: :meth:`Tracer.begin_sample` swaps the wrappers in and
:meth:`Tracer.end_sample` puts the originals back.

A span is ``(name, start, end, parent, sample, error)``; spans are kept in
memory and summarised (or written out) after the run.  A layer's self time
is its span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


def _rep_pair_key(name, rep_a, rep_b, opposite=False):
    return (name, id(rep_a), id(rep_b), bool(opposite)), (rep_a, rep_b)


def _level_key(name, r, rep_a, rep_b, eps=(1.0, 1.0), opposite=False):
    return (name, r, id(rep_a), id(rep_b), tuple(eps), bool(opposite)), (rep_a, rep_b)


def _suite_label(name, *args, **kwargs):
    return name


@dataclass(frozen=True)
class Target:
    """One traced function: ``module`` and ``attr`` (``Class.method`` for methods).

    ``kind`` is ``span`` (timed) or ``count`` (call count only, for functions
    too hot to time).  ``label`` appends an argument-derived suffix to the
    span name; ``repeat_key`` returns (key, objects to keep alive) so that
    calls repeating an earlier key within the sample are counted.
    """

    module: str
    attr: str
    kind: str = "span"
    label: Callable | None = None
    repeat_key: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


#: The layer boundaries the benchmark traces, inner layers first.
TARGETS = (
    Target("sl11kit.graded", "graded_kron"),
    Target("sl11kit.graded", "graded_perm"),
    Target("sl11kit.graded", "SuperMatrix.__post_init__", kind="count"),
    Target("sl11kit.zhukovski", "zhukovski_solve"),
    Target("sl11kit.zhukovski", "left_labels"),
    Target("sl11kit.algebra", "coproduct_image", repeat_key=_rep_pair_key),
    Target("sl11kit.algebra", "check_relations"),
    Target("sl11kit.algebra", "fuse_check"),
    Target("sl11kit.qalgebra", "q_coproduct_image", repeat_key=_rep_pair_key),
    Target("sl11kit.qalgebra", "q_check_relations"),
    Target("sl11kit.qalgebra", "q_fuse_check"),
    Target("sl11kit.qaffine", "affine_coproduct_image", repeat_key=_rep_pair_key),
    Target("sl11kit.qaffine", "affine_relations_report"),
    Target("sl11kit.qaffine", "affine_intertwine"),
    Target("sl11kit.yangian", "yangian_coproduct", repeat_key=_level_key),
    Target("sl11kit.yangian", "coproduct_hom_report"),
    Target("sl11kit.yangian", "yangian_intertwine"),
    Target("sl11kit.yangian", "omega_twist_equivalence"),
    Target("sl11kit.yangian", "level_bracket_report"),
    Target("sl11kit.yangian", "current_relations_report"),
    Target("sl11kit.yangian", "antipode_report"),
    Target("sl11kit.rmatrix", "r_closed"),
    Target("sl11kit.rmatrix", "rq_closed"),
    Target("sl11kit.rmatrix", "solve_intertwiner"),
    Target("sl11kit.rmatrix", "r_solve"),
    Target("sl11kit.rmatrix", "ybe_residual"),
    Target("sl11kit.suites", "run_suite", label=_suite_label),
    Target("sl11kit.report", "Report.to_json"),
    Target("sl11kit.cli", "main"),
)

_SUITE_NAMES = ("yangian", "hopf", "affine", "singlet")
_COPRODUCTS = ("algebra.coproduct_image", "qalgebra.q_coproduct_image",
               "qaffine.affine_coproduct_image", "yangian.yangian_coproduct")

#: Per-layer metrics, each per traced sample: (name, unit, better).
PER_LAYER = (
    ("graded.graded_kron.calls", "count", "lower"),
    ("graded.graded_kron.self_ms", "ms", "lower"),
    ("graded.graded_perm.calls", "count", "lower"),
    ("graded.graded_perm.self_ms", "ms", "lower"),
    ("graded.SuperMatrix.constructions", "count", "lower"),
    *((f"{c}.{stat}", unit, better) for c in _COPRODUCTS
      for stat, unit, better in (("calls", "count", "lower"), ("self_ms", "ms", "lower"),
                                 ("repeat_frac", "ratio", "higher"))),
    ("yangian.coproduct_hom_report.incl_ms", "ms", "lower"),
    ("yangian.yangian_intertwine.incl_ms", "ms", "lower"),
    ("yangian.omega_twist_equivalence.incl_ms", "ms", "lower"),
    ("yangian.level_bracket_report.self_ms", "ms", "lower"),
    ("yangian.current_relations_report.self_ms", "ms", "lower"),
    ("yangian.antipode_report.self_ms", "ms", "lower"),
    ("algebra.check_relations.self_ms", "ms", "lower"),
    ("qalgebra.q_check_relations.self_ms", "ms", "lower"),
    ("qaffine.affine_relations_report.self_ms", "ms", "lower"),
    ("qaffine.affine_intertwine.incl_ms", "ms", "lower"),
    ("algebra.fuse_check.errors", "count", "lower"),
    ("qalgebra.q_fuse_check.errors", "count", "lower"),
    ("rmatrix.r_solve.calls", "count", "lower"),
    ("rmatrix.r_solve.incl_ms", "ms", "lower"),
    ("rmatrix.r_solve.errors", "count", "lower"),
    ("rmatrix.solve_intertwiner.self_ms", "ms", "lower"),
    ("rmatrix.r_closed.self_ms", "ms", "lower"),
    ("rmatrix.rq_closed.self_ms", "ms", "lower"),
    ("rmatrix.ybe_residual.incl_ms", "ms", "lower"),
    ("zhukovski.zhukovski_solve.self_ms", "ms", "lower"),
    ("zhukovski.left_labels.self_ms", "ms", "lower"),
    *((f"suites.run_suite.{s}.incl_ms", "ms", "lower") for s in _SUITE_NAMES),
    ("suites.warnings", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("report.Report.to_json.self_ms", "ms", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _owner(module: str, attr: str):
    obj = sys.modules[module]
    *path, leaf = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, leaf


def bindings(original, modules) -> list[tuple[object, str]]:
    """Every (module, name) among ``modules`` whose value is ``original``."""
    return [(mod, name) for mod in modules
            for name, value in list(vars(mod).items()) if value is original]


class Tracer:
    """In-memory span recorder with install/uninstall of its wrappers."""

    def __init__(self, targets=TARGETS, modules=None, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: Counter = Counter()
        self.calls_keyed: Counter = Counter()
        self.repeats: Counter = Counter()
        self.sample = -1
        self._stack = [-1]
        self._seen: set = set()
        self._alive: list = []
        if modules is None:
            modules = [m for n, m in sorted(sys.modules.items())
                       if m is not None and (n == "sl11kit" or n.startswith("sl11kit."))]
        self._patches = []
        for target in targets:
            owner, leaf = _owner(target.module, target.attr)
            original = vars(owner)[leaf]
            if target.kind == "count":
                wrapper = self._counter(original, target.name)
            else:
                wrapper = self._span(original, target)
            sites = [(owner, leaf)] if isinstance(owner, type) else bindings(original, modules)
            self._patches.extend((site, name, original, wrapper) for site, name in sites)

    def _counter(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, fn, target: Target):
        spans, stack, clock = self.spans, self._stack, self.clock
        base, label, repeat_key = target.name, target.label, target.repeat_key

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = base if label is None else f"{base}.{label(*args, **kwargs)}"
            if repeat_key is not None:
                key, alive = repeat_key(*args, **kwargs)
                self.calls_keyed[base] += 1
                if key in self._seen:
                    self.repeats[base] += 1
                else:
                    self._seen.add(key)
                    self._alive.append(alive)  # ids in keys stay unique this sample
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            error = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                error = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.sample, error)
        return traced

    def begin_sample(self, sample: int) -> None:
        """Swap the wrappers in; spans and repeat keys now belong to ``sample``."""
        self.sample = sample
        for site, name, _, wrapper in self._patches:
            setattr(site, name, wrapper)

    def end_sample(self) -> None:
        """Put the original functions back and forget the sample's repeat keys."""
        for site, name, original, _ in self._patches:
            setattr(site, name, original)
        self._seen.clear()
        self._alive.clear()

    def per_layer(self, samples: int, extra: dict[str, float]) -> dict[str, float]:
        """Every :data:`PER_LAYER` value, per traced sample (``extra`` fills the rest)."""
        stats = layer_stats(self.spans)
        out = {}
        for metric, _, _ in PER_LAYER:
            span, stat = metric.rsplit(".", 1)
            if metric in extra:
                out[metric] = extra[metric]
            elif stat == "constructions":
                out[metric] = self.counts[f"{span}.__post_init__"] / samples
            elif stat == "repeat_frac":
                calls = self.calls_keyed[span]
                out[metric] = self.repeats[span] / calls if calls else 0.0
            else:
                out[metric] = stats.get(span, {}).get(stat, 0) / samples
        return out

    def write(self, path) -> None:
        """All spans as gzip'd JSON lines: name, start, end, parent, sample, error."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """calls, self_ms, incl_ms (outermost spans of each name) and errors per span name."""
    child_time: defaultdict = defaultdict(float)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict = {}
    for idx, (name, start, end, parent, _, error) in enumerate(spans):
        row = stats.setdefault(name, {"calls": 0, "self_ms": 0.0, "incl_ms": 0.0, "errors": 0})
        row["calls"] += 1
        row["self_ms"] += 1e3 * ((end - start) - child_time[idx])
        row["errors"] += error
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:  # recursion: only the outermost span counts inclusively
            row["incl_ms"] += 1e3 * (end - start)
    return stats
