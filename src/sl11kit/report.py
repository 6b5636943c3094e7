"""Residual reports: named lists of (identity, max-abs residual) pairs.

Every checker in the library returns one of these.  A report passes when
its largest residual is at or below its tolerance.  Identities that could
not be checked are listed in ``skipped`` with the reason, never dropped;
warnings raised while a suite ran are counted in ``warnings``.  A report
holds its cases as columns, and :func:`json_text` writes its case lines
from them, byte for byte as ``json.dumps(report.to_dict(), indent=2)``.
"""
from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

#: ``float.__repr__`` of the non-finite floats, as :mod:`json` writes them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def c2j(z) -> list[float]:
    """Complex scalar as a [re, im] pair for JSON."""
    z = complex(z)
    return [z.real, z.imag]


def param_value(v):
    if isinstance(v, complex):
        return c2j(v)
    if isinstance(v, (list, tuple)):
        return [param_value(x) for x in v]
    return v


class Case(NamedTuple):
    """One case of a report, as a read-only view of its columns."""
    identity: str
    residual: float
    params: Mapping = MappingProxyType({})
    tolerance: float | None = None  # overrides the report tolerance

    def to_dict(self) -> dict:
        d = {
            "identity": self.identity,
            "residual": self.residual,
            "params": {k: param_value(v) for k, v in self.params.items()},
        }
        if self.tolerance is not None:
            d["tolerance"] = self.tolerance
        return d


@dataclass
class Report:
    """Case ``i`` is ``names[i]`` with residual ``residuals[i]``, checked against
    ``tolerances[i]`` (``None``: the report's tolerance); the few cases that
    carry params have them in ``params[i]``.  A report is filled in place."""
    suite: str
    tolerance: float = 1e-10
    meta: dict = field(default_factory=dict)
    names: list[str] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    tolerances: list[float | None] = field(default_factory=list)
    params: dict[int, dict] = field(default_factory=dict)
    skipped: list[tuple[str, str]] = field(default_factory=list)
    #: (category, message, count) of each distinct warning, in first-seen order
    warnings: list[tuple[str, str, int]] = field(default_factory=list)

    @property
    def cases(self) -> list[Case]:
        return [Case(name, res, self.params.get(i, {}), tol) for i, (name, res, tol)
                in enumerate(zip(self.names, self.residuals, self.tolerances))]

    def add(self, identity: str, residual: float, tolerance: float | None = None,
            **params) -> None:
        if params:
            self.params[len(self.names)] = params
        self.names.append(identity)
        self.residuals.append(float(residual))
        self.tolerances.append(tolerance)

    def skip(self, identity: str, reason: str) -> None:
        """Record an identity that was not checked, and why."""
        self.skipped.append((identity, reason))

    def record_warnings(self, caught) -> None:
        """Count warnings caught with ``warnings.catch_warnings(record=True)``."""
        self._count_warnings((w.category.__name__, str(w.message), 1) for w in caught)

    def _count_warnings(self, entries) -> None:
        counts = {(cat, msg): n for cat, msg, n in self.warnings}
        for cat, msg, n in entries:
            counts[cat, msg] = counts.get((cat, msg), 0) + n
        self.warnings = [(cat, msg, n) for (cat, msg), n in counts.items()]

    def override_tolerance(self, tolerance: float) -> None:
        """Check every case against ``tolerance``, replacing per-case tolerances."""
        self.tolerance = tolerance
        self.tolerances = [None] * len(self.names)
        self.meta["tolerance_override"] = tolerance

    def merge(self, other: "Report", prefix: str = "",
              tolerance: float | None = None) -> None:
        """Append ``other``'s cases, names prefixed.  A case of ``other`` without
        its own tolerance gets ``tolerance``, else ``other``'s if that differs."""
        if tolerance is None and other.tolerance != self.tolerance:
            tolerance = other.tolerance
        self.params.update((len(self.names) + i, p) for i, p in other.params.items())
        self.names.extend([prefix + n for n in other.names] if prefix else other.names)
        self.residuals.extend(other.residuals)
        self.tolerances.extend(other.tolerances if tolerance is None else
                               [tolerance if t is None else t for t in other.tolerances])
        self.skipped.extend((f"{prefix}{identity}", reason)
                            for identity, reason in other.skipped)
        self._count_warnings(other.warnings)

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def median_residual(self) -> float:
        return statistics.median(self.residuals) if self.residuals else 0.0

    def _checked_against(self):
        """(residual, the tolerance it is checked against) of each case."""
        tolerance = self.tolerance
        return zip(self.residuals, (tolerance if t is None else t for t in self.tolerances))

    @property
    def passed(self) -> bool:
        return all(r <= t for r, t in self._checked_against())

    def json_fields(self, include_timestamp: bool = True) -> dict:
        """:meth:`to_dict` with the report itself in place of its case list."""
        d = {
            "suite": self.suite,
            "tolerance": self.tolerance,
            **self.meta,
            "cases": self,
            "max_residual": self.max_residual,
            "median_residual": self.median_residual,
            "passed": self.passed,
        }
        if self.skipped:
            d["skipped"] = [{"identity": i, "reason": r} for i, r in self.skipped]
        if include_timestamp:
            if self.warnings:
                d["warnings"] = [{"category": c, "message": m, "count": n}
                                 for c, m, n in self.warnings]
            d["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        return d

    def to_dict(self, include_timestamp: bool = True) -> dict:
        d = self.json_fields(include_timestamp)
        d["cases"] = [c.to_dict() for c in self.cases]
        return d

    def to_json(self, include_timestamp: bool = True) -> str:
        return json_text(self.json_fields(include_timestamp))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "identity", "residual", "tolerance", "passed"])
        writer.writerows([self.suite, name, repr(res), repr(tol),
                          "true" if res <= tol else "false"]
                         for name, (res, tol) in zip(self.names, self._checked_against()))
        return buf.getvalue()


def json_text(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2)`` as written ``depth`` levels deep, where a
    :class:`Report` in place of a case list is written from its columns.
    Dict keys are strings."""
    if isinstance(obj, float):  # as the encoder writes it, without its set-up
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    pad = "\n" + "  " * (depth + 1)
    if isinstance(obj, Report):  # each case as its ``Case.to_dict()``
        key = pad + '  "'
        params = {i: json_text({k: param_value(v) for k, v in p.items()}, depth + 2)
                  for i, p in obj.params.items()}
        residuals = [_NON_FINITE.get(t, t) for t in map(float.__repr__, obj.residuals)]
        tolerances = ["" if t is None else f',{key}tolerance": {json_text(t)}'
                      for t in obj.tolerances]
        brackets = "[]"
        items = [f'{{{key}identity": {encode_basestring_ascii(name)},{key}residual": {res}'
                 f',{key}params": {params.get(i, "{}")}{tol}{pad}}}' for i, (name, res, tol)
                 in enumerate(zip(obj.names, residuals, tolerances))]
    elif isinstance(obj, dict):
        brackets = "{}"
        items = [f"{encode_basestring_ascii(k)}: {json_text(v, depth + 1)}"
                 for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", [json_text(v, depth + 1) for v in obj]
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    return f"{brackets[0]}{pad}{(',' + pad).join(items)}\n{'  ' * depth}{brackets[1]}"


def residual_report(suite: str, tolerance: float, names, lhs, rhs) -> Report:
    """Report of the residuals max|lhs[c] - rhs[c]|, one case per name, in order.

    ``lhs`` and ``rhs`` are ``(C, n, n)`` arrays or sequences of C matrices;
    every residual is taken in one array operation.
    """
    residuals = np.abs(np.asarray(lhs) - np.asarray(rhs)).max(axis=(1, 2)).astype(float)
    residuals = residuals.tolist()
    return Report(suite, tolerance, names=list(names), residuals=residuals,
                  tolerances=[None] * len(residuals))
