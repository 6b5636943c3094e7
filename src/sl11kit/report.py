"""Residual reports: named lists of (identity, max-abs residual) pairs.

Every checker in the library returns one of these.  A report passes when
its largest residual is at or below its tolerance.  Identities that could
not be checked are listed in ``skipped`` with the reason, never dropped.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field


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


@dataclass
class Case:
    identity: str
    residual: float
    params: dict = field(default_factory=dict)
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
    suite: str
    tolerance: float = 1e-10
    cases: list[Case] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    skipped: list[tuple[str, str]] = field(default_factory=list)

    def add(self, identity: str, residual: float, tolerance: float | None = None,
            **params) -> None:
        self.cases.append(Case(identity, float(residual), params, tolerance))

    def skip(self, identity: str, reason: str) -> None:
        """Record an identity that was not checked, and why."""
        self.skipped.append((identity, reason))

    def override_tolerance(self, tolerance: float) -> None:
        """Check every case against ``tolerance``, replacing per-case tolerances."""
        self.tolerance = tolerance
        for case in self.cases:
            case.tolerance = None
        self.meta["tolerance_override"] = tolerance

    def merge(self, other: "Report", prefix: str = "",
              tolerance: float | None = None) -> None:
        for case in other.cases:
            name = f"{prefix}{case.identity}" if prefix else case.identity
            tol = case.tolerance
            if tol is None and tolerance is not None:
                tol = tolerance
            elif tol is None and other.tolerance != self.tolerance:
                tol = other.tolerance
            self.cases.append(Case(name, case.residual, case.params, tol))
        self.skipped.extend((f"{prefix}{identity}", reason)
                            for identity, reason in other.skipped)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.cases), default=0.0)

    @property
    def median_residual(self) -> float:
        vals = sorted(c.residual for c in self.cases)
        if not vals:
            return 0.0
        n = len(vals)
        mid = n // 2
        return vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])

    @property
    def passed(self) -> bool:
        return all(c.residual <= (c.tolerance if c.tolerance is not None
                                  else self.tolerance)
                   for c in self.cases)

    def worst(self, count: int = 5) -> list[Case]:
        return sorted(self.cases, key=lambda c: -c.residual)[:count]

    def to_dict(self, include_timestamp: bool = True) -> dict:
        d = {
            "suite": self.suite,
            "tolerance": self.tolerance,
            **self.meta,
            "cases": [c.to_dict() for c in self.cases],
            "max_residual": self.max_residual,
            "median_residual": self.median_residual,
            "passed": self.passed,
        }
        if self.skipped:
            d["skipped"] = [{"identity": i, "reason": r} for i, r in self.skipped]
        if include_timestamp:
            d["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        return d

    def to_json(self, include_timestamp: bool = True) -> str:
        return json.dumps(self.to_dict(include_timestamp), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "identity", "residual"])
        for c in self.cases:
            writer.writerow([self.suite, c.identity, repr(c.residual)])
        return buf.getvalue()
