"""Declarative SLO envelopes over replay reports.

An :class:`SLO` names the bounds a replay must stay inside — latency
percentiles, shed/error rates, a throughput floor — and
:meth:`SLO.evaluate` turns a :class:`~repro.loadgen.replay.ReplayReport`
into a per-bound verdict.  The benchmark scenarios express every gate
as an :class:`SLOCheck` and CI fails on any violation, so a regression
that slows the tower or starts shedding shows up as a red build, not a
slow feeling.

Envelopes live in JSON files (``repro replay --slo envelope.json``) so a
deployment can version its latency budget next to its code::

    {"max_p50_ms": 50, "max_p99_ms": 500, "max_shed_rate": 0.01}

Unset bounds are simply not checked; unknown keys are rejected (a typo'd
``max_p9_ms`` silently checking nothing would be an SLO that always
passes, the worst kind).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from repro.loadgen.replay import ReplayReport

__all__ = ["SLO", "SLOCheck", "SLOReport"]


@dataclass(frozen=True)
class SLOCheck:
    """One evaluated bound: what was required, what was observed."""

    name: str
    bound: float
    observed: float
    ok: bool

    def describe(self) -> str:
        verdict = "ok" if self.ok else "VIOLATED"
        op = ">=" if self.name.startswith("min_") else "<="
        return f"{self.name}: {self.observed:.4g} {op} {self.bound:.4g} [{verdict}]"


@dataclass(frozen=True)
class SLOReport:
    """Every evaluated bound plus the overall verdict."""

    checks: tuple[SLOCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def violations(self) -> tuple[SLOCheck, ...]:
        return tuple(check for check in self.checks if not check.ok)

    def describe(self) -> str:
        if not self.checks:
            return "no SLO bounds set"
        return "\n".join(check.describe() for check in self.checks)

    def to_payload(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": check.name,
                    "bound": check.bound,
                    "observed": check.observed,
                    "ok": check.ok,
                }
                for check in self.checks
            ],
        }


@dataclass(frozen=True)
class SLO:
    """A pass/fail envelope; ``None`` bounds are not checked.

    ``max_*`` bounds are ceilings on the report's matching observation,
    ``min_throughput_rps`` is a floor.  All latency bounds are in
    milliseconds, rates are fractions of the replay's request count.
    """

    max_p50_ms: float | None = None
    max_p95_ms: float | None = None
    max_p99_ms: float | None = None
    max_shed_rate: float | None = None
    max_error_rate: float | None = None
    min_throughput_rps: float | None = None

    @classmethod
    def from_payload(cls, payload: dict) -> "SLO":
        if not isinstance(payload, dict):
            raise ValueError("an SLO document must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown SLO bounds {unknown}; choose from {sorted(known)}"
            )
        for name, value in payload.items():
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise ValueError(
                    f"SLO bound {name} must be a number or null, got {value!r}"
                )
        return cls(**payload)

    @classmethod
    def from_file(cls, path) -> "SLO":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_payload(json.load(handle))

    def evaluate(self, report: ReplayReport) -> SLOReport:
        """Check every set bound against ``report``."""
        checks = []
        ceilings = (
            ("max_p50_ms", self.max_p50_ms, report.p50_ms),
            ("max_p95_ms", self.max_p95_ms, report.p95_ms),
            ("max_p99_ms", self.max_p99_ms, report.p99_ms),
            ("max_shed_rate", self.max_shed_rate, report.shed_rate),
            ("max_error_rate", self.max_error_rate, report.error_rate),
        )
        for name, bound, observed in ceilings:
            if bound is not None:
                checks.append(SLOCheck(name, bound, observed, observed <= bound))
        if self.min_throughput_rps is not None:
            checks.append(
                SLOCheck(
                    "min_throughput_rps",
                    self.min_throughput_rps,
                    report.throughput_rps,
                    report.throughput_rps >= self.min_throughput_rps,
                )
            )
        return SLOReport(tuple(checks))
