"""Typed violation reporting for the cross-policy verification harness.

``repro verify`` produces a single :class:`VerifyReport` aggregating two
evidence streams:

* per-workload :class:`WorkloadVerdict` records from the differential
  runner (every registered workload simulated under all four compaction
  policies and cross-checked), and
* :class:`PropertyReport` records from the property/fuzz layer (random
  mask streams pushed through the analytic cycle models and schedule
  builders).

Every individual defect is a :class:`Violation` — a typed record, not a
log line — so the CLI, the JSON artifact, and CI can all consume the
same structure.  Exit codes reuse the :mod:`repro.errors` contract: a
clean report exits 0, any invariant violation exits like a
:class:`~repro.errors.VerificationError` (1), and a report whose only
defects are typed simulation failures (deadlock, timeout, crash), plus
the :data:`FAILED_RUN` violations they cause, surfaces the first such
failure's own exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import SimulationError, VerificationError, describe, exit_code_for

#: Schema version of the JSON artifact (bump on incompatible layout change).
ARTIFACT_SCHEMA = 1

#: ``Violation.check`` of a property that could not be checked because
#: the run it needed failed; that failure decides the exit code.
FAILED_RUN = "failed-run"


@dataclass(frozen=True)
class Violation:
    """One verified-invariant defect.

    Attributes:
        scope: where it was found — a workload name for differential
            checks, ``"property:<name>"`` for fuzz-layer checks.
        check: invariant family, e.g. ``"functional-identity"``,
            ``"cycle-ordering"``, ``"unswizzle-inversion"``.
        message: human-readable specifics (values, masks, policies).
    """

    scope: str
    check: str
    message: str

    def as_dict(self) -> Dict[str, str]:
        return {"scope": self.scope, "check": self.check,
                "message": self.message}


@dataclass
class WorkloadVerdict:
    """Differential-verification outcome for one workload.

    ``error`` is set (instead of ``violations``) when the workload could
    not be cross-checked at all because one of its policy runs failed
    with a typed simulation error; ``error_exit`` preserves that
    failure's :mod:`repro.errors` exit code.
    """

    workload: str
    violations: List[Violation] = field(default_factory=list)
    error: Optional[str] = None
    error_exit: int = 0
    #: Per-policy headline metrics (policy value -> metric -> number),
    #: recorded even on failure so the artifact shows what diverged.
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations and self.error is None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "workload": self.workload,
            "passed": self.passed,
            "violations": [v.as_dict() for v in self.violations],
            "metrics": self.metrics,
        }
        if self.error is not None:
            out["error"] = self.error
            out["error_exit_code"] = self.error_exit
        return out


@dataclass
class PropertyReport:
    """Fuzz/property-layer outcome for one invariant family."""

    name: str
    cases: int
    violations: List[Violation] = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "cases": self.cases,
            "passed": self.passed,
            "violations": [v.as_dict() for v in self.violations],
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


@dataclass
class VerifyReport:
    """Everything one ``repro verify`` invocation established."""

    workloads: List[WorkloadVerdict] = field(default_factory=list)
    properties: List[PropertyReport] = field(default_factory=list)

    @property
    def violations(self) -> List[Violation]:
        out: List[Violation] = []
        for verdict in self.workloads:
            out.extend(verdict.violations)
        for prop in self.properties:
            out.extend(prop.violations)
        return out

    @property
    def errors(self) -> List[WorkloadVerdict]:
        return [v for v in self.workloads if v.error is not None]

    @property
    def passed(self) -> bool:
        return (all(v.passed for v in self.workloads)
                and all(p.passed for p in self.properties))

    def exit_code(self) -> int:
        """CLI exit status under the :mod:`repro.errors` contract."""
        if self.passed:
            return 0
        if any(v.check != FAILED_RUN for v in self.violations):
            return VerificationError.exit_code
        # Only typed simulation failures: surface the first one's code.
        return next((v.error_exit for v in self.errors),
                    VerificationError.exit_code)

    def as_artifact(self) -> Dict[str, Any]:
        """JSON-serializable artifact (the ``--json`` payload)."""
        return {
            "schema": ARTIFACT_SCHEMA,
            "passed": self.passed,
            "exit_code": self.exit_code(),
            "workloads": [v.as_dict() for v in self.workloads],
            "properties": [p.as_dict() for p in self.properties],
            "counts": {
                "workloads": len(self.workloads),
                "workloads_passed": sum(v.passed for v in self.workloads),
                "violations": len(self.violations),
                "errors": len(self.errors),
                "property_cases": sum(p.cases for p in self.properties),
            },
        }

    def summary_lines(self) -> List[str]:
        """Human-readable wrap-up for stderr."""
        passed = sum(v.passed for v in self.workloads)
        lines = [
            f"verify: {passed}/{len(self.workloads)} workload(s) passed, "
            f"{sum(p.cases for p in self.properties)} property case(s), "
            f"{len(self.violations)} violation(s), "
            f"{len(self.errors)} execution error(s)"
        ]
        for violation in self.violations:
            lines.append(f"  VIOLATION [{violation.scope}] "
                         f"{violation.check}: {violation.message}")
        for verdict in self.errors:
            lines.append(f"  ERROR [{verdict.workload}] {verdict.error}")
        return lines


def error_verdict(workload: str, error: BaseException) -> WorkloadVerdict:
    """Verdict for a workload whose policy runs could not complete."""
    exit_code = (exit_code_for(error)
                 if isinstance(error, SimulationError) else
                 SimulationError.exit_code)
    return WorkloadVerdict(workload=workload, error=describe(error),
                           error_exit=exit_code)
