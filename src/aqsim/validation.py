"""Correspondence checks between models and structured validation reports.

Two kinds of check: exact isomorphism of two Hamiltonians under a site
bijection and unit rescale, and an approximation bound quantifying how much
a reduced model deviates from a fuller one on a set of probe states.
Reports separate internal checks (does the device realize its own model)
from external checks (is the model probative about the concrete target);
an emulation report without external evidence is rejected outright rather
than silently downgraded to a simulation report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .hamiltonians import Hamiltonian, MappingRecord, map_network

REPORT_SCHEMA_VERSION = 1

CHECK_KINDS = ("isomorphism", "approximation")
ROLES = ("simulation", "emulation")


class ReportRoleError(ValueError):
    """Report composition violates the simulation/emulation invariants."""


@dataclass(frozen=True)
class CorrespondenceCheck:
    """Outcome of one correspondence check: metric against tolerance."""

    kind: str
    metric: float
    tolerance: float
    passed: bool
    details: dict

    def __post_init__(self):
        if self.kind not in CHECK_KINDS:
            raise ValueError(f"kind must be one of {CHECK_KINDS}, got {self.kind!r}")
        if not self.metric >= 0:
            raise ValueError("metric must be non-negative")
        if not self.tolerance >= 0:
            raise ValueError("tolerance must be non-negative")
        if self.passed != (self.metric <= self.tolerance):
            raise ValueError("passed flag must equal (metric <= tolerance)")
        object.__setattr__(self, "metric", float(self.metric))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "details", dict(self.details))


@dataclass(frozen=True)
class SpeedupClass:
    """One of the four claimed-advantage classes, with its justification."""

    class_id: int
    justification: str

    def __post_init__(self):
        if self.class_id not in (1, 2, 3, 4):
            raise ValueError("class_id must be 1, 2, 3 or 4")
        object.__setattr__(self, "class_id", int(self.class_id))
        object.__setattr__(self, "justification", str(self.justification))


@dataclass(frozen=True)
class ValidationReport:
    """Validation record for one experiment, internal and external checks."""

    role: str
    internal_checks: tuple
    external_checks: tuple
    speedup: SpeedupClass
    narrative: dict

    def __post_init__(self):
        if self.role not in ROLES:
            raise ReportRoleError(f"role must be one of {ROLES}, got {self.role!r}")
        internal = tuple(self.internal_checks)
        external = tuple(self.external_checks)
        if not internal:
            raise ReportRoleError("a report needs at least one internal check")
        if self.role == "emulation" and not external:
            raise ReportRoleError(
                "an emulation report needs at least one external check; "
                "re-request role='simulation' to claim less")
        if self.role == "simulation" and external:
            raise ReportRoleError("a simulation report must not claim external validation")
        object.__setattr__(self, "internal_checks", internal)
        object.__setattr__(self, "external_checks", external)
        object.__setattr__(self, "narrative",
                           {str(k): str(v) for k, v in dict(self.narrative).items()})

    @property
    def internally_valid(self) -> bool:
        return all(c.passed for c in self.internal_checks)

    @property
    def externally_valid(self) -> bool:
        return bool(self.external_checks) and all(c.passed for c in self.external_checks)


def check_isomorphism(h_a: Hamiltonian, h_b: Hamiltonian, rec: MappingRecord,
                      tol: float) -> CorrespondenceCheck:
    """Entrywise distance between H_a and H_b carried through the mapping.

    metric = max |H_a - map_network(H_b, rec)|; the check passes when the
    metric is at most tol.
    """
    if h_a.dim != h_b.dim:
        raise ValueError(f"dimension mismatch: {h_a.dim} vs {h_b.dim}")
    mapped = map_network(h_b, rec)
    metric = float(np.abs(h_a.matrix - mapped.matrix).max())
    return CorrespondenceCheck(
        kind="isomorphism", metric=metric, tolerance=float(tol),
        passed=metric <= tol,
        details={
            "unit_scale": rec.unit_scale,
            "site_bijection": list(rec.site_bijection),
            "h_a_sha256": h_a.content_hash(),
            "h_b_sha256": h_b.content_hash(),
        })


def approximation_bound(h_full: Hamiltonian, h_reduced: Hamiltonian,
                        state_set=None, tol: float = 1e-2,
                        k: int = 6) -> CorrespondenceCheck:
    """Worst relative residual of the reduced model over probe states.

    metric = max over states of ||(H_full - H_reduced) psi|| /
    ||H_reduced psi||, falling back to the absolute residual when the
    denominator vanishes.  Without an explicit state set the k lowest
    eigenstates of H_reduced are probed.  The spectral-norm distance
    between the two operators is reported in the details.
    """
    if h_full.dim != h_reduced.dim:
        raise ValueError(f"dimension mismatch: {h_full.dim} vs {h_reduced.dim}")
    if state_set is None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        _, vecs = np.linalg.eigh(h_reduced.matrix)
        states = list(vecs[:, :k].T)
    else:
        states = [np.asarray(s).ravel() for s in state_set]
    if not states:
        raise ValueError("state set must be non-empty")
    for s in states:
        if s.size != h_full.dim:
            raise ValueError("probe state length does not match dimension")
    diff = h_full.matrix - h_reduced.matrix
    metric = 0.0
    for psi in states:
        num = float(np.linalg.norm(diff @ psi))
        den = float(np.linalg.norm(h_reduced.matrix @ psi))
        metric = max(metric, num / den if den > 0 else num)
    return CorrespondenceCheck(
        kind="approximation", metric=metric, tolerance=float(tol),
        passed=metric <= tol,
        details={
            "n_states": len(states),
            "operator_norm_distance": float(np.abs(np.linalg.eigvalsh(diff)).max()),
            "h_full_sha256": h_full.content_hash(),
            "h_reduced_sha256": h_reduced.content_hash(),
        })


_CLASS_JUSTIFICATIONS = {
    1: "problem proven strictly harder than classical simulation",
    2: ("no hardness proof; best known classical algorithms are inefficient "
        "and the device scales up without losing accuracy"),
    3: ("no hardness proof; best known classical algorithms are inefficient "
        "but accurate scale-up of the device is unknown"),
    4: ("efficient classical algorithms exist; the quantum resource scaling "
        "is merely more favourable"),
}


def classify_speedup(hardness_proof: bool, efficient_classical_known: bool,
                     scalable_accuracy: bool) -> SpeedupClass:
    """Assign the advantage class from the three yes/no questions."""
    if hardness_proof:
        class_id = 1
    elif not efficient_classical_known and scalable_accuracy:
        class_id = 2
    elif not efficient_classical_known:
        class_id = 3
    else:
        class_id = 4
    return SpeedupClass(class_id, _CLASS_JUSTIFICATIONS[class_id])


def build_report(role: str, internal_checks, speedup: SpeedupClass,
                 narrative=None, external_checks=()) -> ValidationReport:
    """Assemble a report; invalid role/check combinations are rejected."""
    return ValidationReport(role=role,
                            internal_checks=tuple(internal_checks),
                            external_checks=tuple(external_checks),
                            speedup=speedup,
                            narrative=dict(narrative or {}))


def _check_to_dict(check: CorrespondenceCheck) -> dict:
    return {
        "kind": check.kind,
        "metric": check.metric,
        "tolerance": check.tolerance,
        "passed": check.passed,
        "details": check.details,
    }


def _check_from_dict(data: dict) -> CorrespondenceCheck:
    return CorrespondenceCheck(kind=data["kind"], metric=data["metric"],
                               tolerance=data["tolerance"], passed=data["passed"],
                               details=data["details"])


def report_to_json(report: ValidationReport) -> str:
    """Canonical JSON serialization (sorted keys, two-space indent)."""
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "role": report.role,
        "internal_checks": [_check_to_dict(c) for c in report.internal_checks],
        "external_checks": [_check_to_dict(c) for c in report.external_checks],
        "speedup": {"class_id": report.speedup.class_id,
                    "justification": report.speedup.justification},
        "narrative": report.narrative,
        "internally_valid": report.internally_valid,
        "externally_valid": report.externally_valid,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> ValidationReport:
    data = json.loads(text)
    version = data.get("schema_version")
    if version != REPORT_SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema version {version!r}")
    return ValidationReport(
        role=data["role"],
        internal_checks=tuple(_check_from_dict(c) for c in data["internal_checks"]),
        external_checks=tuple(_check_from_dict(c) for c in data["external_checks"]),
        speedup=SpeedupClass(data["speedup"]["class_id"],
                             data["speedup"]["justification"]),
        narrative=data["narrative"])
