"""Structured pass/fail records emitted by the verification layer."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class VerificationReport:
    """One verified identity: what was computed, against what, how close."""

    name: str
    computed: float
    reference: float
    tolerance: float
    residual: float
    passed: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: computed={self.computed:.6e} "
                f"reference={self.reference:.6e} residual={self.residual:.3e} "
                f"tol={self.tolerance:.1e}")
