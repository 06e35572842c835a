"""Differential validation and fault injection (``python -m repro validate``).

The unit suite pins individual functions; this layer cross-checks whole
engines against each other and injects the failures the runtime claims
to survive.  Three check classes (see :mod:`repro.validate.checks`):

- **differential** — every fast path (batched ensembles, the packed/
  compiled IPC kernel, levelised-array STA, level-at-a-time pipeline
  leveling, the persistent cache) diffed against its reference
  implementation on seeded samples;
- **invariant** — structural properties of characterised data and
  measurement code (NLDM sanity, lossless round-trips, ordered waveform
  crossings, worker-count-independent telemetry);
- **fault** — seeded fault injection via :mod:`repro.validate.faults`
  (worker crashes, corrupt cache entries, starved Newton solves, a
  missing C toolchain), asserting the documented degradation.

Usage::

    python -m repro validate --fast            # CI: seeded, minutes
    python -m repro validate --full --seed 7   # nightly: larger samples

Every check is isolated: one failure never stops the others, and the
report names each failing check with its mismatch.  Exit status is the
report's ``ok``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.runtime.log import get_logger
from repro.validate.checks import (
    CheckContext,
    CheckFailure,
    CheckResult,
    registered_checks,
)

_logger = get_logger(__name__)

__all__ = ["ValidationReport", "run_validation"]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one validation run."""

    seed: int
    fast: bool
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results) and bool(self.results)

    @property
    def n_failed(self) -> int:
        return sum(not r.ok for r in self.results)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "mode": "fast" if self.fast else "full",
            "ok": self.ok,
            "n_checks": len(self.results),
            "n_failed": self.n_failed,
            "checks": [r.to_dict() for r in self.results],
        }

    def format(self) -> str:
        """Human-readable run summary (one line per check)."""
        lines = [f"validation ({'fast' if self.fast else 'full'}, "
                 f"seed={self.seed}): "
                 f"{len(self.results) - self.n_failed}/{len(self.results)} "
                 f"checks passed"]
        width = max((len(r.name) for r in self.results), default=0)
        for r in self.results:
            status = "ok  " if r.ok else "FAIL"
            lines.append(f"  {status} [{r.kind:<12}] {r.name:<{width}} "
                         f"({r.duration_seconds:6.2f}s)  "
                         f"{r.detail if r.ok else r.error}")
        return "\n".join(lines)


def run_validation(fast: bool = True, seed: int = 0,
                   only: list[str] | None = None) -> ValidationReport:
    """Run the registered checks; never raises on a check failure.

    A :class:`~repro.validate.checks.CheckFailure` marks the check
    failed with its mismatch message; any other exception marks it
    failed as *broken* (the check itself errored) — both are reported,
    neither aborts the run.  ``only`` restricts to exact check names.
    """
    checks = registered_checks(fast=fast, only=only)
    results: list[CheckResult] = []
    for c in checks:
        ctx = CheckContext(name=c.name, seed=seed, fast=fast)
        t0 = perf_counter()
        try:
            detail = c.fn(ctx) or ""
            result = CheckResult(name=c.name, kind=c.kind, ok=True,
                                 duration_seconds=perf_counter() - t0,
                                 detail=detail)
        except CheckFailure as exc:
            result = CheckResult(name=c.name, kind=c.kind, ok=False,
                                 duration_seconds=perf_counter() - t0,
                                 error=str(exc))
        except Exception as exc:  # noqa: BLE001 - isolate broken checks
            result = CheckResult(
                name=c.name, kind=c.kind, ok=False,
                duration_seconds=perf_counter() - t0,
                error=f"check broken: {type(exc).__name__}: {exc}")
        (_logger.info if result.ok else _logger.error)(
            "check %s: %s (%.2fs)%s", c.name,
            "ok" if result.ok else "FAILED", result.duration_seconds,
            "" if result.ok else f" - {result.error}")
        results.append(result)
    return ValidationReport(seed=seed, fast=fast, results=results)
