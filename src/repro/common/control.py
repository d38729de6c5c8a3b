"""Shared control-loop arithmetic.

One implementation of the AIMD step used by both pressure controllers —
the background scheduler's SLO governor (token scale) and the adaptive
admission controller (tenant rate scale) — so a semantics fix reaches
both.  What *differs* between them stays at the call sites: how a breach
is gated (the governor ignores breaches while the maintenance plane is
quiet) and what the scale multiplies.
"""

from __future__ import annotations

__all__ = ["aimd_step", "validate_aimd"]


def aimd_step(
    scale: float,
    breached: bool,
    *,
    backoff: float,
    recover: float,
    floor: float,
) -> float:
    """Additive-increase / multiplicative-decrease on a throttle scale in
    ``[floor, 1]``."""
    if breached:
        return max(floor, scale * backoff)
    return min(1.0, scale + recover)


def validate_aimd(*, target: float, window: float) -> None:
    """Sanity bounds for the inputs both pressure loops take: the p99
    breach target and its trailing window (the step sizes are constants of
    each loop's module)."""
    if target <= 0 or window <= 0:
        raise ValueError("AIMD target/window must be positive")
