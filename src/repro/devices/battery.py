"""Battery and power-state model for edge devices.

Paper Section III-A: "If the device is connected to an external power
supply, energy consumption might be less of an issue compared to when it is
unplugged and has to rely on battery power.  This might mean that a
different model could be preferred, depending on the battery level."

The :class:`Battery` tracks energy in joules and exposes the state-of-charge
signals that model selection (:mod:`repro.core.selection`) and federated
client scheduling (:mod:`repro.federated.scheduling`) consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Battery", "PowerState"]


class PowerState:
    """Discrete power states a device can report."""

    ON_BATTERY = "on_battery"
    PLUGGED_IN = "plugged_in"
    LOW_POWER = "low_power"
    DEPLETED = "depleted"


@dataclass
class Battery:
    """Simple energy-bucket battery model.

    Parameters
    ----------
    capacity_j:
        Full capacity in joules.  ``float('inf')`` models mains-powered
        devices (edge servers, cloud).
    level_j:
        Current charge; defaults to full.
    plugged_in:
        Whether the device is currently connected to external power.
    low_power_threshold:
        State-of-charge fraction below which the device reports
        :data:`PowerState.LOW_POWER`.
    charge_rate_w:
        Charging power applied while plugged in (joules per simulated second).
    idle_draw_w:
        Baseline power draw, applied by :meth:`advance`.
    """

    capacity_j: float = 5000.0
    level_j: Optional[float] = None
    plugged_in: bool = False
    low_power_threshold: float = 0.2
    charge_rate_w: float = 5.0
    idle_draw_w: float = 0.01

    def __post_init__(self) -> None:
        if self.level_j is None:
            self.level_j = self.capacity_j
        self.level_j = min(self.level_j, self.capacity_j)

    # -- queries ---------------------------------------------------------
    @property
    def state_of_charge(self) -> float:
        """Fraction of capacity remaining in [0, 1] (1.0 for mains power)."""
        if self.capacity_j == float("inf"):
            return 1.0
        if self.capacity_j <= 0:
            return 0.0
        return max(0.0, min(1.0, self.level_j / self.capacity_j))

    @property
    def state(self) -> str:
        """Current :class:`PowerState`."""
        if self.plugged_in:
            return PowerState.PLUGGED_IN
        if self.state_of_charge <= 0.0:
            return PowerState.DEPLETED
        if self.state_of_charge < self.low_power_threshold:
            return PowerState.LOW_POWER
        return PowerState.ON_BATTERY

    # -- mutations ---------------------------------------------------------
    def draw(self, energy_j: float) -> bool:
        """Consume ``energy_j``; returns False (and drains to 0) if depleted."""
        if energy_j < 0:
            raise ValueError("energy draw must be non-negative")
        if self.plugged_in or self.capacity_j == float("inf"):
            return True
        if self.level_j >= energy_j:
            self.level_j -= energy_j
            return True
        self.level_j = 0.0
        return False

    def draw_batch(self, energy_j: float, n: int, exact: bool = False) -> int:
        """Consume energy for up to ``n`` executions at once; returns how many fit.

        Closed-form equivalent of ``n`` successive :meth:`draw` calls: the
        number of executions the remaining charge covers is computed with one
        division instead of a Python loop, which is what lets the serving
        engine account a 10k-query window in O(1).  Matches the per-call
        semantics: when the batch does not fully fit, the battery is drained
        to zero (the failing draw depletes it), otherwise the consumed energy
        is subtracted.

        Floating-point caveat: with energies exactly representable in binary
        (powers of two and their sums) both the admitted count and the
        resulting level are bit-identical to the loop.  For arbitrary
        energies the loop's iterated subtraction and this division round
        differently, so at an exact-capacity boundary the admitted count can
        differ by one (e.g. ``level=1.0, energy=0.1``: the loop admits 10,
        ``1.0 // 0.1`` is 9).  The batched path is canonical — the platform
        serves exclusively through it, so admission is self-consistent.

        ``exact=True`` selects the iterated-subtraction semantics instead:
        the result (count and level) is bit-identical to ``n`` successive
        :meth:`draw` calls for *any* energy, at O(served) cost.  Oracle paths
        (``engine="oracle"``) use this so equivalence suites compare against
        the loop semantics without special-casing the boundary.
        """
        if energy_j < 0:
            raise ValueError("energy draw must be non-negative")
        if n < 0:
            raise ValueError("batch size must be non-negative")
        if n == 0:
            return 0
        if self.plugged_in or self.capacity_j == float("inf") or energy_j == 0.0:
            return n
        if exact:
            level = self.level_j
            served = 0
            while served < n and level >= energy_j:
                level -= energy_j
                served += 1
            self.level_j = level if served == n else 0.0
            return served
        fits = int(self.level_j // energy_j) if self.level_j >= energy_j else 0
        if fits >= n:
            self.level_j = max(0.0, self.level_j - n * energy_j)
            return n
        self.level_j = 0.0
        return fits

    def advance(self, seconds: float) -> None:
        """Advance simulated time: apply idle draw or charging."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        if self.capacity_j == float("inf"):
            return
        if self.plugged_in:
            self.level_j = min(self.capacity_j, self.level_j + self.charge_rate_w * seconds)
        else:
            self.level_j = max(0.0, self.level_j - self.idle_draw_w * seconds)

    def plug(self) -> None:
        """Connect to external power."""
        self.plugged_in = True

    def unplug(self) -> None:
        """Disconnect from external power."""
        self.plugged_in = False
