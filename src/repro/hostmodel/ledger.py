"""CPU accounting ledger for a simulated end host.

Components charge named operations (see
:class:`~repro.hostmodel.costs.CostModel`) plus data-size-dependent costs
(copies, checksums).  Experiments then read total busy time and utilisation
to reproduce the paper's CPU-overhead comparisons (Figure 5) and per-packet
API costs (Figure 6, Table 1).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Optional

from .costs import CostModel

__all__ = ["CpuLedger", "HostCosts"]

_NEGATIVE_CHARGE = "cannot charge negative CPU time"


class CpuLedger:
    """Accumulates CPU microseconds by category.

    Categories are free-form strings; by convention they are either the
    operation name (``"syscall"``, ``"ioctl"``) or a component label passed
    explicitly (``"tcp"``, ``"cm"``).
    """

    def __init__(self) -> None:
        self.busy_us_by_category: Dict[str, float] = defaultdict(float)
        self.operation_counts: Counter = Counter()
        self.total_us: float = 0.0

    def charge(self, category: str, microseconds: float) -> None:
        """Add ``microseconds`` of busy time under ``category``."""
        if microseconds < 0:
            raise ValueError(_NEGATIVE_CHARGE)
        self.busy_us_by_category[category] += microseconds
        self.total_us += microseconds

    def count(self, operation: str, times: int = 1) -> None:
        """Record that ``operation`` happened ``times`` times (no CPU charge)."""
        self.operation_counts[operation] += times

    def utilization(self, elapsed_seconds: float) -> float:
        """Fraction of ``elapsed_seconds`` the host CPU was busy (capped at 1)."""
        if elapsed_seconds <= 0:
            return 0.0
        return min(1.0, self.total_us / 1e6 / elapsed_seconds)

    def snapshot(self) -> Dict[str, float]:
        """Copy of the per-category busy time, for diffing in tests."""
        return dict(self.busy_us_by_category)

    def reset(self) -> None:
        """Zero all counters."""
        self.busy_us_by_category.clear()
        self.operation_counts.clear()
        self.total_us = 0.0


#: What a host charges by unless given its own model.  Immutable, so every
#: default host shares it and its price table.
_DEFAULT_MODEL = CostModel()

def _kernel_path(operation: str, direction: str):
    """Build ``kernel_tx`` / ``kernel_rx``: the fixed per-packet price, then the checksum."""

    def charge(self, nbytes: int) -> float:
        fixed = self._prices[operation]
        checksum = self.model.checksum_per_kb * (nbytes / 1024.0)
        if fixed < 0 or checksum < 0:
            raise ValueError(_NEGATIVE_CHARGE)
        ledger = self.ledger
        busy = ledger.busy_us_by_category
        busy["kernel"] = (busy["kernel"] + fixed) + checksum
        ledger.total_us = (ledger.total_us + fixed) + checksum
        ledger.operation_counts[operation] += 1
        return fixed + checksum

    charge.__doc__ = f"Charge the in-kernel {direction} path for one packet of ``nbytes``."
    return charge


class HostCosts:
    """Convenience facade bundling a :class:`CostModel` and a :class:`CpuLedger`.

    Each simulated :class:`~repro.netsim.node.Host` owns one of these; the
    IP layer, transports, the CM and libcm charge through it.

    Every method is one frame over the ledger's accumulators.  A composite
    stands for a fixed sequence of primitive charges and performs *that
    sequence's additions, one at a time, in that order* — ``(x + a) + b``,
    never ``x + (a + b)``: 0.4, 0.8 and the per-kB prices are not exact
    binary fractions, and the accumulated floats are in every result digest
    (``docs/cm_api_path.md``).  A charge that would be negative or names an
    unknown operation raises before anything is added or counted.
    """

    def __init__(self, model: Optional[CostModel] = None, ledger: Optional[CpuLedger] = None):
        self.model = model or _DEFAULT_MODEL
        self.ledger = ledger or CpuLedger()
        self._prices = self.model.prices

    # ------------------------------------------------------------ primitives
    def charge_operation(self, operation: str, count: int = 1, category: Optional[str] = None) -> float:
        """Charge ``count`` occurrences of a named operation; returns µs charged."""
        microseconds = self._prices[operation] * count
        if microseconds < 0:
            raise ValueError(_NEGATIVE_CHARGE)
        ledger = self.ledger
        ledger.busy_us_by_category[category or operation] += microseconds
        ledger.total_us += microseconds
        ledger.operation_counts[operation] += count
        return microseconds

    def charge_copy(self, nbytes: int, category: str = "copy") -> float:
        """Charge a kernel<->user data copy of ``nbytes`` bytes."""
        microseconds = self.model.copy_per_kb * (nbytes / 1024.0)
        if microseconds < 0:
            raise ValueError(_NEGATIVE_CHARGE)
        ledger = self.ledger
        ledger.busy_us_by_category[category] += microseconds
        ledger.total_us += microseconds
        ledger.operation_counts["copy_bytes"] += nbytes
        return microseconds

    def charge_checksum(self, nbytes: int, category: str = "checksum") -> float:
        """Charge computing an Internet checksum over ``nbytes`` bytes."""
        microseconds = self.model.checksum_per_kb * (nbytes / 1024.0)
        if microseconds < 0:
            raise ValueError(_NEGATIVE_CHARGE)
        ledger = self.ledger
        ledger.busy_us_by_category[category] += microseconds
        ledger.total_us += microseconds
        return microseconds

    # ----------------------------------------------------- common composites
    def syscall(self, operation: str = "syscall", category: Optional[str] = None) -> float:
        """Charge a system call of the given flavour (trap plus the op itself)."""
        if operation == "syscall":
            return self.charge_operation("syscall", 1, category)
        trap = self._prices["syscall"]
        call = self._prices[operation]
        if trap < 0 or call < 0:
            raise ValueError(_NEGATIVE_CHARGE)
        ledger = self.ledger
        busy = ledger.busy_us_by_category
        if category:
            busy[category] = (busy[category] + trap) + call
        else:
            busy["syscall"] += trap
            busy[operation] += call
        ledger.total_us = (ledger.total_us + trap) + call
        counts = ledger.operation_counts
        counts["syscall"] += 1
        counts[operation] += 1
        return trap + call

    def syscall_copy(self, operation: str, nbytes: int, category: str) -> float:
        """Charge a data-moving system call: trap, the call, then the copy of ``nbytes``."""
        trap = self._prices["syscall"]
        call = self._prices[operation]
        copy = self.model.copy_per_kb * (nbytes / 1024.0)
        if trap < 0 or call < 0 or copy < 0:
            raise ValueError(_NEGATIVE_CHARGE)
        ledger = self.ledger
        busy = ledger.busy_us_by_category
        busy[category] = ((busy[category] + trap) + call) + copy
        ledger.total_us = ((ledger.total_us + trap) + call) + copy
        counts = ledger.operation_counts
        counts["syscall"] += 1
        counts[operation] += 1
        counts["copy_bytes"] += nbytes
        return (trap + call) + copy

    kernel_tx = _kernel_path("kernel_tx_packet", "transmit")
    kernel_rx = _kernel_path("kernel_rx_packet", "receive")

    # ------------------------------------------------------------ inspection
    @property
    def total_us(self) -> float:
        """Total microseconds charged so far."""
        return self.ledger.total_us

    def utilization(self, elapsed_seconds: float) -> float:
        """CPU utilisation over ``elapsed_seconds`` of simulated time."""
        return self.ledger.utilization(elapsed_seconds)
