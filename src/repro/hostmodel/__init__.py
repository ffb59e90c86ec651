"""End-host CPU cost model (system calls, crossings, copies).

See :mod:`repro.hostmodel.costs` for the calibration rationale.
"""

from .costs import CostModel, OPERATIONS
from .ledger import CpuLedger, HostCosts, LedgerDelta, LedgerMark

__all__ = ["CostModel", "OPERATIONS", "CpuLedger", "HostCosts", "LedgerDelta", "LedgerMark"]
