"""Flow schedulers: apportioning a macroflow's window among its flows.

The congestion controller decides how much a macroflow may have in flight;
the scheduler decides which constituent flow's pending ``cm_request`` is
granted next.  The paper's implementation uses an unweighted round-robin
scheduler; a weighted variant is provided for the ablation study.

A scheduler only orders *requests* — each entry corresponds to one
``cm_request`` call, i.e. permission to send up to one MTU.

Since PR 1 the manager drains requests in batches: ``next_batch(limit)``
pops up to ``limit`` requests in one call, with the invariant that the
returned sequence is exactly what ``limit`` successive ``next_flow()``
calls would have produced (see ``docs/batched_dispatch.md``).  Batching
changes the dispatch cost, never the service order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional

__all__ = ["Scheduler", "RoundRobinScheduler", "WeightedRoundRobinScheduler"]


class Scheduler(ABC):
    """Queue of pending send requests for the flows of one macroflow."""

    name = "base"

    @abstractmethod
    def enqueue(self, flow_id: int) -> None:
        """Record one pending request (one MTU's worth) for ``flow_id``."""

    @abstractmethod
    def next_flow(self) -> Optional[int]:
        """Pop and return the flow whose request should be granted next."""

    @abstractmethod
    def pending_requests(self, flow_id: Optional[int] = None) -> int:
        """Number of queued requests, in total or for one flow."""

    @abstractmethod
    def remove_flow(self, flow_id: int) -> None:
        """Discard every pending request belonging to ``flow_id``."""

    def has_pending(self) -> bool:
        """True if any request is waiting."""
        return self.pending_requests() > 0

    def next_batch(self, limit: int) -> List[int]:
        """Pop up to ``limit`` requests in grant order.

        The returned sequence is exactly what ``limit`` successive
        :meth:`next_flow` calls would have produced — batching changes the
        dispatch cost, never the service order.  Subclasses may override
        this loop with something cheaper.
        """
        batch: List[int] = []
        append = batch.append
        while len(batch) < limit:
            flow_id = self.next_flow()
            if flow_id is None:
                break
            append(flow_id)
        return batch


class RoundRobinScheduler(Scheduler):
    """Unweighted round robin — the paper's default.

    Each flow keeps a FIFO count of its pending requests and flows are
    served in a circular order, one request per turn, which gives the
    "loose ordering ... provided no flows are starved" behaviour §2.2.2
    requires.
    """

    name = "round-robin"

    def __init__(self) -> None:
        # OrderedDict preserves the service order; counts are pending requests.
        self._pending: "OrderedDict[int, int]" = OrderedDict()

    def enqueue(self, flow_id: int) -> None:
        if flow_id in self._pending:
            self._pending[flow_id] += 1
        else:
            self._pending[flow_id] = 1

    def next_flow(self) -> Optional[int]:
        if not self._pending:
            return None
        flow_id, count = next(iter(self._pending.items()))
        if count <= 1:
            del self._pending[flow_id]
        else:
            # Serve one request and rotate the flow to the back of the ring.
            del self._pending[flow_id]
            self._pending[flow_id] = count - 1
        return flow_id

    def next_batch(self, limit: int) -> List[int]:
        """Round-robin batch pop without per-grant ring rotation.

        A *complete* round of :meth:`next_flow` calls rotates every flow to
        the back once, which leaves the surviving flows in their original
        relative order — so whole rounds can be served by decrementing
        counts in place.  Only the final partial round has to perform the
        real head-of-ring rotation to keep the order identical to the
        one-at-a-time scheduler.
        """
        pending = self._pending
        batch: List[int] = []
        append = batch.append
        while pending and len(batch) < limit:
            room = limit - len(batch)
            flows = list(pending.items())
            if room >= len(flows):
                for flow_id, count in flows:
                    append(flow_id)
                    if count <= 1:
                        del pending[flow_id]
                    else:
                        pending[flow_id] = count - 1
            else:
                for flow_id, count in flows[:room]:
                    append(flow_id)
                    del pending[flow_id]
                    if count > 1:
                        pending[flow_id] = count - 1
                break
        return batch

    def pending_requests(self, flow_id: Optional[int] = None) -> int:
        if flow_id is not None:
            return self._pending.get(flow_id, 0)
        return sum(self._pending.values())

    def has_pending(self) -> bool:
        # A flow is in the ring only while its count is >= 1.
        return bool(self._pending)

    def remove_flow(self, flow_id: int) -> None:
        self._pending.pop(flow_id, None)


class WeightedRoundRobinScheduler(Scheduler):
    """Weighted round robin with per-flow credit counters.

    Flows with weight *w* receive *w* grants per scheduling round.  Weights
    default to 1, so with no explicit configuration this degenerates to the
    unweighted scheduler.
    """

    name = "weighted-round-robin"

    def __init__(self, default_weight: int = 1):
        if default_weight < 1:
            raise ValueError("default weight must be >= 1")
        self.default_weight = default_weight
        self._weights: Dict[int, int] = {}
        self._queues: "OrderedDict[int, int]" = OrderedDict()
        self._credits: Dict[int, int] = {}
        self._ring: Deque[int] = deque()

    def set_weight(self, flow_id: int, weight: int) -> None:
        """Assign a relative weight to a flow (takes effect next round)."""
        if weight < 1:
            raise ValueError("weight must be >= 1")
        self._weights[flow_id] = weight

    def weight_of(self, flow_id: int) -> int:
        """Current weight for a flow (the default when unset)."""
        return self._weights.get(flow_id, self.default_weight)

    def enqueue(self, flow_id: int) -> None:
        if flow_id not in self._queues:
            self._queues[flow_id] = 0
            self._ring.append(flow_id)
            self._credits.setdefault(flow_id, self.weight_of(flow_id))
        self._queues[flow_id] += 1

    def next_flow(self) -> Optional[int]:
        attempts = len(self._ring)
        while attempts > 0 and self._ring:
            flow_id = self._ring[0]
            pending = self._queues.get(flow_id, 0)
            if pending == 0:
                self._ring.popleft()
                self._queues.pop(flow_id, None)
                self._credits.pop(flow_id, None)
                attempts -= 1
                continue
            if self._credits.get(flow_id, 0) <= 0:
                # Out of credit: replenish and move to the back of the ring.
                self._credits[flow_id] = self.weight_of(flow_id)
                self._ring.rotate(-1)
                attempts -= 1
                continue
            self._credits[flow_id] -= 1
            self._queues[flow_id] -= 1
            if self._queues[flow_id] == 0:
                self._ring.popleft()
                self._queues.pop(flow_id, None)
                self._credits.pop(flow_id, None)
            return flow_id
        # Everybody was out of credit this pass; replenish and retry once.
        if self._ring:
            for flow_id in self._ring:
                self._credits[flow_id] = self.weight_of(flow_id)
            return self.next_flow()
        return None

    def next_batch(self, limit: int) -> List[int]:
        """Weighted batch pop without per-grant credit/ring churn.

        Successive :meth:`next_flow` calls serve the head flow repeatedly
        until its credit or queue runs out, so a batch can take
        ``min(credit, pending, room)`` grants from the head in one step
        instead of paying the full credit-check/decrement cycle per MTU.
        Rotation and replenishment happen exactly where the one-at-a-time
        loop performs them, which keeps the batch output order-identical
        (the fairness regression test replays both against random
        workloads).
        """
        batch: List[int] = []
        ring = self._ring
        queues = self._queues
        credits = self._credits
        filled = 0
        while ring and filled < limit:
            flow_id = ring[0]
            pending = queues.get(flow_id, 0)
            if pending == 0:
                # Drained entry left behind by remove_flow bookkeeping.
                ring.popleft()
                queues.pop(flow_id, None)
                credits.pop(flow_id, None)
                continue
            credit = credits.get(flow_id, 0)
            if credit <= 0:
                # Out of credit: replenish and move to the back of the ring
                # (the same order next_flow's rotation produces).
                credits[flow_id] = self.weight_of(flow_id)
                ring.rotate(-1)
                continue
            take = min(credit, pending, limit - filled)
            batch.extend([flow_id] * take)
            filled += take
            credits[flow_id] = credit - take
            if pending == take:
                ring.popleft()
                queues.pop(flow_id, None)
                credits.pop(flow_id, None)
            else:
                queues[flow_id] = pending - take
        return batch

    def pending_requests(self, flow_id: Optional[int] = None) -> int:
        if flow_id is not None:
            return self._queues.get(flow_id, 0)
        return sum(self._queues.values())

    def has_pending(self) -> bool:
        # A queue entry exists only while its count is >= 1.
        return bool(self._queues)

    def remove_flow(self, flow_id: int) -> None:
        self._queues.pop(flow_id, None)
        self._credits.pop(flow_id, None)
        try:
            self._ring.remove(flow_id)
        except ValueError:
            pass
