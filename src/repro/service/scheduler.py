"""Deficit-round-robin scheduling over tenant queues.

The compile service turns every in-flight request into a chain of small
schedulable units — one probe batch (or the final shot-execution job)
each. The scheduler's job is to pick, each *round*, which tenants' next
units run in the round's execution window, such that a tenant
flooding the queue cannot starve a light one.

The policy is classic deficit round-robin (DRR), with probe *jobs* as
the currency: each round, every backlogged tenant earns its configured
``quantum`` of deficit, then spends deficit on its queued units head
first, stopping at the first unit it cannot afford. Costs vary per unit
(a candidate batch probes every replacement for one link; the reference
and final units cost one job), which is exactly the situation DRR
handles and plain round-robin does not — long-batch tenants pay for
their bulk in skipped rounds.

Two extra rules keep the scheduler live:

* **Round budget** — an optional global cap (in jobs) per round, sized
  to the cloud service's calibration-window quota, so one round never
  needs more than a window. The cap soft-fails: an
  oversized unit is still scheduled when it is the round's first pick,
  because a unit larger than the whole budget could otherwise never
  run.
* **Forced progress** — if no backlogged tenant can afford its head
  unit (quanta smaller than every pending batch), the largest-deficit
  tenant runs anyway and goes negative, repaying the overdraft in later
  rounds. A round with backlog always schedules something.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..exceptions import ServiceError
from .tenant import TenantState

__all__ = ["DeficitRoundRobin"]


class DeficitRoundRobin:
    """DRR over :class:`~repro.service.tenant.TenantState` queues.

    Queue entries are opaque to the scheduler except for an integer
    ``cost`` attribute (jobs in the entry's next schedulable unit).
    Picked entries are *removed* from their queues; the caller re-queues
    unfinished entries at the front after the round executes.

    Args:
        round_budget_jobs: Optional per-round cap on total scheduled
            jobs (align it with the fault profile's
            ``max_jobs_per_window`` to make rounds window-shaped).
    """

    def __init__(self, round_budget_jobs: Optional[int] = None) -> None:
        if round_budget_jobs is not None and round_budget_jobs < 1:
            raise ServiceError("round_budget_jobs must be >= 1 when set")
        self.round_budget_jobs = round_budget_jobs
        self.rounds = 0
        self._cursor = 0

    def next_round(
        self, tenants: Sequence[TenantState]
    ) -> List[Tuple[TenantState, object]]:
        """Pick this round's ``(tenant, entry)`` units, in service order.

        Call with the service lock held: queues and deficits are
        mutated. Returns an empty list only when no tenant has work.
        """
        backlogged = [tenant for tenant in tenants if tenant.queue]
        if not backlogged:
            return []
        self.rounds += 1
        # Rotate the starting tenant so the round budget's early-pick
        # advantage is spread evenly instead of always favouring the
        # first-registered tenant.
        start = self._cursor % len(backlogged)
        self._cursor += 1
        order = backlogged[start:] + backlogged[:start]
        budget = self.round_budget_jobs
        picked: List[Tuple[TenantState, object]] = []
        for tenant in order:
            tenant.deficit += tenant.config.quantum
            served = False
            while tenant.queue:
                cost = tenant.queue[0].cost
                if cost > tenant.deficit:
                    break
                if budget is not None and cost > budget and picked:
                    break
                entry = tenant.queue.popleft()
                tenant.deficit -= cost
                if budget is not None:
                    budget = max(budget - cost, 0)
                picked.append((tenant, entry))
                served = True
                if budget == 0:
                    break
            if served:
                tenant.rounds += 1
            if not tenant.queue:
                # Standard DRR: an emptied queue forfeits its leftover
                # deficit, so idle tenants cannot bank credit.
                tenant.deficit = 0.0
            if budget == 0:
                break
        if not picked:
            # Forced progress: run the most-entitled head unit on
            # credit rather than deadlocking on undersized quanta.
            tenant = max(order, key=lambda t: t.deficit)
            entry = tenant.queue.popleft()
            tenant.deficit -= entry.cost
            tenant.rounds += 1
            picked.append((tenant, entry))
        return picked
