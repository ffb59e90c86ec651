"""The seed grant loop, kept as the reference the batched grant path must equal.

``tests/test_batched_grants.py`` and ``tests/test_cm_api_path.py`` replay the
same scheduler state through this loop and through
:meth:`~repro.core.manager.CongestionManager._maybe_grant` and compare what
each granted.
"""

from __future__ import annotations

__all__ = ["unbatched_maybe_grant"]


def unbatched_maybe_grant(manager, macroflow) -> None:
    """The seed grant loop: one scheduler pop and window check per MTU.

    Operates on the live :class:`~repro.core.manager.CongestionManager`
    data structures, so benchmarks can compare it directly against the
    batched ``_maybe_grant`` on identical state.
    """
    while macroflow.scheduler.has_pending() and macroflow.window_open():
        flow_id = macroflow.scheduler.next_flow()
        if flow_id is None:
            break
        flow = manager._flows.get(flow_id)
        if flow is None or not flow.is_open or flow.macroflow is not macroflow:
            continue
        macroflow.reserved_bytes += macroflow.mtu
        flow.granted_unnotified += 1
        flow.stats.grants += 1
        flow.channel.post_send_grant(flow)
