"""Ablations of the CM design choices: scheduler, controller and macroflow sharing.

Three questions, each answered with a small experiment:

* **Scheduler** — with two flows sharing a macroflow, does the unweighted
  round-robin scheduler split the window evenly, and does the weighted
  scheduler skew it according to the configured weights?
* **Controller** — how does the default byte-counting AIMD window controller
  compare to the simple rate-based AIMD alternative on a lossy path?
* **Macroflow sharing** — how much does a second connection gain from
  joining an existing macroflow versus being split into its own (the
  mechanism behind Figure 7, isolated from the web-server machinery)?
"""

from __future__ import annotations

from typing import Sequence

from ..analysis import jain_fairness
from ..scenario import AppSpec, StopSpec, build, run_built
from ..transport.tcp import CMTCPSender, TCPListener
from .base import ExperimentResult
from .sweep import Sweep, TrialOutcome
from .topology import dummynet_pair_spec, wan_pair_spec

__all__ = [
    "SWEEP",
    "run_scheduler_ablation",
    "run_controller_ablation",
    "run_sharing_ablation",
    "run",
    "trials",
    "run_trial",
    "reduce",
]

#: The three independent ablation studies, in presentation order.
PARTS = ("scheduler", "controller", "sharing")


def _transfer(label: str, port: int, transfer_bytes: int, receive_window: int) -> list:
    """A listener on the receiver and one TCP/CM transfer to it."""
    return [
        AppSpec(app="tcp_listener", host="receiver", params={"port": port}),
        AppSpec(app="tcp_sender", host="sender", peer="receiver", label=label, params={
            "port": port, "transfer_bytes": transfer_bytes, "receive_window": receive_window,
        }),
    ]


def run_scheduler_ablation(transfer_bytes: int = 8_000_000, weight: int = 3) -> ExperimentResult:
    """Two concurrent TCP/CM flows to one receiver under each scheduler."""
    result = ExperimentResult(
        name="ablation_scheduler",
        title="Bandwidth split between two flows of one macroflow",
        columns=["scheduler", "flow1_kB", "flow2_kB", "flow1_share", "jain_fairness"],
    )
    for label, scheduler in (("round-robin", "round_robin"), (f"weighted {weight}:1", "weighted")):
        first = _transfer("flow1", 5001, transfer_bytes, 256 * 1024)
        second = _transfer("flow2", 5002, transfer_bytes, 256 * 1024)
        # Run for a fixed horizon and compare progress, so the faster flow
        # cannot simply finish and hand the link to the slower one.
        spec = dummynet_pair_spec(
            loss_rate=0.0, cm=True, cm_scheduler=scheduler,
            apps=[first[0], second[0], first[1], second[1]], stop=StopSpec(until=6.0),
        )
        scenario = build(spec, seed=5)
        if scheduler == "weighted":
            flow_a, flow_b = (app.sender.flow_id for app in scenario.apps[2:])
            macroflow = scenario.host("sender").cm.macroflow_of(flow_a)
            macroflow.scheduler.set_weight(flow_a, weight)
            macroflow.scheduler.set_weight(flow_b, 1)
        outcome = run_built(scenario)
        got_a, got_b = (outcome.app(flow)["metrics"]["bytes_acked"] for flow in ("flow1", "flow2"))
        total = max(1, got_a + got_b)
        result.add_row(label, got_a / 1000.0, got_b / 1000.0, got_a / total, jain_fairness([got_a, got_b]))
    result.notes.append(
        "Round robin should split the macroflow roughly evenly (Jain index near 1); the weighted "
        "scheduler should give the heavy flow a share close to weight/(weight+1)."
    )
    return result


def run_controller_ablation(transfer_bytes: int = 1_000_000, loss_rate: float = 0.01) -> ExperimentResult:
    """Default AIMD window controller vs. the rate-based controller on a lossy path."""
    result = ExperimentResult(
        name="ablation_controller",
        title="Congestion controller comparison on a 1% loss path",
        columns=["controller", "throughput_kBps", "retransmissions", "timeouts"],
    )
    for label, controller in (("aimd-window (default)", "aimd_window"), ("aimd-rate", "aimd_rate")):
        spec = dummynet_pair_spec(
            loss_rate=loss_rate, cm=True, cm_controller=controller,
            apps=_transfer("transfer", 5001, transfer_bytes, 32 * 1024), stop=StopSpec(until=300.0),
        )
        sender = run_built(build(spec, seed=9)).app("transfer")["metrics"]
        result.add_row(label, sender["throughput_Bps"] / 1000.0, sender["retransmissions"],
                       sender["timeouts"])
    result.notes.append(
        "The window controller is the paper's TCP-compatible default; the rate controller exists to "
        "exercise the CM's pluggable-controller hook and is expected to be less efficient."
    )
    return result


def run_sharing_ablation(transfer_bytes: int = 96 * 1024) -> ExperimentResult:
    """Second connection joining the macroflow vs. split into a fresh one.

    Wired by hand on the built pair: the second connection opens mid-run,
    and ``cm_split`` acts on it between opening and sending, which no spec
    can say.
    """
    result = ExperimentResult(
        name="ablation_sharing",
        title="Benefit of macroflow sharing for a follow-up connection",
        columns=["configuration", "first_transfer_ms", "second_transfer_ms"],
    )
    for label, split_second in (("shared macroflow", False), ("cm_split (no sharing)", True)):
        scenario = build(wan_pair_spec(cm=True), seed=21)
        sim, sender, receiver = scenario.sim, scenario.host("sender"), scenario.host("receiver")
        listener = TCPListener(receiver, 5001)
        first = CMTCPSender(sender, receiver.addr, 5001, receive_window=256 * 1024)
        first.send(transfer_bytes)
        sim.run(until=60.0)
        first_ms = (first.complete_time - first.connect_time) * 1000.0 if first.done else float("nan")
        first.close()

        listener2 = TCPListener(receiver, 5002)
        second = CMTCPSender(sender, receiver.addr, 5002, receive_window=256 * 1024)
        if split_second:
            sender.cm.cm_split(second.flow_id)
        second.send(transfer_bytes)
        sim.run(until=sim.now + 60.0)
        second_ms = (second.complete_time - second.connect_time) * 1000.0 if second.done else float("nan")
        second.close()
        listener.close()
        listener2.close()
        result.add_row(label, first_ms, second_ms)
    result.notes.append(
        "With sharing, the second connection inherits the first one's congestion window and RTT "
        "estimate and finishes markedly faster; after cm_split it has to slow start from scratch."
    )
    return result


def run_trial(params: dict) -> dict:
    """Run one ablation study and return its result payload (JSON-able)."""
    part = params["part"]
    if part == "scheduler":
        sub = run_scheduler_ablation()
    elif part == "controller":
        sub = run_controller_ablation()
    elif part == "sharing":
        sub = run_sharing_ablation()
    else:
        raise ValueError(f"unknown ablation part {part!r}")
    return sub.payload()


def reduce(outcomes: Sequence[TrialOutcome]) -> ExperimentResult:
    """Merge the three ablation payloads into one summary result."""
    merged = ExperimentResult(
        name="ablations",
        title="Design-choice ablations (scheduler, controller, macroflow sharing)",
        columns=["experiment", "row"],
    )
    for outcome in outcomes:
        sub = outcome.value
        for row in sub["rows"]:
            merged.add_row(sub["name"], " | ".join(str(v) for v in row))
        merged.notes.extend(f"[{sub['name']}] {note}" for note in sub["notes"])
    return merged


SWEEP = Sweep("ablations", axes=[("part", PARTS)], fixed={}, trial=run_trial, reduce=reduce)
