"""Conservative-lookahead coordinator and worker processes.

One worker process per shard, each running an ordinary
:class:`~repro.netsim.engine.Simulator` over its slice of the graph — the
scenario :func:`~repro.scenario.builder.build` compiles under that shard's
:class:`~.shard.Placement`.  The coordinator advances everyone in lockstep
windows of length ``L`` — the minimum cut-link one-way delay
(:mod:`.partition`):

* every event executed in the window ``(s, e]`` has time ``> s``, so a
  packet finishing serialization at ``t`` arrives remotely at
  ``t + delay > s + L >= e`` — strictly after the barrier;
* therefore messages collected at barrier ``e`` can be injected into their
  destination shards before the next window with no risk of a causality
  violation (the classic CMB argument, with the barrier playing the role
  of the null message).

Determinism: inbound messages are injected in sorted
``(deliver_ts, global_link_index, emit_seq)`` order, so the destination
simulator sees one canonical schedule no matter how pipe traffic
interleaved.  The run lifecycle is ``scenario.runner``'s own: each worker
is ``started`` … ``finish`` around its slice, and the coordinator calls the
same ``drive`` loop as ``run_built`` with barrier windows as its ``advance``
— one stop predicate on one ``check_interval`` grid — then hands the
workers' collected slices to the same ``assemble_result``.  Every window
ends on a common barrier, so every shard's clock agrees at the end.

Each shard worker is a :class:`~.workers.Worker`: its death is one
``WorkerDied`` at the next send or recv, after which (as after any failure)
the coordinator reaps every worker and removes the trace parts; the
coordinator's death is an end-of-file to the workers, which exit.
"""

from __future__ import annotations

import json
import os
import traceback
from typing import Dict, List, Optional, Tuple

from .workers import PEER_GONE, Worker

__all__ = ["run_sharded"]


# ------------------------------------------------------------------ worker
def _worker_main(conn, spec_payload, run_seed, local, trace_path) -> None:
    """Worker process entry point: build the slice, then serve commands.

    Protocol (coordinator → worker / worker → coordinator):

    * build → ``("ready", done_states, idle)``
    * ``("advance", until, want_states, inbox)`` →
      ``("ok", outbox, idle, done_states_or_None)``
    * ``("finish", final_time)`` → ``("result", sections)`` then exit
    * any exception → ``("spec_error", path, str)`` / ``("error", traceback)``

    A coordinator that dies leaves an end-of-file (or a broken pipe at the
    next reply); the worker then removes its trace part and leaves quietly.
    """
    from ...scenario.builder import build
    from ...scenario.runner import finish, started
    from ...scenario.spec import ScenarioSpec, SpecError
    from .boundary import BoundaryLink
    from .shard import Placement
    from .wire import decode_packet

    try:
        spec = ScenarioSpec.from_dict(spec_payload)
        placement = Placement(frozenset(local))
        scenario = build(spec, seed=run_seed, trace_path=trace_path, placement=placement)
        sim = scenario.sim
        outbox = placement.outbox
        # Inbound dispatch, by global directed link index: the destination
        # node's sequencer, so injected packets join the same per-timestamp
        # ordering as local deliveries.
        ingress = scenario.graph_net.ingress
        sequencer_of = [ingress.get(name) for link in spec.graph.links
                        for name in (link.b, link.a)]

        def done_states() -> List[Optional[bool]]:
            return [app.done() for app in scenario.apps]

        with started(scenario):
            conn.send(("ready", done_states(), sim.idle_except_control()))
            while True:
                message = conn.recv()
                command = message[0]
                if command == "advance":
                    _, until, want_states, inbox = message
                    for deliver_ts, link_index, seq, wire in inbox:
                        # With the sender's per-link emission seq — exactly
                        # the (link, seq) key the local arrival would have
                        # carried.
                        sequencer_of[link_index].inject(
                            deliver_ts, link_index, seq, decode_packet(wire))
                    sim.run(until=until)
                    emitted = outbox[:]
                    outbox.clear()
                    conn.send(("ok", emitted, sim.idle_except_control(),
                               done_states() if want_states else None))
                elif command == "finish":
                    _, final_time = message
                    for link in scenario.graph_net.links.values():
                        if isinstance(link, BoundaryLink):
                            link.finalize(final_time)
                    conn.send(("result", finish(scenario, final_time)))
                    return
                else:  # pragma: no cover - protocol misuse
                    raise RuntimeError(f"unknown command {command!r}")
    except SpecError as exc:
        conn.send(("spec_error", exc.path, str(exc)))
    except PEER_GONE:
        # The coordinator died mid-run: nobody is left to report to, or to
        # merge this shard's trace part.
        if trace_path is not None and os.path.exists(trace_path):
            os.remove(trace_path)
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


# ------------------------------------------------------------- coordinator
def _replies(workers: List[Worker]) -> List:
    """One reply from every worker, in shard order; a failure is raised."""
    from ...scenario.spec import SpecError

    replies = []
    for worker in workers:
        reply = worker.recv()
        if reply[0] == "spec_error":
            raise SpecError(reply[1], reply[2].split(": ", 1)[-1])
        if reply[0] == "error":
            raise RuntimeError(f"{worker.name} failed:\n{reply[1]}")
        replies.append(reply)
    return replies


def _dest_shard_of_links(spec, part) -> Dict[int, int]:
    """Global directed link index → shard owning the *destination* node."""
    table: Dict[int, int] = {}
    for index, link in enumerate(spec.graph.links):
        table[2 * index] = part.shard_of[link.b]
        table[2 * index + 1] = part.shard_of[link.a]
    return table


def _merge_traces(trace_path: str, shard_paths: List[Optional[str]]) -> None:
    """Merge per-shard JSONL traces into one file, ordered by time.

    Best-effort by design: within one timestamp, lines order by shard index
    (single-process runs interleave same-time events across the whole graph
    instead), and cut-link ``packet.deliver`` events are absent — the
    delivery end of a boundary link lives on no shard.  Result *metrics*
    are exempt from both caveats; see docs/parallel_engine.md.
    """
    lines: List[Tuple[float, int, int, str]] = []
    for shard_index, path in enumerate(shard_paths):
        if path is None or not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as handle:
            for line_index, line in enumerate(handle):
                when = json.loads(line).get("t", 0.0)
                lines.append((when, shard_index, line_index, line))
        os.remove(path)
    lines.sort(key=lambda item: (item[0], item[1], item[2]))
    with open(trace_path, "w", encoding="utf-8") as handle:
        for _when, _shard, _index, line in lines:
            handle.write(line)


def run_sharded(spec, seed: Optional[int] = None, *,
                shards: Optional[int] = None,
                trace_path: Optional[str] = None,
                progress_cb=None):
    """Run ``spec`` across shard worker processes; single-process fallback.

    Returns the same :class:`~repro.scenario.runner.ScenarioResult` (byte
    for byte) as ``run(spec, seed)``.  Falls back to the single-process
    runner when the request or the partition collapses to one shard.
    """
    from ...scenario.runner import assemble_result, drive, run_streaming
    from ...scenario.spec import SpecError
    from .partition import partition_graph

    spec.validate()
    requested = shards if shards is not None else (
        spec.engine.shards if spec.engine is not None else 1)
    if requested <= 1 or spec.graph is None:
        if requested > 1 and spec.graph is None:
            raise SpecError(
                "engine.shards",
                "sharded execution needs a graph topology "
                "(hosts/links and dumbbell scenarios run single-process)")
        # shards=1 keeps run_streaming from bouncing back here.
        return run_streaming(spec, seed, trace_path=trace_path,
                             progress_cb=progress_cb, shards=1)
    part = partition_graph(spec, requested)
    if part.shards <= 1:
        return run_streaming(spec, seed, trace_path=trace_path,
                             progress_cb=progress_cb, shards=1)
    if spec.telemetry is not None:
        raise SpecError(
            "engine.shards",
            "in-result telemetry blocks are not supported on sharded runs "
            "(per-shard --trace files are; see docs/parallel_engine.md)")

    run_seed = spec.seed if seed is None else int(seed)
    dest_shard = _dest_shard_of_links(spec, part)
    stop = spec.stop
    horizon = stop.until
    lookahead = part.lookahead
    if lookahead is None or not lookahead > 0.0:
        raise RuntimeError(
            f"partition into {part.shards} shards has no positive lookahead "
            f"({lookahead!r}); the barrier windows could not advance")

    trace_paths = [f"{trace_path}.shard{k}" if trace_path else None
                   for k in range(part.shards)]
    workers: List[Worker] = []
    try:
        spec_payload = spec.to_dict()
        for k in range(part.shards):  # a partial start is reaped below
            workers.append(Worker(f"shard worker {k}", _worker_main,
                                  (spec_payload, run_seed, part.members(k), trace_paths[k])))
        pending: List[List[Tuple]] = [[] for _ in workers]
        states: List[List[Optional[bool]]] = [[] for _ in workers]
        idle = [False] * len(workers)
        for k, (_tag, done, worker_idle) in enumerate(_replies(workers)):   # "ready"
            states[k] = done
            idle[k] = worker_idle
        if progress_cb is not None:
            progress_cb(0.0, horizon)
        now = 0.0

        def advance(target: float) -> float:
            """Bring every shard to ``target`` in windows of at most ``lookahead``."""
            nonlocal now
            while now < target:
                edge = min(target, now + lookahead)
                want_states = stop.when_apps_done and edge == target
                for k, worker in enumerate(workers):
                    # (deliver_ts, link_index, emit_seq) is a unique total
                    # order; never compare the wire payload itself.
                    inbox = sorted(pending[k], key=lambda item: item[:3])
                    pending[k] = []
                    worker.send(("advance", edge, want_states, inbox))
                for k, (_tag, outbox, worker_idle, done) in enumerate(_replies(workers)):
                    for item in outbox:
                        pending[dest_shard[item[1]]].append(item)
                    idle[k] = worker_idle
                    if done is not None:
                        states[k] = done
                now = edge
                if progress_cb is not None:
                    progress_cb(now, horizon)
            return now

        drive(stop, 0.0, advance,
              lambda: [state for shard_states in states for state in shard_states],
              lambda: all(idle) and not any(pending))
        for worker in workers:
            worker.send(("finish", now))
        result = assemble_result(
            spec, run_seed, now, [sections for _tag, sections in _replies(workers)])
        if progress_cb is not None:
            progress_cb(now, horizon)
    except BaseException:
        for worker in workers:
            worker.reap()
        for path in trace_paths:
            if path is not None and os.path.exists(path):
                os.remove(path)
        raise
    for worker in workers:  # each exits on its own after its "result"
        worker.join()
    if trace_path:
        _merge_traces(trace_path, trace_paths)
    return result
