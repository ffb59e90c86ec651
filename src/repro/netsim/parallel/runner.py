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
"""

from __future__ import annotations

import json
import multiprocessing
import os
import traceback
from typing import Dict, List, Optional, Tuple

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

    A coordinator that fails or is cancelled just closes the pipe; the
    worker then leaves quietly, its trace part closed by ``started``.
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
    except EOFError:
        pass  # the coordinator hung up mid-run: nobody left to report to
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


# ------------------------------------------------------------- coordinator
class _WorkerPool:
    """The coordinator's handle on its shard worker processes."""

    def __init__(self, spec, run_seed: int, part, trace_path):
        self.count = part.shards
        self.trace_paths = [
            f"{trace_path}.shard{k}" if trace_path else None
            for k in range(self.count)
        ]
        context = multiprocessing.get_context()
        spec_payload = spec.to_dict()
        self.pipes = []
        self.processes = []
        try:
            for k in range(self.count):
                parent_end, child_end = context.Pipe()
                self.pipes.append(parent_end)
                process = context.Process(
                    target=_worker_main,
                    args=(child_end, spec_payload, run_seed, part.members(k),
                          self.trace_paths[k]),
                    daemon=True,
                )
                try:
                    process.start()
                finally:
                    child_end.close()
                self.processes.append(process)
        except BaseException:
            # A partial start must not strand the shards already running on
            # open pipes: nobody else holds this pool yet.
            self.shutdown()
            raise

    def recv(self, shard_index: int):
        from ...scenario.spec import SpecError

        try:
            reply = self.pipes[shard_index].recv()
        except EOFError:
            raise RuntimeError(
                f"shard worker {shard_index} exited without replying")
        if reply[0] == "spec_error":
            raise SpecError(reply[1], reply[2].split(": ", 1)[-1])
        if reply[0] == "error":
            raise RuntimeError(
                f"shard worker {shard_index} failed:\n{reply[1]}")
        return reply

    def send_all(self, message) -> None:
        for pipe in self.pipes:
            pipe.send(message)

    def recv_all(self) -> List:
        return [self.recv(k) for k in range(self.count)]

    def shutdown(self) -> None:
        for pipe in self.pipes:
            try:
                pipe.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
        for process in self.processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - teardown best effort
                process.terminate()
                process.join(timeout=5.0)


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

    pool = _WorkerPool(spec, run_seed, part, trace_path)
    try:
        pending: List[List[Tuple]] = [[] for _ in range(pool.count)]
        states: List[List[Optional[bool]]] = [[] for _ in range(pool.count)]
        idle = [False] * pool.count
        for k, (_tag, done, worker_idle) in enumerate(pool.recv_all()):   # "ready"
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
                for k, pipe in enumerate(pool.pipes):
                    # (deliver_ts, link_index, emit_seq) is a unique total
                    # order; never compare the wire payload itself.
                    inbox = sorted(pending[k], key=lambda item: item[:3])
                    pending[k] = []
                    pipe.send(("advance", edge, want_states, inbox))
                for k, (_tag, outbox, worker_idle, done) in enumerate(pool.recv_all()):
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
        pool.send_all(("finish", now))
        result = assemble_result(
            spec, run_seed, now, [sections for _tag, sections in pool.recv_all()])
        if progress_cb is not None:
            progress_cb(now, horizon)
    except BaseException:
        # Joining first lets every worker close its trace part.
        pool.shutdown()
        for path in pool.trace_paths:
            if path is not None and os.path.exists(path):
                os.remove(path)
        raise
    pool.shutdown()
    if trace_path:
        _merge_traces(trace_path, pool.trace_paths)
    return result
