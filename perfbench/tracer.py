"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent span, operation id). Spans are appended
to typed arrays and kept until the run ends; self time and per-pass
aggregates are computed afterwards with numpy. Wrappers are installed on the
module attributes that callers actually look up (for example
``cvqpv.bounds.separation_rhs``, which the optimizer resolves through the
``bounds`` module globals), so the package itself is not edited.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.current_op = -1
        # computed counters: name -> per-op list of (op id, amount)
        self.counters: dict[str, list] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def count(self, name: str, amount: int) -> None:
        self.counters.setdefault(name, []).append((self.current_op, amount))

    def wrap(self, fn, span_name: str, after=None):
        """Return ``fn`` wrapped in a span; ``after(result, args, kwargs)``
        runs once the span has ended (for computed counters)."""
        nid = self.name_id(span_name)
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def arrays(self):
        """Span columns as numpy arrays (durations in ns)."""
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return name, parent, op, end - start


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, patcher: Patcher, cv) -> None:
    """Wrap every layer boundary the benchmark measures.

    ``cv`` is a namespace holding the imported cvqpv modules. A function
    imported into several modules is wrapped at each binding under one span
    name, so the span follows the callee wherever it is looked up.
    """

    def span(owner, attr, name, after=None):
        patcher.replace(owner, attr, lambda fn: tracer.wrap(fn, name, after))

    def on_session(result, args, kwargs):
        # computed: the N challenge displacements r drawn by run_session
        tracer.count("protocol.normals_drawn", int(result.n_rounds))
        tracer.count("protocol.rounds", int(result.n_rounds))
        if not kwargs.get("trace"):
            tracer.count("protocol.rounds.untraced", int(result.n_rounds))

    def on_respond(result, args, kwargs):
        responder, r = args[0], args[1]
        if responder.noise_var != 0.0:
            tracer.count("protocol.normals_drawn", int(np.size(r)))

    def on_csv(result, args, kwargs):
        tracer.count("protocol.write_rounds_csv.bytes", os.path.getsize(args[1]))

    def run_session_wrapper(fn):
        plain = tracer.wrap(fn, "protocol.run_session", on_session)
        traced = tracer.wrap(fn, "protocol.run_session_traced", on_session)

        @functools.wraps(fn)
        def dispatch(*args, **kwargs):
            return (traced if kwargs.get("trace") else plain)(*args, **kwargs)

        return dispatch

    protocol, bounds, attack, resources, channel, cli = (
        cv.protocol, cv.bounds, cv.attack, cv.resources, cv.channel, cv.cli)

    # protocol: the batch loop, seed spawning, sessions, responders, writers
    for owner in (protocol, cli):
        span(owner, "acceptance_rate", "protocol.acceptance_rate")
        patcher.replace(owner, "run_session", run_session_wrapper)
    span(protocol, "session_seeds", "protocol.session_seeds")
    span(protocol.GaussianResponder, "respond", "protocol.respond", on_respond)
    span(cli, "write_rounds_csv", "protocol.write_rounds_csv", on_csv)
    span(cli, "write_session_json", "protocol.write_session_json")

    # bounds and the gaussian helpers the optimizer calls
    for owner in (bounds, cli):
        span(owner, "max_eps_tilde", "bounds.max_eps_tilde")
    span(bounds, "separation_rhs", "bounds.separation_rhs")
    span(cli, "condition_surface", "bounds.condition_surface")
    span(bounds, "h_tilde", "gaussian.h_tilde")
    span(resources, "cutoff_purified_distance", "gaussian.cutoff_purified_distance")

    # attack: the round-count search and its margin evaluations
    for owner in (attack, cli):
        span(owner, "rounds_required", "attack.rounds_required")
    span(attack, "delta_margin", "attack.delta_margin")

    # resources: report, q_max scan, counting bound
    for owner in (resources, cli):
        span(owner, "resource_report", "resources.resource_report")
    span(resources, "q_max", "resources.q_max")
    span(resources, "count_bound_log2", "resources.count_bound_log2")

    # channel predicates (methods, so every caller sees them)
    span(channel.ChannelParams, "feasible", "channel.feasible")
    span(channel.ChannelParams, "regime_flags", "channel.regime_flags")

    # cli: the entry point, config resolution and one span per subcommand handler
    span(cli, "main", "cli.main")
    span(cli, "resolve_config", "cli.resolve_config")
    for sub in ("feasibility", "bounds", "resources", "rounds", "simulate", "sweep"):
        span(cli, f"cmd_{sub}", f"cli.{sub}")
