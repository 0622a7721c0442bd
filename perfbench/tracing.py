"""Outside-in per-layer tracing for the traced run.

The tracer wraps the *public* entry points of each runtime layer from the
benchmark's own files (class attributes are swapped for timing wrappers
and restored afterwards) — nothing inside ``src/`` records spans for the
benchmark. Each span carries its name, start, end, parent span and the
call id when the arguments hold one (else the parent's). Spans stay in
memory and are written out when the run ends.

Counts are taken at the same boundaries, and :meth:`Tracer.cross_check`
compares them with the program's own public counters; a mismatch fails
the traced run.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import threading
import time

from .stats import percentile, self_time

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "call_id", "children")

    def __init__(self, name, start, parent, call_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.call_id = call_id
        self.children = None


def _call_id(obj):
    """A call id from a CallRecord, ExecuteCall or bare int, else None."""
    if isinstance(obj, int):
        return obj
    return getattr(obj, "call_id", None)


class Tracer:
    """Installs timing wrappers on the layers' public entry points."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        #: Counts taken at the wrappers, name -> number.
        self.counts: dict[str, float] = {}
        #: Samples taken at the wrappers (seconds), name -> list.
        self.samples: dict[str, list[float]] = {}
        #: id(message) -> send time, for bus queue wait.
        self._sent_at: dict[int, float] = {}
        #: call id -> time its host accepted it, for pool wait.
        self._accepted_at: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap_callable(self, name, fn, call_id_arg=None, enter=None, leave=None):
        """A wrapper timing ``fn`` as span ``name``. ``call_id_arg`` is the
        index of the positional argument holding the call id; ``enter``
        (args) returns a token and ``leave`` (span, args, result, token)
        records counts once the call returns."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            cid = None
            if call_id_arg is not None and len(args) > call_id_arg:
                cid = _call_id(args[call_id_arg])
            if cid is None and parent is not None:
                cid = parent.call_id
            token = enter(args) if enter is not None else None
            span = Span(name, _clock(), parent, cid)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
                tracer.spans.append(span)
            if leave is not None:
                leave(span, args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, **hooks) -> None:
        """Swap ``owner.attr`` (a function, method, classmethod or module
        attribute) for a timing wrapper; :meth:`uninstall` restores it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap_callable(name, original.__func__, **hooks))
        else:
            replacement = self._wrap_callable(name, original, **hooks)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # The layers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public entry points (listed in NOTES.md)."""
        import repro.host.interface as host_interface
        import repro.runtime.registry as registry_module
        from repro.faaslet import Faaslet, FunctionDefinition, ProtoFaaslet
        from repro.faaslet.pagestore import HostSnapshotCache, SnapshotRepository
        from repro.runtime.bus import ExecuteBatch, MessageBus
        from repro.runtime.calls import InvocationRegistry
        from repro.runtime.cluster import FaasmCluster
        from repro.runtime.ingest import AdmissionController, IngestionPlane
        from repro.runtime.instance import FaasmRuntimeInstance
        from repro.runtime.registry import FunctionRegistry
        from repro.runtime.scheduler import LocalScheduler
        from repro.state.kv import StateClient
        from repro.state.local import LocalTier

        # runtime.ingest ------------------------------------------------
        def submitted(span, args, result, token):
            self.count("ingest.submitted", 1)
            if result[1] != "admitted":
                self.count("ingest.refused", 1)

        def submitted_many(span, args, result, token):
            self.count("ingest.submitted", len(result))
            self.count("ingest.refused", sum(1 for _, o in result if o != "admitted"))

        def batch_served(span, args, result, token):
            if result[1]:
                self.sample("ingest.batch", len(result[1]))

        def batch_dispatched(args):
            now = time.monotonic()
            for record in args[2]:
                self.sample("ingest.queue_wait", now - record.submitted_at)

        self.patch(IngestionPlane, "submit", "ingest.submit", leave=submitted)
        self.patch(IngestionPlane, "submit_many", "ingest.submit_many", leave=submitted_many)
        self.patch(AdmissionController, "next_batch", "ingest.next_batch", leave=batch_served)
        self.patch(FaasmCluster, "dispatch_batch", "ingest.dispatch_batch", enter=batch_dispatched)

        # runtime.scheduler ---------------------------------------------
        def decided(span, args, result, token):
            decisions = result if isinstance(result, list) else [result]
            self.count("sched.decisions", len(decisions))
            self.count("sched.cold", sum(1 for d in decisions if d.is_cold))
            self.count(
                "sched.warm",
                sum(1 for d in decisions if d.reason in ("warm-local", "shared")),
            )

        self.patch(LocalScheduler, "schedule", "sched.schedule", leave=decided)
        self.patch(LocalScheduler, "schedule_batch", "sched.schedule_batch", leave=decided)

        # runtime.bus ---------------------------------------------------
        def sent_one(span, args, result, token):
            self._note_sent([args[2]], span.end)

        def sent_many(span, args, result, token):
            self._note_sent(list(args[2]), span.end)

        def received(span, args, result, token):
            if result is None:
                return
            sent = self._sent_at.pop(id(result), None)
            if sent is not None:
                self.sample("bus.queue_wait", span.end - sent)
            if isinstance(result, ExecuteBatch):
                for call_id, _ in result.items:
                    self._accepted_at[call_id] = span.end
            elif hasattr(result, "call_id"):
                self._accepted_at[result.call_id] = span.end

        self.patch(MessageBus, "send", "bus.send", leave=sent_one)
        self.patch(MessageBus, "send_many", "bus.send_many", leave=sent_many)
        self.patch(MessageBus, "receive", "bus.receive", leave=received)

        # runtime.calls -------------------------------------------------
        for method in ("create", "create_many", "new_attempts"):
            self.patch(InvocationRegistry, method, "calls." + method)
        for method in ("begin_attempt", "complete_attempt"):
            self.patch(InvocationRegistry, method, "calls." + method, call_id_arg=1)

        # runtime.instance ----------------------------------------------
        def exec_enter(args):
            accepted = self._accepted_at.pop(args[1].call_id, None)
            if accepted is not None:
                self.sample("instance.pool_wait", _clock() - accepted)

        self.patch(FaasmRuntimeInstance, "execute", "instance.execute",
                   call_id_arg=1, enter=exec_enter)
        for method in ("add_host", "retire_host"):
            self.patch(FaasmCluster, method, "instance." + method)
        self.patch(FaasmRuntimeInstance, "reclaim_idle", "instance.reclaim_idle")

        # faaslet / snapshots -------------------------------------------
        def restored(span, args, result, token):
            self.count("faaslet.restores", 1)

        def pulled(span, args, result, token):
            self.count("snapshot.bytes_shipped", len(result[1]))

        self.patch(ProtoFaaslet, "restore", "faaslet.restore", leave=restored)
        self.patch(HostSnapshotCache, "get_proto", "snapshot.get_proto")
        self.patch(SnapshotRepository, "pull_missing", "snapshot.pull_missing", leave=pulled)

        # wasm: Faaslet.call minus nested host time ----------------------
        def call_enter(args):
            return args[0].instance.instructions_executed

        def call_leave(span, args, result, token):
            self.count("wasm.instructions", args[0].instance.instructions_executed - token)
            self.count("wasm.calls", 1)

        self.patch(Faaslet, "call", "wasm.call", enter=call_enter, leave=call_leave)

        # host interface: wrap every callable build_host_imports returns --
        tracer = self
        original_build = host_interface.build_host_imports

        def build_host_imports(faaslet):
            imports = original_build(faaslet)
            return {
                key: dataclasses.replace(
                    hf, fn=tracer._wrap_callable("host." + hf.name, hf.fn)
                )
                for key, hf in imports.items()
            }

        self._patches.append((host_interface, "build_host_imports", original_build))
        host_interface.build_host_imports = build_host_imports

        # state ---------------------------------------------------------
        for method in ("pull", "pull_chunk", "push", "push_chunk"):
            self.patch(LocalTier, method, "state." + method)

        def pulled_bytes(kind):
            def leave(span, args, result, token):
                if kind == "bytes":
                    n = len(result)
                elif kind == "list":
                    n = sum(len(b) for b in result)
                elif kind == "int":
                    n = result
                else:
                    n = result[0]
                self.count("state.pull_bytes", n)
                self.count("state.round_trips", 1)
            return leave

        def pushed_bytes(kind):
            def leave(span, args, result, token):
                if kind == "value":
                    n = len(args[2])
                elif kind == "range":
                    n = len(args[3])
                else:
                    n = sum(len(d) for _, d in args[2])
                self.count("state.push_bytes", n)
                self.count("state.round_trips", 1)
            return leave

        for method, kind in (
            ("pull", "bytes"),
            ("pull_range", "bytes"),
            ("pull_ranges", "list"),
            ("pull_ranges_into", "int"),
            ("pull_ranges_into_versioned", "tuple"),
        ):
            self.patch(StateClient, method, "client." + method, leave=pulled_bytes(kind))
        for method, kind in (
            ("push", "value"),
            ("append", "value"),
            ("push_range", "range"),
            ("push_ranges", "parts"),
            ("push_ranges_versioned", "parts"),
        ):
            self.patch(StateClient, method, "client." + method, leave=pushed_bytes(kind))

        # setup ---------------------------------------------------------
        self.patch(registry_module, "compile_source", "setup.compile")
        self.patch(FunctionDefinition, "build", "setup.build")
        self.patch(FunctionRegistry, "generate_proto", "setup.capture")

    def _note_sent(self, messages, at: float) -> None:
        from repro.runtime.bus import ExecuteBatch

        self.count("bus.messages", len(messages))
        self.count("bus.batches", sum(1 for m in messages if isinstance(m, ExecuteBatch)))
        for message in messages:
            self._sent_at[id(message)] = at

    # ------------------------------------------------------------------
    # Per-layer metrics
    # ------------------------------------------------------------------
    def _by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(span)
            if span.parent is not None:
                if span.parent.children is None:
                    span.parent.children = []
                span.parent.children.append(span)
        return out

    def layer_metrics(self, cluster) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, name -> (value, unit)."""
        spans = self._by_name()

        def busy(*names) -> float:
            return sum(s.end - s.start for n in names for s in spans.get(n, ()))

        def selfs(*names) -> float:
            return sum(
                self_time(s.start, s.end, [(c.start, c.end) for c in s.children or ()])
                for n in names for s in spans.get(n, ())
            )

        def pct_ms(values, q) -> float:
            return percentile(values, q) * 1e3 if values else 0.0

        def durations(name) -> list[float]:
            return [s.end - s.start for s in spans.get(name, ())]

        c = self.counts.get
        s = self.samples.get
        m = {}
        # runtime.ingest
        m["ingest.submitted"] = (c("ingest.submitted", 0), "count")
        m["ingest.refused"] = (c("ingest.refused", 0), "count")
        m["ingest.submit_busy_s"] = (busy("ingest.submit", "ingest.submit_many"), "s")
        waits = s("ingest.queue_wait", [])
        m["ingest.queue_wait_ms_p50"] = (pct_ms(waits, 50), "ms")
        m["ingest.queue_wait_ms_p99"] = (pct_ms(waits, 99), "ms")
        batches = s("ingest.batch", [])
        m["ingest.batch_mean"] = (sum(batches) / len(batches) if batches else 0.0, "calls")
        # runtime.scheduler
        decisions = c("sched.decisions", 0)
        m["sched.decisions"] = (decisions, "count")
        m["sched.busy_s"] = (busy("sched.schedule", "sched.schedule_batch"), "s")
        m["sched.warm_share"] = (c("sched.warm", 0) / decisions if decisions else 0.0, "ratio")
        m["sched.cold_share"] = (c("sched.cold", 0) / decisions if decisions else 0.0, "ratio")
        info = cluster.warm_sets.cache_info()
        lookups = info["hits"] + info["misses"]
        m["sched.warmset_cache_hit"] = (info["hits"] / lookups if lookups else 0.0, "ratio")
        # runtime.bus
        m["bus.messages"] = (c("bus.messages", 0), "count")
        m["bus.batches"] = (c("bus.batches", 0), "count")
        m["bus.send_busy_s"] = (busy("bus.send", "bus.send_many"), "s")
        m["bus.queue_wait_ms_p99"] = (pct_ms(s("bus.queue_wait", []), 99), "ms")
        # runtime.calls
        records = cluster.calls.all_records()
        m["calls.busy_s"] = (
            busy("calls.create", "calls.create_many", "calls.new_attempts",
                 "calls.begin_attempt", "calls.complete_attempt"),
            "s",
        )
        m["calls.retries"] = (sum(r.retries for r in records), "count")
        m["calls.failed"] = (
            sum(1 for r in records if r.done.is_set() and r.return_code != 0), "count"
        )
        # runtime.instance
        warm = sum(i.metrics.warm_hits for i in cluster.instances)
        cold = sum(i.metrics.cold_starts for i in cluster.instances)
        m["instance.exec_busy_s"] = (busy("instance.execute"), "s")
        m["instance.pool_wait_ms_p99"] = (pct_ms(s("instance.pool_wait", []), 99), "ms")
        m["instance.warm_hit_ratio"] = (warm / (warm + cold) if warm + cold else 0.0, "ratio")
        m["instance.cold_starts"] = (cold, "count")
        # faaslet / snapshots
        restores = durations("faaslet.restore")
        m["faaslet.restores"] = (c("faaslet.restores", 0), "count")
        m["faaslet.restore_ms_p50"] = (pct_ms(restores, 50), "ms")
        m["faaslet.restore_ms_p99"] = (pct_ms(restores, 99), "ms")
        pulls = [
            sp.end - sp.start for sp in spans.get("snapshot.get_proto", ())
            if any(ch.name == "snapshot.pull_missing" for ch in sp.children or ())
        ]
        m["snapshot.pull_ms_p99"] = (pct_ms(pulls, 99), "ms")
        m["snapshot.bytes_shipped"] = (c("snapshot.bytes_shipped", 0), "bytes")
        hosts = cluster.snapshot_stats()["hosts"].values()
        dedup = sum(h["pull_dedup_hits"] for h in hosts)
        shipped = sum(h["pages_shipped"] for h in hosts)
        m["snapshot.dedup_ratio"] = (dedup / (dedup + shipped) if dedup + shipped else 0.0, "ratio")
        faaslets = sum(
            i.warm_count(fn) for i in cluster.instances for fn in i.warm_functions()
        )
        private = sum(
            i.memory_footprint() - i.local_tier.memory_bytes() for i in cluster.instances
        )
        m["faaslet.footprint_kb"] = (private / faaslets / 1024 if faaslets else 0.0, "KiB")
        # wasm
        instructions = c("wasm.instructions", 0)
        wasm_self = selfs("wasm.call")
        m["wasm.instructions"] = (instructions, "count")
        m["wasm.self_s"] = (wasm_self, "s")
        m["wasm.minstr_per_s"] = (instructions / wasm_self / 1e6 if wasm_self else 0.0, "Minstr/s")
        # host interface
        host_names = [n for n in spans if n.startswith("host.")]
        host_calls = sum(len(spans[n]) for n in host_names)
        invocations = c("wasm.calls", 0)
        m["host.calls"] = (host_calls, "count")
        m["host.calls_per_invocation"] = (host_calls / invocations if invocations else 0.0, "calls")
        m["host.self_s"] = (selfs(*host_names), "s")
        # state
        chunks = spans.get("state.pull_chunk", [])
        local = sum(
            1 for sp in chunks
            if not any(ch.name.startswith("client.") for ch in sp.children or ())
        )
        m["state.pull_bytes"] = (c("state.pull_bytes", 0), "bytes")
        m["state.push_bytes"] = (c("state.push_bytes", 0), "bytes")
        m["state.round_trips"] = (c("state.round_trips", 0), "count")
        m["state.pull_busy_s"] = (busy("state.pull", "state.pull_chunk"), "s")
        m["state.push_busy_s"] = (busy("state.push", "state.push_chunk"), "s")
        m["state.chunk_local_ratio"] = (local / len(chunks) if chunks else 0.0, "ratio")
        # setup
        m["setup.compile_s"] = (busy("setup.compile"), "s")
        m["setup.build_s"] = (busy("setup.build"), "s")
        m["setup.capture_s"] = (busy("setup.capture"), "s")
        return m

    def cross_check(self, cluster) -> list[str]:
        """Wrapper counts against the program's own public counters;
        returns one line per mismatch (empty when everything agrees)."""
        problems = []

        def expect(what, traced, program):
            if traced != program:
                problems.append(f"{what}: traced {traced} != program {program}")

        metrics = cluster.telemetry.metrics
        expect(
            "faaslet restores vs snapshot.restores",
            self.counts.get("faaslet.restores", 0),
            int(metrics.aggregate("snapshot.restores")),
        )
        meters = [i.state_client.meter for i in cluster.instances]
        expect(
            "state pull bytes vs TransferMeter",
            self.counts.get("state.pull_bytes", 0),
            sum(mt.received_bytes for mt in meters),
        )
        expect(
            "state push bytes vs TransferMeter",
            self.counts.get("state.push_bytes", 0),
            sum(mt.sent_bytes for mt in meters),
        )
        expect(
            "state round trips vs TransferMeter",
            self.counts.get("state.round_trips", 0),
            sum(mt.round_trips for mt in meters),
        )
        hosts = cluster.snapshot_stats()["hosts"].values()
        expect(
            "snapshot bytes vs snapshot_stats",
            self.counts.get("snapshot.bytes_shipped", 0),
            sum(h["bytes_shipped"] for h in hosts),
        )
        stats = cluster.ingestion_stats()
        served = sum(t["served"] for t in stats.get("tenants", {}).values())
        refused = int(metrics.aggregate("ingest.deferred") + metrics.aggregate("ingest.shed"))
        expect(
            "ingest submitted vs served + refused",
            self.counts.get("ingest.submitted", 0),
            served + refused,
        )
        return problems

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Spans as gzip JSON lines: [name, start, end, parent, call_id],
        parent being the line index of the parent span (or -1)."""
        index = {id(s): k for k, s in enumerate(self.spans)}
        with gzip.open(path, "wt") as f:
            for span in self.spans:
                parent = index.get(id(span.parent), -1) if span.parent else -1
                f.write(json.dumps(
                    [span.name, round(span.start, 7), round(span.end, 7), parent, span.call_id]
                ))
                f.write("\n")
