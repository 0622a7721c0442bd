"""The three seeded workloads: serve, train and burst.

Each workload drives the real runtime (``repro.runtime.FaasmCluster``
running minilang guests compiled to ``repro.wasm``) in host wall-clock
time, checks every reply, and returns its figures. A workload sees only
the inputs generated from ``--seed``.

A workload object has three entry points:

* ``setup()`` builds a fresh cluster, uploads the guests, seeds state and
  warms up; the runner times it (several times per run).
* ``run(ctx, seconds)`` measures for about ``seconds`` and returns a
  :class:`Result`.
* ``probe(ctx)`` runs a fixed slice of the workload and returns its wall
  time — the traced run compares the median of ``PROBES`` of them with
  and without tracing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.runtime import FaasmCluster
from repro.runtime.calls import CallStatus
from repro.sim.workload import poisson_trace
from repro.wasm.codecache import GLOBAL_CODE_CACHE

from . import guests as g
from .stats import lateness, median, percentile

#: Every workload starts from two base hosts (a 2-core machine).
BASE_HOSTS = 2
#: How long to wait for the replies of one phase before writing the
#: stragglers off as timed out.
REPLY_TIMEOUT_S = 30.0


@dataclass
class Result:
    """What one measured run produced."""

    #: Operations attempted and failed (refused, timed out, erroring or
    #: wrong output) — the run's ``attempted``/``failed``.
    attempted: int = 0
    failed: int = 0
    #: Per-call latencies in seconds, in the order the calls were due
    #: (the samples behind call_p50/p99).
    latencies: list[float] = field(default_factory=list)
    #: Work completed per second in the workload's own unit.
    throughput: float = 0.0
    footprint_bytes: int = 0
    #: Workload-specific figures for the report, name -> (value, unit).
    extra: dict = field(default_factory=dict)
    #: Why operations failed, cause -> count.
    failures: dict = field(default_factory=dict)

    def fail(self, cause: str, n: int = 1) -> None:
        if n:
            self.failed += n
            self.failures[cause] = self.failures.get(cause, 0) + n


def new_cluster(capacity: int) -> FaasmCluster:
    """A fresh cluster with a cold code cache, so every set-up pays for
    compile, validate and codegen exactly as a new deployment does."""
    GLOBAL_CODE_CACHE.clear()
    return FaasmCluster(n_hosts=BASE_HOSTS, capacity=capacity)


def wait_all(cluster, call_ids, timeout: float = REPLY_TIMEOUT_S) -> None:
    """Wait for the given calls; stragglers are left unfinished (the
    caller counts them as timed out)."""
    deadline = time.monotonic() + timeout
    for record in cluster.calls.get_many([c for c in call_ids if c is not None]):
        record.done.wait(max(0.0, deadline - time.monotonic()))


def reply_ok(record) -> tuple[bool, str]:
    """Whether a call finished with exit code 0; otherwise the cause."""
    if not record.done.is_set():
        return False, "timed out"
    if record.status is not CallStatus.SUCCEEDED or record.return_code != 0:
        return False, "error"
    return True, ""


# ======================================================================
# serve: open-loop mixed traffic through the ingestion plane
# ======================================================================
class Serve:
    """Open-loop Poisson traffic mixing classify / lookup / update."""

    name = "serve"
    #: Concurrent calls per host. Two per host on two cores: with four,
    #: eight pool threads contend for the GIL and the figures drift far
    #: more from run to run.
    CAPACITY = 2
    #: 60% classify, 30% lookup, 10% update (uniform choice over the tuple).
    MIX = ("classify",) * 6 + ("lookup",) * 3 + ("update",)
    #: Latency is measured at this fixed rate (calls/s), in blocks of
    #: BLOCK_S seconds.
    REFERENCE_RATE = 500.0
    BLOCK_S = 1.0
    #: slo_rate is the highest of these rates meeting the limit.
    LADDER = (500.0, 1000.0, 1500.0, 2000.0, 2500.0)
    #: The p99 latency limit a call must finish within (from when it
    #: was due) to count towards slo_rate.
    LATENCY_LIMIT_S = 0.025
    SLO_SHARE = 0.99
    #: Calls submitted at once for each calls_per_s backlog drain.
    BACKLOG_CALLS = 1500
    PROBE_CALLS = 1000
    #: Probes per side of the trace-overhead comparison (median taken).
    PROBES = 3
    #: Warm-up calls in set-up: each warm Faaslet serves a few hundred
    #: calls before the run, so the run measures warm Faaslets in their
    #: steady state rather than the first calls after a restore. With the
    #: guest heap defect (NOTES.md) this also means every classify reply
    #: in the run is wrong: the same count on every run of a seed.
    WARMUP_CALLS = 3000
    #: (reference block, backlog drain) rounds per second of --seconds
    #: spent on them: the number of rounds is fixed by --seconds, not by
    #: the clock, so every run of a seed makes the same calls.
    ROUNDS_PER_S = 0.6
    ZIPF_S = 1.1

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.model = rng.normal(0.0, 0.5, g.CLASSES * g.FEATURES + g.CLASSES)
        self.model_list = self.model.tolist()
        self.table = rng.integers(0, 256, g.ROWS * g.ROW_BYTES, dtype=np.uint8).tobytes()
        ranks = 1.0 / np.arange(1, g.ROWS + 1) ** self.ZIPF_S
        self.row_cdf = np.cumsum(ranks / ranks.sum())
        self.row_perm = rng.permutation(g.ROWS)
        self.rng = np.random.default_rng([seed, 2])
        self.next_value = 1
        #: slot -> every value an update call wrote there.
        self.written: dict[int, set[int]] = {}

    def params(self) -> dict:
        return {
            "capacity_per_host": self.CAPACITY,
            "mix": {"classify": 0.6, "lookup": 0.3, "update": 0.1},
            "reference_rate_per_s": self.REFERENCE_RATE,
            "ladder_per_s": list(self.LADDER),
            "latency_limit_ms": self.LATENCY_LIMIT_S * 1e3,
            "slo_share": self.SLO_SHARE,
            "reference_block_s": self.BLOCK_S,
            "backlog_calls": self.BACKLOG_CALLS,
            "table_bytes": g.ROWS * g.ROW_BYTES,
            "zipf_s": self.ZIPF_S,
            "model": [g.CLASSES, g.FEATURES],
            "update_slots": g.SLOTS,
        }

    # ------------------------------------------------------------------
    def setup(self) -> dict:
        cluster = new_cluster(self.CAPACITY)
        cluster.upload("classify", g.CLASSIFY_SRC)
        cluster.upload("lookup", g.LOOKUP_SRC)
        cluster.upload("update", g.UPDATE_SRC)
        cluster.global_state.set_value(g.MODEL_KEY, self.model.tobytes())
        cluster.global_state.set_value(g.TABLE_KEY, self.table)
        cluster.global_state.set_value(g.SLOTS_KEY, bytes(8 * g.SLOTS))
        ctx = {"cluster": cluster}
        # Warm-up: every function on every host, plus the ingestion plane.
        for fn in ("classify", "lookup", "update"):
            cluster.pre_warm(fn, self.CAPACITY)
        calls = self._calls(self.WARMUP_CALLS)
        ids = [cluster.submit(fn, data)[0] for fn, data, _ in calls]
        wait_all(cluster, ids)
        return ctx

    def _calls(self, n: int, functions=None) -> list[tuple[str, bytes, object]]:
        """``n`` calls with inputs and expected replies; ``functions``
        fixes the function sequence (else drawn from the mix)."""
        rng = self.rng
        if functions is None:
            functions = [self.MIX[i] for i in rng.integers(0, len(self.MIX), n)]
        out = []
        for fn in functions:
            if fn == "classify":
                x = rng.normal(0.0, 1.0, g.FEATURES).tolist()
                out.append((fn, g.classify_input(x), ("classify", x)))
            elif fn == "lookup":
                rank = min(int(np.searchsorted(self.row_cdf, rng.random())), g.ROWS - 1)
                row = int(self.row_perm[rank])
                out.append((fn, str(row).encode(), ("lookup", row)))
            else:
                slot = int(rng.integers(0, g.SLOTS))
                value = self.next_value
                self.next_value += 1
                self.written.setdefault(slot, set()).add(value)
                out.append((fn, g.update_input(slot, value), ("update", value)))
        return out

    def _check(self, record, expect) -> tuple[bool, str]:
        ok, cause = reply_ok(record)
        if not ok:
            return ok, cause
        kind, arg = expect
        out = record.output_data
        if kind == "classify":
            good = out == g.classify_reference(self.model_list, arg)
        elif kind == "lookup":
            good = out == self.table[arg * g.ROW_BYTES:(arg + 1) * g.ROW_BYTES]
        else:
            good = out == str(arg).encode()
        return (True, "") if good else (False, f"wrong {kind}")

    # ------------------------------------------------------------------
    def _open_loop(self, cluster, rate: float, duration: float, seed_tag: int):
        """One generator thread (this one) sends a Poisson trace on
        schedule, never waiting for replies. Returns per-call
        (due, sent, call_id, outcome, expect)."""
        trace = poisson_trace(
            rate, duration, seed=self.seed * 1000 + seed_tag, functions=self.MIX
        )
        calls = self._calls(len(trace), [ev.function for ev in trace])
        due, sent, ids, outcomes = [], [], [], []
        clock = time.monotonic
        start = clock() + 0.01
        for ev, (fn, data, _) in zip(trace, calls):
            t_due = start + ev.at
            delay = t_due - clock()
            if delay > 0:
                time.sleep(delay)
            sent.append(clock())
            call_id, outcome = cluster.submit(fn, data)
            due.append(t_due)
            ids.append(call_id)
            outcomes.append(outcome)
        wait_all(cluster, ids)
        return due, sent, ids, outcomes, [c[2] for c in calls]

    def _score(self, cluster, res: Result, ids, outcomes, expects, due=None):
        """Check every reply; returns per-call (ok, latency-from-due)."""
        records = cluster.calls.get_many([i for i in ids if i is not None])
        by_id = {r.call_id: r for r in records}
        rows = []
        for k, (call_id, outcome, expect) in enumerate(zip(ids, outcomes, expects)):
            res.attempted += 1
            if call_id is None:
                res.fail(f"refused ({outcome})")
                rows.append((False, None))
                continue
            record = by_id[call_id]
            ok, cause = self._check(record, expect)
            if not ok:
                res.fail(cause)
            latency = None
            if record.done.is_set() and due is not None:
                latency = record.finished_at - due[k]
            rows.append((ok, latency))
        return rows

    def run(self, ctx: dict, seconds: float) -> Result:
        cluster = ctx["cluster"]
        res = Result()
        late: list[float] = []
        # Rounds of (reference-rate block, backlog drain) take about the
        # first 80% of the run, so both figures sample the whole run
        # rather than one stretch of it; the rate ladder takes the rest.
        rates = []
        rounds = max(1, round(0.8 * seconds * self.ROUNDS_PER_S))
        for block in range(rounds):
            due, sent, ids, outcomes, expects = self._open_loop(
                cluster, self.REFERENCE_RATE, self.BLOCK_S, block
            )
            rows = self._score(cluster, res, ids, outcomes, expects, due)
            res.latencies.extend(lat for _, lat in rows if lat is not None)
            late.extend(lateness(due, sent))
            elapsed, ids, outcomes, expects = self._backlog(cluster, self.BACKLOG_CALLS)
            self._score(cluster, res, ids, outcomes, expects)
            rates.append(self.BACKLOG_CALLS / elapsed)
        res.throughput = median(rates)
        step_s = 0.2 * seconds / len(self.LADDER)
        slo_rate = 0.0
        ladder = {}
        for i, rate in enumerate(self.LADDER):
            due, sent, ids, outcomes, expects = self._open_loop(
                cluster, rate, step_s, 1000 + i
            )
            rows = self._score(cluster, res, ids, outcomes, expects, due)
            late.extend(lateness(due, sent))
            good = sum(
                1 for ok, lat in rows
                if ok and lat is not None and lat <= self.LATENCY_LIMIT_S
            )
            share = good / len(rows) if rows else 0.0
            ladder[int(rate)] = round(share, 4)
            if rows and share >= self.SLO_SHARE:
                slo_rate = rate
        res.footprint_bytes = cluster.total_memory_footprint()
        bad_slots = self._check_slots(cluster)
        res.fail("slot holds a value never written", bad_slots)
        res.extra.update(
            {
                "calls_per_s": (res.throughput, "calls/s"),
                "backlog_drains": (len(rates), "count"),
                "drain_calls_per_s": ([round(r) for r in rates], "calls/s"),
                "slo_rate": (slo_rate, "calls/s"),
                "ladder_good_share": (ladder, "ratio"),
                "gen_late_ms": (percentile(late, 99) * 1e3, "ms"),
                "gen_late_samples": (len(late), "count"),
            }
        )
        return res

    def _backlog(self, cluster, n: int):
        calls = self._calls(n)
        groups: dict[str, list] = {}
        for fn, data, expect in calls:
            groups.setdefault(fn, []).append((data, expect))
        t0 = time.monotonic()
        ids, outcomes, expects = [], [], []
        for fn, items in groups.items():
            results = cluster.submit_many(fn, [data for data, _ in items])
            for (call_id, outcome), (_, expect) in zip(results, items):
                ids.append(call_id)
                outcomes.append(outcome)
                expects.append(expect)
        wait_all(cluster, ids)
        records = cluster.calls.get_many([i for i in ids if i is not None])
        finished = [r.finished_at for r in records if r.done.is_set()]
        elapsed = (max(finished) if finished else time.monotonic()) - t0
        return elapsed, ids, outcomes, expects

    def _check_slots(self, cluster) -> int:
        """Every slot must hold a value an update wrote there (or its
        initial zero when no update touched it)."""
        raw = cluster.global_state.get_value(g.SLOTS_KEY)
        values = np.frombuffer(raw, dtype="<i8")
        bad = 0
        for slot in range(g.SLOTS):
            v = int(values[slot])
            allowed = self.written.get(slot)
            if allowed is None:
                bad += v != 0
            else:
                bad += v not in allowed
        return bad

    def probe(self, ctx: dict) -> float:
        elapsed, _, _, _ = self._backlog(ctx["cluster"], self.PROBE_CALLS)
        return elapsed


# ======================================================================
# train: Listing 1 HOGWILD SGD inside the sandbox
# ======================================================================
class Train:
    """Jobs of 4 in-sandbox SGD workers (2 per host) on a fresh dataset."""

    name = "train"
    N = 20000
    D = 32
    WORKERS = 4
    #: Two workers per host, each in its own slot.
    CAPACITY = 2
    EPOCHS = 1
    #: Large enough that each host's half of the data converges to the
    #: noise floor in one epoch, so a correct job lands near the reference.
    LR = 0.05
    NOISE = 0.01
    #: A job fails when its MSE exceeds this multiple of the numpy
    #: sequential-SGD reference on the same data.
    MSE_MULTIPLE = 2.0
    WARMUP_EXAMPLES = 200
    PROBES = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.job_no = 0

    def params(self) -> dict:
        return {
            "capacity_per_host": self.CAPACITY,
            "examples": self.N,
            "features": self.D,
            "dataset_bytes": self.N * self.D * 8 + self.N * 8,
            "workers": self.WORKERS,
            "epochs": self.EPOCHS,
            "lr": self.LR,
            "mse_multiple": self.MSE_MULTIPLE,
        }

    def _dataset(self, job: int):
        rng = np.random.default_rng([self.seed, 100 + job])
        X = rng.normal(0.0, 1.0, (self.N, self.D)) / np.sqrt(self.D)
        true_w = rng.normal(0.0, 1.0, self.D)
        y = X @ true_w + rng.normal(0.0, self.NOISE, self.N)
        return X, y

    def _publish(self, cluster, X, y) -> None:
        cluster.global_state.set_value(g.X_KEY, np.ascontiguousarray(X).tobytes())
        cluster.global_state.set_value(g.Y_KEY, y.tobytes())
        cluster.global_state.set_value(g.W_KEY, np.zeros(self.D).tobytes())

    def _dispatch(self, cluster, limit: int):
        per = limit // self.WORKERS
        ids = []
        for w in range(self.WORKERS):
            end = limit if w == self.WORKERS - 1 else (w + 1) * per
            data = g.train_input(w * per, end, self.N, self.D, self.LR, self.EPOCHS)
            ids.append(cluster.dispatch("train", data))
        return ids

    def setup(self) -> dict:
        cluster = new_cluster(self.CAPACITY)
        cluster.upload("train", g.TRAIN_SRC, max_pages=256)
        X, y = self._dataset(-1)
        self._publish(cluster, X, y)
        # Two warm workers per host, so round-robin entry places two
        # workers on each host; one short job maps the replicas.
        cluster.pre_warm("train", self.WORKERS // BASE_HOSTS)
        ids = self._dispatch(cluster, self.WARMUP_EXAMPLES)
        wait_all(cluster, ids)
        return {"cluster": cluster}

    def _job(self, cluster, res: Result | None):
        X, y = self._dataset(self.job_no)
        self.job_no += 1
        self._publish(cluster, X, y)
        t0 = time.monotonic()
        ids = self._dispatch(cluster, self.N)
        wait_all(cluster, ids)
        records = cluster.calls.get_many(ids)
        finished = [r.finished_at for r in records if r.done.is_set()]
        wall = (max(finished) if finished else time.monotonic()) - t0
        if res is None:
            return wall
        res.attempted += 1
        res.latencies.extend(f - t0 for f in finished)
        causes = [reply_ok(r)[1] for r in records if not reply_ok(r)[0]]
        w = np.frombuffer(cluster.global_state.get_value(g.W_KEY), dtype=np.float64)
        mse = float(np.mean((X @ w - y) ** 2))
        ref = float(np.mean((X @ reference_sgd(X, y, self.LR, self.EPOCHS) - y) ** 2))
        if causes:
            res.fail(f"worker {causes[0]}")
        elif not mse <= self.MSE_MULTIPLE * ref:
            res.fail("mse above reference multiple")
        return wall, mse, ref

    def run(self, ctx: dict, seconds: float) -> Result:
        cluster = ctx["cluster"]
        res = Result()
        walls, ratios = [], []
        end = time.monotonic() + seconds
        while time.monotonic() < end or not walls:
            wall, mse, ref = self._job(cluster, res)
            walls.append(wall)
            ratios.append(mse / ref)
        res.throughput = median([self.N * self.EPOCHS / w for w in walls])
        res.footprint_bytes = cluster.total_memory_footprint()
        res.extra.update(
            {
                "examples_per_s": (res.throughput, "examples/s"),
                "jobs": (len(walls), "count"),
                "job_examples_per_s": ([round(self.N * self.EPOCHS / w) for w in walls], "examples/s"),
                "job_s_median": (median(walls), "s"),
                "mse_over_reference_max": (max(ratios), "ratio"),
            }
        )
        return res

    def probe(self, ctx: dict) -> float:
        return self._job(ctx["cluster"], None)


def reference_sgd(X, y, lr: float, epochs: int):
    """Sequential single-worker SGD on the same data: the MSE yardstick
    a HOGWILD job must stay within a fixed multiple of."""
    w = np.zeros(X.shape[1])
    for _ in range(epochs):
        for i in range(X.shape[0]):
            x = X[i]
            w -= lr * (x @ w - y[i]) * x
    return w


# ======================================================================
# burst: scale-out flash crowds onto fresh hosts
# ======================================================================
class Burst:
    """Rounds of 16 calls to each of 8 init-heavy functions at one
    instant, landing on 2 freshly added hosts plus the base hosts."""

    name = "burst"
    #: Four slots per host, so a flash crowd restores many Faaslets at once.
    CAPACITY = 4
    FUNCTIONS = 8
    CALLS_PER_FUNCTION = 16
    EXTRA_HOSTS = 2
    PROBE_ROUNDS = 3
    PROBES = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 3])

    def params(self) -> dict:
        return {
            "capacity_per_host": self.CAPACITY,
            "functions": self.FUNCTIONS,
            "calls_per_function": self.CALLS_PER_FUNCTION,
            "calls_per_round": self.FUNCTIONS * self.CALLS_PER_FUNCTION,
            "extra_hosts_per_round": self.EXTRA_HOSTS,
            "init_table_bytes": 2 * 4 * g.TABLE_INTS,
        }

    def setup(self) -> dict:
        cluster = new_cluster(self.CAPACITY)
        for k in range(self.FUNCTIONS):
            cluster.upload(g.burst_name(k), g.burst_src(k), init="init")
        ctx = {"cluster": cluster, "extra": []}
        self._round(ctx, None)
        return ctx

    def _round(self, ctx: dict, res: Result | None) -> float:
        cluster = ctx["cluster"]
        # Scale in: retire last round's hosts, reclaim idle Faaslets to
        # zero; scale out: two hosts with empty PageStores.
        for host in ctx["extra"]:
            cluster.retire_host(host)
        for instance in cluster.instances:
            if instance.alive:
                instance.reclaim_idle(0)
        ctx["extra"] = cluster.add_host(self.EXTRA_HOSTS)
        plan = []
        for k in range(self.FUNCTIONS):
            idx = self.rng.integers(0, g.TABLE_INTS, self.CALLS_PER_FUNCTION)
            plan.append((k, [int(i) for i in idx]))
        t0 = time.monotonic()
        ids, expects = [], []
        for k, idx in plan:
            results = cluster.submit_many(g.burst_name(k), [str(i).encode() for i in idx])
            for (call_id, outcome), i in zip(results, idx):
                ids.append((call_id, outcome))
                expects.append((k, i))
        wait_all(cluster, [c for c, _ in ids])
        records = {
            r.call_id: r
            for r in cluster.calls.get_many([c for c, _ in ids if c is not None])
        }
        finished = [r.finished_at for r in records.values() if r.done.is_set()]
        elapsed = (max(finished) if finished else time.monotonic()) - t0
        if res is None:
            return elapsed
        ctx.setdefault("footprint", []).append(cluster.total_memory_footprint())
        cold = 0
        for (call_id, outcome), (k, i) in zip(ids, expects):
            res.attempted += 1
            if call_id is None:
                res.fail(f"refused ({outcome})")
                continue
            record = records[call_id]
            ok, cause = reply_ok(record)
            if ok and record.output_data != g.burst_reference(k, i):
                ok, cause = False, "wrong burst"
            if not ok:
                res.fail(cause)
            if record.done.is_set():
                res.latencies.append(record.finished_at - t0)
            cold += record.cold_start
        ctx.setdefault("cold", []).append(cold)
        return elapsed

    def run(self, ctx: dict, seconds: float) -> Result:
        cluster = ctx["cluster"]
        res = Result()
        rounds = []
        end = time.monotonic() + seconds
        while time.monotonic() < end or not rounds:
            rounds.append(self._round(ctx, res))
        calls = self.FUNCTIONS * self.CALLS_PER_FUNCTION
        res.throughput = calls / median(rounds)
        # Each round ends a steady phase: the median over rounds.
        res.footprint_bytes = median(ctx["footprint"])
        res.extra.update(
            {
                "burst_s": (median(rounds), "s"),
                "rounds": (len(rounds), "count"),
                "cold_calls_per_round": (median(ctx["cold"]), "count"),
            }
        )
        return res

    def probe(self, ctx: dict) -> float:
        return sum(self._round(ctx, None) for _ in range(self.PROBE_ROUNDS))


WORKLOADS = {w.name: w for w in (Serve, Train, Burst)}
