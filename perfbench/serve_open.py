"""``serve-open``: the in-process micro-batcher under an open loop.

One ``SpMVServer`` with its defaults serves two pJDS matrices:
``small`` (sAMG at 1/512, 6,650 rows, cache-resident, 80 % of the
requests) and ``large`` (HMEp at 1/64, 96,900 rows, ~16 MiB, 20 %).
A single generator thread submits a seeded Poisson schedule; every
request is timed from the moment it was due, so a stalled server
charges the wait to every request behind it.
"""

from __future__ import annotations

import gc
import threading
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.sparse as sp

import inputs
import lib

SMALL_N = inputs.SAMG_DIM // 512
LARGE_N = inputs.HMEP_DIM // 64
SMALL_SHARE = 0.8
#: both served matrices are fixed, as lanczos-memres fixes its
#: Hamiltonian: their padding and per-batch cost would otherwise vary
#: with the seed and fall into the run-to-run spread; --seed draws the
#: right-hand sides and the arrival schedule
MATRIX_SEED = 0
SETUPS = 10
POOL = 32  # distinct right-hand sides per matrix
LOW_RPS, HIGH_RPS = 400, 800
LADDER_STEP_RPS = 400
LADDER_MAX_RPS = 2400
#: a step counts toward the rate only when p99 <= LATENCY_LIMIT_MS, the
#: generator's p99 lateness <= LATE_LIMIT_MS and the backlog did not grow
LATENCY_LIMIT_MS = 100.0
LATE_LIMIT_MS = 20.0
MIN_STEP_REQUESTS = 1000  # p99 keeps 10 requests beyond it
ROUNDS = 10
BURST_ROUNDS = 7
WARMUP_S = 3.0
#: the bounded tail: the p99 and p95 of a GIL-bound server on 2 vCPUs
#: swing with host noise; p90 keeps >= 40 requests beyond it in every step
TAIL_PCT = 90
SATURATION_REQUESTS = 2048
BURST = 256  # the fixed job: large-matrix requests submitted at once
DRAIN_TIMEOUT_S = 30.0


#: per-layer metric prefixes this workload runs but cannot separate
ABSENT = {
    "formats.": "convert is timed inside setup_s; its layer figures come from lanczos-memres",
    "engine.": "the registry binds inside serve.registry.load_s",
    "kernels.": "the kernel runs inside serve.scheduler.batch_ms.*",
}


class _Step:
    """Outcome of one fixed-rate step of the schedule."""

    def __init__(self, n: int):
        self.lat = np.full(n, np.nan)
        self.late = np.zeros(n)
        self.done = threading.Semaphore(0)
        self.backlog_mid = 0
        self.backlog_end = 0
        self.wall = 0.0

    def ok_latencies(self) -> np.ndarray:
        return self.lat[~np.isnan(self.lat)]

    @classmethod
    def pooled(cls, parts: list["_Step"]) -> "_Step":
        """One step holding every sample of ``parts``; the backlog test
        applies to each part, so the worst part's growth is kept."""
        out = cls(0)
        out.lat = np.concatenate([p.lat for p in parts])
        out.late = np.concatenate([p.late for p in parts])
        worst = max(parts, key=lambda p: p.backlog_end - p.backlog_mid)
        out.backlog_mid, out.backlog_end = worst.backlog_mid, worst.backlog_end
        out.wall = sum(p.wall for p in parts)
        return out


def _schedule(rng, rate: float, duration: float):
    """Poisson arrival offsets, matrix class (0 small, 1 large), RHS index."""
    n = max(int(rate * duration), 1)
    t = np.cumsum(rng.exponential(1.0 / rate, size=n))
    cls = (rng.random(n) >= SMALL_SHARE).astype(np.int8)
    return t, cls, rng.integers(0, POOL, size=n)


def _run_step(server, names, xs, refs, rec, due, cls, pick) -> _Step:
    n = due.size
    st = _Step(n)
    outstanding = [0]
    lock = threading.Lock()

    def finish(i, t_due, c, k, fut):
        t_end = time.perf_counter()
        try:
            ok = np.array_equal(fut.result(), refs[c][k])
        except Exception:  # noqa: BLE001 - a failed request is a failure
            ok = False
        if ok:
            st.lat[i] = t_end - t_due
        rec.check(ok, f"{names[c]} request failed or differs from its alone answer")
        with lock:
            outstanding[0] -= 1
        st.done.release()

    t0 = time.perf_counter() + 0.01
    half = n // 2
    for i in range(n):
        t_due = t0 + due[i]
        delay = t_due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        c, k = int(cls[i]), int(pick[i])
        st.late[i] = time.perf_counter() - t_due
        with lock:
            outstanding[0] += 1
        fut = server.submit(names[c], xs[c][k])
        fut.add_done_callback(lambda f, i=i, d=t_due, c=c, k=k: finish(i, d, c, k, f))
        if i == half:
            st.backlog_mid = outstanding[0]
    st.backlog_end = outstanding[0]
    end = time.perf_counter() + DRAIN_TIMEOUT_S
    for _ in range(n):
        if not st.done.acquire(timeout=max(end - time.perf_counter(), 0.0)):
            rec.fail("request not answered before the drain timeout",
                     n=outstanding[0])
            break
    st.wall = time.perf_counter() - t0
    return st


def _step_ok(st: _Step) -> bool:
    lat = st.ok_latencies()
    return (
        lat.size == st.lat.size
        and lib.pct(lat, 99) * 1e3 <= LATENCY_LIMIT_MS
        and lib.pct(st.late, 99) * 1e3 <= LATE_LIMIT_MS
        and st.backlog_end <= st.backlog_mid + 16
    )


def _modal_last(variants: list[dict]) -> bool:
    """True once SETUPS set-ups ran and the last one's tuner choice is
    among the most common of the first SETUPS, or SETUPS more were tried.

    The tuner's cold race between near-equal kernels (jds_cc against
    jds_scipy on ``large``) is decided by timing noise, and each choice
    has its own batch cost: the timed server is one whose choice is this
    run's usual one, so one noisy race does not decide the run's
    latencies.  Every choice goes to the stamp.
    """
    if len(variants) < SETUPS:
        return False
    counts = Counter(tuple(sorted(v.items())) for v in variants[:SETUPS])
    last = tuple(sorted(variants[-1].items()))
    return counts[last] == max(counts.values()) or len(variants) >= 2 * SETUPS


def run(rec: lib.Recorder, seed: int, seconds: float, trace: bool) -> None:
    from repro import obs
    from repro.engine import default_tuner_cache
    from repro.formats import COOMatrix, convert
    from repro.serve import MatrixRegistry, SpMVServer

    names = ("small", "large")
    triplets = (inputs.samg(SMALL_N, MATRIX_SEED),
                inputs.hmep(LARGE_N, MATRIX_SEED, symmetric=False))
    sizes = (SMALL_N, LARGE_N)
    coo = [
        COOMatrix(inputs.csr_rows(p), c, d, (n, n), sum_duplicates=False)
        for (p, c, d), n in zip(triplets, sizes)
    ]
    rng = np.random.default_rng(seed + 1)
    xs = [rng.standard_normal((POOL, n)) for n in sizes]
    # scipy answers and gamma_k |A||x| bounds, plus room for the
    # server's "alone" answers, exist before the program's memory is counted
    expect, tol = [], []
    for (indptr, cols, data), n, x in zip(triplets, sizes, xs):
        A = sp.csr_matrix((data, cols, indptr), shape=(n, n))
        expect.append((A @ x.T).T)
        tol.append(lib.gamma(int(np.diff(indptr).max())) * (abs(A) @ np.abs(x).T).T)
    refs = [np.empty((POOL, n)) for n in sizes]
    del A
    gc.collect()
    peak = lib.ProgramPeak(sum(
        m.rows.nbytes + m.cols.nbytes + m.values.nbytes for m in coo
    ))

    # -- set-up: convert, start, register, first answers -----------------
    setup_s, load_s, variants = [], [], []
    server = None
    while not _modal_last(variants):
        if server is not None:
            server.close()
        server = registry = None
        gc.collect()
        default_tuner_cache().clear()
        t0 = time.perf_counter()
        mats = [convert(m, "pJDS") for m in coo]
        registry = MatrixRegistry()
        server = SpMVServer(registry)
        for name, m in zip(names, mats):
            registry.register(name, matrix=m)
        t1 = time.perf_counter()
        firsts = [server.submit(name, xs[c][0]) for c, name in enumerate(names)]
        ys = [f.result(timeout=DRAIN_TIMEOUT_S) for f in firsts]
        t2 = time.perf_counter()
        setup_s.append(t2 - t0)
        load_s.append(t2 - t1)
        stats = registry.stats()
        variants.append({e["name"]: e["variant"] for e in stats["resident"]})
        if len(variants) == 1:
            # the cold server's footprint: the program's peak through its
            # first set-up (the tuner's race sets it, whichever kernel
            # wins: 140.0-140.1 MiB over 12 cold starts).  Later peaks
            # follow how the allocator's arenas fragmented over repeated
            # set-ups (183-213 MiB) and, once batches run, which batch
            # widths each worker's clone allocated scratch for (256-341
            # MiB over 15 runs), so the serving peak goes to the stamp only
            rec.put("peak_rss_mb", peak.mb(), "MiB")
    del mats
    rec.put("setup_s", lib.median(setup_s[:SETUPS]), "s")

    # the "alone" answers: each vector submitted with nothing else queued
    for c, name in enumerate(names):
        for k in range(POOL):
            refs[c][k] = server.submit(name, xs[c][k]).result(timeout=DRAIN_TIMEOUT_S)
            rec.check(lib.within_bound(refs[c][k], expect[c][k], tol[c][k]),
                      f"{names[c]} alone answer outside gamma_k |A||x|")
        rec.check(np.array_equal(ys[c], refs[c][0]), f"{names[c]} first answer unstable")

    srng = np.random.default_rng(seed + 2)

    def step(rate: float, seconds: float) -> _Step:
        return _run_step(server, names, xs, refs, rec, *_schedule(srng, rate, seconds))

    brng = np.random.default_rng(seed + 3)

    def burst(share: float, n: int) -> _Step:
        """``n`` requests submitted at once: admission keeps the queue full."""
        cls = (brng.random(n) >= share).astype(np.int8)
        pick = brng.integers(0, POOL, size=n)
        return _run_step(server, names, xs, refs, rec, np.zeros(n), cls, pick)

    # the first batch of each size allocates per-size scratch in every
    # worker's clone: an untimed saturating burst touches most sizes
    burst(SMALL_SHARE, SATURATION_REQUESTS)

    # -- saturation: the mixed burst as fast as admission allows, and
    # -- the fixed job: a burst of large requests drained; alternating,
    # -- so a slow spell of the host lands on both ----------------------
    walls = [[], []]
    for _ in range(BURST_ROUNDS):
        walls[0].append(burst(SMALL_SHARE, SATURATION_REQUESTS).wall)
        walls[1].append(burst(0.0, BURST).wall)
    rec.put("throughput_rps", SATURATION_REQUESTS / lib.median(walls[0]), "1/s")
    rec.put("solve_s", lib.median(walls[1]), "s")

    step(HIGH_RPS, WARMUP_S)
    if trace:
        untraced = step(HIGH_RPS, 0.3 * seconds)
        obs.reset_spans()
        obs.enable()
        traced = step(HIGH_RPS, 0.3 * seconds)
        obs.disable()
        _per_layer(rec, server, traced, untraced, load_s[:SETUPS])
    else:
        # LOW and HIGH alternate in short steps and a metric is the median
        # of the steps' figures, so a burst of host noise moves one step
        parts = {LOW_RPS: [], HIGH_RPS: []}
        guard = lib.StealGuard(budget=ROUNDS)
        for _ in range(ROUNDS):
            for rate in parts:
                parts[rate].append(
                    guard.run(lambda: step(rate, 0.8 * seconds / (2 * ROUNDS))))
        rec.stamp["rounds_redone_steal"] = guard.redone
        for key, rate in (("low", LOW_RPS), ("high", HIGH_RPS)):
            for name, q in ((f"lat_p50_ms.{key}", 50), (f"lat_tail_ms.{key}", TAIL_PCT)):
                rec.put(name, lib.round_median(
                    [p.ok_latencies() * 1e3 for p in parts[rate]], q), "ms")
        rec.stamp["round_p50_ms"] = {
            str(rate): [round(lib.pct(p.ok_latencies(), 50) * 1e3, 3) for p in ps]
            for rate, ps in parts.items()
        }
        rec.stamp["peak_rss_serving_mb"] = round(peak.mb(), 1)
        _ladder(rec, step, {rate: _Step.pooled(p) for rate, p in parts.items()})
    server.close()
    rec.stamp.update(lib.provenance())
    rec.stamp.update(peak.stamp())
    rec.stamp.update(
        matrices={"small": f"sAMG/512 ({SMALL_N} rows)", "large": f"HMEp/64 ({LARGE_N} rows)"},
        tuned_variants=variants,
        variant=variants[-1],
        latency_limit_ms=LATENCY_LIMIT_MS,
        late_limit_ms=LATE_LIMIT_MS,
    )


def _ladder(rec, step, steps: dict) -> None:
    """Rates above HIGH in LADDER_STEP_RPS steps while every step so far
    met the limits; the highest passing rate goes to the stamp."""
    rate = HIGH_RPS + LADDER_STEP_RPS
    while rate <= LADDER_MAX_RPS and _step_ok(steps[rate - LADDER_STEP_RPS]):
        steps[rate] = step(rate, MIN_STEP_REQUESTS / rate)
        rate += LADDER_STEP_RPS
    rec.stamp["max_rate_rps"] = max(
        (r for r, st in steps.items() if _step_ok(st)), default=0
    )
    rec.stamp["ladder"] = {
        str(r): {
            "ok": _step_ok(st),
            "p99_ms": round(lib.pct(st.ok_latencies(), 99) * 1e3, 3),
            "late_p99_ms": round(lib.pct(st.late, 99) * 1e3, 3),
            "backlog_mid": st.backlog_mid,
            "backlog_end": st.backlog_end,
            "requests": int(st.lat.size),
        }
        for r, st in steps.items()
    }


def _per_layer(rec, server, traced: _Step, untraced: _Step, load_s) -> None:
    """Scheduler and registry figures from the program's own spans:
    ``serve.request`` (submit to answer) and ``serve.batch``, which links
    every request it served."""
    from repro import obs

    spans = obs.get_tracer().finished()
    reqs = {(s.trace_id, s.span_id): s for s in spans if s.name == "serve.request"}
    batches = [s for s in spans if s.name == "serve.batch"]
    waits = [b.start - reqs[k].start for b in batches for k in b.links if k in reqs]
    batch_ms, req_ms = defaultdict(list), defaultdict(list)
    for b in batches:
        batch_ms[b.attrs["matrix"]].append(b.duration * 1e3)
    for r in reqs.values():
        req_ms[r.attrs["matrix"]].append(r.duration * 1e3)
    rec.put("serve.registry.load_s", lib.median(load_s), "s")
    rec.put("serve.registry.resident_mb", server.registry.resident_bytes / 2**20, "MiB")
    rec.put("serve.scheduler.batches", len(batches), "count")
    rec.put("serve.scheduler.batch_mean",
            float(np.mean([b.attrs["size"] for b in batches])), "count")
    rec.put("serve.scheduler.queue_wait_ms.p50", lib.pct(waits, 50) * 1e3, "ms")
    rec.put("serve.scheduler.queue_wait_ms.p99", lib.pct(waits, 99) * 1e3, "ms")
    rec.put("serve.scheduler.busy_frac",
            sum(b.duration for b in batches) / (server.num_workers * traced.wall), "ratio")
    for name in ("small", "large"):
        rec.put(f"serve.scheduler.batch_ms.{name}", lib.median(batch_ms[name]), "ms")
        rec.put(f"serve.scheduler.lat_p50_ms.{name}", lib.pct(req_ms[name], 50), "ms")
        rec.put(f"serve.scheduler.lat_p99_ms.{name}", lib.pct(req_ms[name], 99), "ms")
    rec.put("loadgen.late_p99_ms", lib.pct(traced.late, 99) * 1e3, "ms")
    rec.put("loadgen.backlog", traced.backlog_end, "count")
    rec.put("obs.trace_overhead_frac",
            lib.median(traced.ok_latencies()) / lib.median(untraced.ok_latencies()) - 1.0,
            "ratio")
    rec.stamp["traced_requests"] = {"spans": len(reqs), "sent": int(traced.lat.size)}
