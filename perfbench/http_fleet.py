"""``http-fleet``: the operator path, HTTP/JSON over a 2-shard fleet.

The benchmark starts ``python -m repro serve --fleet 2 --workers 1``
(shards x workers = 2 = the host's cores) serving two Matrix Market
files it wrote: sAMG at 1/256 (13,300 rows, a ~267 KB JSON body) and
the 5-point ``poisson2d`` Laplacian on a 115 x 115 grid (SPD).  One
process holds two keep-alive connections: A sends ``/v1/spmv`` back to
back, B sends ``/v1/solve`` (CG, tol 1e-8) back to back.  It is a
closed loop: each caller waits for its reply before the next request.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import inputs
import lib

SAMG_SCALE = 256
SAMG_N = inputs.SAMG_DIM // SAMG_SCALE
#: the served matrices are fixed, as in the other workloads; --seed
#: draws the right-hand sides
MATRIX_SEED = 0
GRID = 115
SETUPS = 5
POOL = 8  # distinct spmv right-hand sides
CG_TOL = 1e-8
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
#: the CLI always registers a default suite matrix; at this scale it is
#: the 64-row minimum, so it costs start-up nothing the test matrices do
DEFAULT_MATRIX_SCALE = 65536
#: rounds of (A alone, A beside one B solve); per-round figures are
#: combined by their median.  A's p50 swings 15-33 ms from round to
#: round on a 2-vCPU Xeon, so there are enough rounds for it to settle
ROUNDS = 6
#: a round costs a CG solve, so fewer of them are measured again
#: after heavy host steal (lib.StealGuard) than in the other workloads
REDO_BUDGET = 1
#: A's fewest requests per alone phase: p90 keeps 10 beyond it over all rounds
LOW_MIN_REQUESTS = 13
#: trace overhead: both servers warmed, then this many rounds of a few
#: /v1/spmv requests on each, alternating which server goes first
OVERHEAD_WARMUP, OVERHEAD_ROUNDS, OVERHEAD_BATCH = 10, 8, 5


#: per-layer metric prefixes this workload runs but cannot separate
ABSENT = {
    "formats.": "runs inside the shard processes, which export no per-layer timing",
    "engine.": "runs inside the shard processes, which export no per-layer timing",
    "kernels.": "runs inside the shard processes, which export no per-layer timing",
    "solvers.": "CG runs in the router; its time is serve.router.solve_ms_per_iter",
    "serve.registry.": "shard registries live in child processes; /fleetz reports no load time",
    "serve.scheduler.": "shard schedulers live in child processes; see serve.router.shard_batch_mean",
}


class _Server:
    """One ``repro serve --fleet`` child process and its process group."""

    def __init__(self, mtx: list[Path], *, traced: bool):
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--fleet", "2", "--workers", "1",
               "--scale", str(DEFAULT_MATRIX_SCALE)]
        for p in mtx:
            cmd += ["--mtx", str(p)]
        if traced:
            cmd.append("--obs")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": "1"}, start_new_session=True,
        )
        self.port = None
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if "listening on http://" in line:
                self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("repro serve --fleet did not start")
        # keep draining stdout so the child never blocks on a full pipe
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        return lib.peak_rss_mb(lib.process_tree(self.proc.pid))

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown), then the whole group."""
        pgid = self.proc.pid
        self.proc.send_signal(signal.SIGINT)
        for sig, wait in ((None, 15.0), (signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
            if sig is not None:
                try:
                    os.killpg(pgid, sig)
                except ProcessLookupError:
                    pass
            try:
                self.proc.wait(timeout=wait)
            except subprocess.TimeoutExpired:
                continue
            if not _group_alive(pgid, wait):
                break
        self.proc.stdout.close()


def _group_members(pgid: int) -> list[tuple[int, str, int]]:
    """(pid, state, parent pid) of every process in group ``pgid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                state, ppid, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue
        if int(pgrp) == pgid:
            out.append((int(entry), state, int(ppid)))
    return out


def _group_alive(pgid: int, wait: float) -> bool:
    """Whether a process of group ``pgid`` still runs after ``wait`` s.

    A shard that ended after the server did is re-parented to this
    process (run.py makes it the subreaper) and is reaped here; one that
    has ended counts as gone, since only its parent can reap it.
    """
    end = time.monotonic() + wait
    while True:
        running = False
        for pid, state, ppid in _group_members(pgid):
            if state != "Z":
                running = True
            elif ppid == os.getpid():
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass
        if not running:
            return False
        if time.monotonic() >= end:
            return True
        time.sleep(0.05)


def _post(conn, path: str, body: bytes):
    """One round trip; returns (seconds, raw response body)."""
    t0 = time.perf_counter()
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    raw = resp.read()
    dt = time.perf_counter() - t0
    if resp.status != 200:
        raise RuntimeError(f"{path} -> HTTP {resp.status}: {raw[:200]!r}")
    return dt, raw


def _get(conn, path: str) -> dict:
    conn.request("GET", path)
    resp = conn.getresponse()
    return json.loads(resp.read())


def run(rec: lib.Recorder, seed: int, seconds: float, trace: bool) -> None:
    work = Path(os.environ["REPRO_CACHE_DIR"])
    sa_ptr, sa_col, sa_val = inputs.samg(SAMG_N, MATRIX_SEED)
    po_ptr, po_col, po_val = inputs.poisson2d(GRID)
    n_po = GRID * GRID
    samg_mtx, pois_mtx = work / f"samg{SAMG_SCALE}.mtx", work / "poisson.mtx"
    inputs.write_mtx(samg_mtx, sa_ptr, sa_col, sa_val, SAMG_N)
    inputs.write_mtx(pois_mtx, po_ptr, po_col, po_val, n_po)
    A = sp.csr_matrix((sa_val, sa_col, sa_ptr), shape=(SAMG_N, SAMG_N))
    P = sp.csr_matrix((po_val, po_col, po_ptr), shape=(n_po, n_po))
    rng = np.random.default_rng(seed + 1)
    xs = rng.standard_normal((POOL, SAMG_N))
    refs = [A @ x for x in xs]  # csr_scipy over the same sorted CSR
    bodies = [json.dumps({"matrix": samg_mtx.stem, "x": x.tolist()}).encode() for x in xs]
    b = rng.standard_normal(n_po)
    solve_body = json.dumps({"matrix": pois_mtx.stem, "b": b.tolist(), "method": "cg",
                             "tol": CG_TOL}).encode()
    first_pois = json.dumps({"matrix": pois_mtx.stem, "x": b.tolist()}).encode()
    mtx = [samg_mtx, pois_mtx]

    def check_spmv(raw: bytes, k: int) -> dict:
        reply = json.loads(raw)
        rec.check(np.array_equal(np.asarray(reply["y"]), refs[k]),
                  "/v1/spmv answer differs from csr_scipy")
        return reply

    def check_solve(raw: bytes) -> dict:
        reply = json.loads(raw)
        x = np.asarray(reply["x"])
        resid = float(np.linalg.norm(b - P @ x) / np.linalg.norm(b))
        rec.check(bool(reply["converged"]) and resid <= 10 * CG_TOL,
                  f"/v1/solve residual {resid:.3g}")
        return reply

    # -- set-up: CLI start to the first correct answer of each matrix ---
    setup_s, server = [], None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            server = _Server(mtx, traced=False)
            conn = server.connect()
            _, raw = _post(conn, "/v1/spmv", bodies[0])
            _, raw_p = _post(conn, "/v1/spmv", first_pois)
            setup_s.append(time.perf_counter() - t0)
            check_spmv(raw, 0)
            rec.check(np.array_equal(np.asarray(json.loads(raw_p)["y"]), P @ b),
                      "/v1/spmv poisson answer differs from csr_scipy")
            conn.close()
        rec.put("setup_s", lib.median(setup_s), "s")

        overhead = None
        if trace:
            untraced, server = server, None
            try:
                server = _Server(mtx, traced=True)
                overhead = _trace_overhead(untraced, server, bodies, check_spmv)
            finally:
                untraced.stop()
        _measure(rec, server, seconds, bodies, solve_body, check_spmv, check_solve,
                 overhead)
        rec.put("peak_rss_mb", server.peak_rss_mb(), "MiB")
    finally:
        if server is not None:
            server.stop()
    rec.stamp.update(lib.provenance())
    rec.stamp.update(matrices={samg_mtx.stem: f"sAMG/{SAMG_SCALE} ({SAMG_N} rows)",
                               "poisson": f"poisson2d {GRID}x{GRID}"},
                     req_body_bytes=len(bodies[0]))


def _trace_overhead(untraced, traced, bodies, check_spmv) -> float:
    """Median /v1/spmv round trip on the ``--obs`` server over the same
    on an untraced one, both warmed and sampled in alternating rounds,
    minus 1."""
    conns = {"untraced": untraced.connect(), "traced": traced.connect()}
    times = {"untraced": [], "traced": []}
    i = 0

    def one(key: str, keep: bool) -> None:
        nonlocal i
        dt, raw = _post(conns[key], "/v1/spmv", bodies[i % len(bodies)])
        check_spmv(raw, i % len(bodies))
        i += 1
        if keep:
            times[key].append(dt)

    for key in conns:
        for _ in range(OVERHEAD_WARMUP):
            one(key, keep=False)
    for r in range(OVERHEAD_ROUNDS):
        for key in sorted(conns, reverse=bool(r % 2)):
            for _ in range(OVERHEAD_BATCH):
                one(key, keep=True)
    for conn in conns.values():
        conn.close()
    return lib.median(times["traced"]) / lib.median(times["untraced"]) - 1.0


def _measure(rec, server, seconds, bodies, solve_body, check_spmv, check_solve,
             overhead) -> None:
    """ROUNDS x (connection A alone, then A beside one B solve)."""
    conn_a = server.connect()
    conn_b = server.connect()
    spmv = {"low": [], "high": []}
    router_s, http_over, resp_bytes, solves = [], [], [], []
    i = 0

    def one_spmv(out: list) -> None:
        nonlocal i
        dt, raw = _post(conn_a, "/v1/spmv", bodies[i % POOL])
        reply = check_spmv(raw, i % POOL)
        i += 1
        out.append(dt)
        router_s.append(reply["seconds"])
        http_over.append(dt - reply["seconds"])
        resp_bytes.append(len(raw))

    def caller_b(out: list):
        try:
            dt, raw = _post(conn_b, "/v1/solve", solve_body)
            reply = check_solve(raw)
            out.append((dt, reply["seconds"], reply["iterations"]))
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            rec.fail(f"/v1/solve failed: {exc}")

    def one_round():
        low, high, solve = [], [], []
        end = time.perf_counter() + 0.6 * seconds / ROUNDS
        while time.perf_counter() < end or len(low) < LOW_MIN_REQUESTS:
            one_spmv(low)
        tb = threading.Thread(target=caller_b, args=(solve,))
        tb.start()
        end = time.perf_counter() + 0.4 * seconds / ROUNDS
        while time.perf_counter() < end or tb.is_alive():
            one_spmv(high)
        tb.join()
        return low, high, solve

    guard = lib.StealGuard(budget=REDO_BUDGET)
    for _ in range(ROUNDS):
        low, high, solve = guard.run(one_round)
        spmv["low"].append(low)
        spmv["high"].append(high)
        solves += solve
    rec.stamp["rounds_redone_steal"] = guard.redone
    fleet = _get(conn_a, "/fleetz")
    conn_a.close()
    conn_b.close()

    for key, rounds in spmv.items():
        for name, q in ((f"lat_p50_ms.{key}", 50), (f"lat_tail_ms.{key}", 90)):
            rec.put(name, lib.round_median(rounds, q) * 1e3, "ms")
    rec.put("throughput_rps", lib.median([len(r) / sum(r) for r in spmv["high"]]), "1/s")
    rec.put("solve_s", lib.median([s[0] for s in solves]), "s")
    rec.stamp["round_p50_ms"] = {k: [round(lib.pct(r, 50) * 1e3, 3) for r in v]
                                 for k, v in spmv.items()}
    rec.stamp["samples"] = {k: sum(map(len, v)) for k, v in spmv.items()}
    rec.stamp["samples"]["solves"] = len(solves)
    if overhead is None:
        return
    shards = [s for s in fleet.get("shards", []) if s.get("alive")]
    rec.put("serve.http.overhead_ms.spmv", lib.median(http_over) * 1e3, "ms")
    rec.put("serve.http.overhead_ms.solve",
            lib.median([s[0] - s[1] for s in solves]) * 1e3, "ms")
    rec.put("serve.http.req_kb", len(bodies[0]) / 1024, "KiB")
    rec.put("serve.http.resp_kb", lib.median(resp_bytes) / 1024, "KiB")
    rec.put("serve.router.spmv_ms", lib.median(router_s) * 1e3, "ms")
    rec.put("serve.router.solve_ms_per_iter",
            lib.median([s[1] / s[2] for s in solves]) * 1e3, "ms")
    rec.put("serve.router.shard_batch_mean",
            float(np.mean([s.get("mean_batch_size", 0.0) for s in shards])), "count")
    rec.put("serve.router.hedges", fleet.get("hedges", 0), "count")
    rec.put("serve.router.failovers", fleet.get("failovers", 0), "count")
    rec.put("obs.trace_overhead_frac", overhead, "ratio")
