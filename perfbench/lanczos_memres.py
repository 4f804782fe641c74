"""``lanczos-memres``: the library path on a memory-sized Hamiltonian.

HMEp at 1/8 paper scale, symmetrised as ``0.5 * (A + A^T)`` (775,200
rows, ~12.1 M non-zeros, ~145 MiB as pJDS).  The steps follow the
paper's physics use case: convert, cold-tune ``bind``, steady ``spmv``
and 8-column ``spmm`` loops, a Lanczos ground state through the tuned
engine, and the 2-worker row-block ``ParallelSpMV`` against a serial
CRS bind.  No serving layer runs.
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np
import scipy.sparse as sp

import inputs
import lib

SCALE = 8
N = inputs.HMEP_DIM // SCALE
#: one fixed Hamiltonian and Lanczos start vector: the iteration count
#: (68-81 over seeds) would otherwise dominate the run-to-run spread of
#: solve_s; --seed draws the spmv/spmm right-hand sides
HAMILTONIAN_SEED = 0
SETUPS = 3
#: timed loops run one round per set-up; a metric is the median of the
#: rounds' figures, so one set-up's placement or a burst of host noise
#: moves one of them.  The tails (p90 of spmv, p75 of spmm) keep 10
#: calls beyond them at the minimum call counts
ROUNDS_PER_SETUP = 1
SPMV_ROUND_CALLS = 34
SPMM_ROUND_CALLS = 14
SPMM_COLS = 8
LANCZOS = dict(num_eigenvalues=1, tol=1e-8, max_iter=300)
#: a kernel may not beat the read stream measured at its own working
#: set and thread count by more than this before the run is invalid
ROOFLINE_TOL = 0.10


#: per-layer metric prefixes this workload runs but cannot separate
ABSENT: dict[str, str] = {}


def _uss_mb(pid: int) -> float:
    """Memory private to ``pid`` (its row-block copies), in MiB."""
    kb = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    kb += int(line.split()[1])
    except OSError:
        pass
    return kb / 1024.0


def _scipy_pair(indptr, cols, data, *, with_abs: bool = True):
    """The scipy CSR reference and, for the gamma_k bound, ``|A|``."""
    a = sp.csr_matrix(
        (data, cols.astype(np.int32), indptr.astype(np.int32)), shape=(N, N)
    )
    if not with_abs:
        return a, None
    return a, sp.csr_matrix((np.abs(data), a.indices, a.indptr), shape=(N, N))


def run(rec: lib.Recorder, seed: int, seconds: float, trace: bool) -> None:
    from repro import obs
    from repro.engine import ParallelSpMV, bind, default_tuner_cache
    from repro.formats import COOMatrix, convert
    from repro.solvers import lanczos

    indptr, cols, data = inputs.hmep(N, HAMILTONIAN_SEED, symmetric=True)
    matrix_in = COOMatrix(
        inputs.csr_rows(indptr), cols, data, (N, N), sum_duplicates=False
    )
    nnz = int(data.size)
    g = lib.gamma(int(np.diff(indptr).max()))
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(N)
    X = rng.standard_normal((N, SPMM_COLS))
    # every reference answer exists before the program's memory is
    # counted; the scipy matrices are rebuilt from the triplet afterwards
    ref, abs_ref = _scipy_pair(indptr, cols, data)
    y_ref, y_tol = ref @ x, g * (abs_ref @ np.abs(x))
    Y_ref, Y_tol = ref @ X, g * (abs_ref @ np.abs(X))
    scratch_v, scratch_m = np.empty(N), np.empty((N, SPMM_COLS))
    del ref, abs_ref
    gc.collect()
    peak = lib.ProgramPeak(
        matrix_in.rows.nbytes + matrix_in.cols.nbytes + matrix_in.values.nbytes
    )

    # -- SETUPS times: convert, cold-tuned bind and ParallelSpMV start to
    # -- the first answers, then a share of every timed loop and one
    # -- Lanczos solve on that set-up.  The loops' figures follow where a
    # -- set-up happens to place the matrix (spmv p50 19-28 ms over runs
    # -- on a 2-vCPU Xeon), so a run's figure is a median across set-ups
    y, Y = np.empty(N), np.empty((N, SPMM_COLS))
    rounds = SETUPS * ROUNDS_PER_SETUP
    setup_s, convert_s, bind_s, par_start_s, variants, hits = [], [], [], [], [], 0
    spmv_t, spmm_t, par_t, solve_t, its, untraced_t = [], [], [], [], [], []
    bound = csr = par = pj = res = None
    guard = lib.StealGuard(budget=rounds)

    def check_y(what):
        return lambda out: rec.check(lib.within_bound(out, y_ref, y_tol, scratch_v), what)

    def check_Y(out):
        rec.check(lib.within_bound(out, Y_ref, Y_tol, scratch_m), "spmm answer")

    for _ in range(SETUPS):
        if trace:
            obs.disable()  # set-up is timed untraced
        if par is not None:
            par.close()
        bound = csr = par = pj = res = None
        gc.collect()
        default_tuner_cache().clear()
        t0 = time.perf_counter()
        pj = convert(matrix_in, "pJDS")
        csr = convert(matrix_in, "CRS")
        t1 = time.perf_counter()
        bound = bind(pj)
        t2 = time.perf_counter()
        par = ParallelSpMV(csr, 2, mode="vector")
        t3 = time.perf_counter()
        y1 = bound.spmv(x)
        y2 = par.spmv(x)
        t4 = time.perf_counter()
        rec.check(lib.within_bound(y1, y_ref, y_tol, scratch_v), "setup: pJDS spmv")
        rec.check(lib.within_bound(y2, y_ref, y_tol, scratch_v), "setup: parallel spmv")
        setup_s.append(t4 - t0)
        convert_s.append(t1 - t0)
        bind_s.append(t2 - t1)
        par_start_s.append(t3 - t2)
        variants.append(bound.variant_name)
        hits += int(bound.tune_result.cache_hit)

        if trace:
            # trace overhead: the same spmv loop untraced first
            untraced_t += lib.timed_loop(lambda: bound.spmv(x, out=y), 1.0 / SETUPS, 10)
            obs.enable()
        for _ in range(ROUNDS_PER_SETUP):
            spmv_t.append(guard.run(lambda: lib.timed_loop(
                lambda: bound.spmv(x, out=y), 0.3 * seconds / rounds,
                SPMV_ROUND_CALLS, check_y("spmv answer"))))
            spmm_t.append(guard.run(lambda: lib.timed_loop(
                lambda: bound.spmm(X, out=Y), 0.4 * seconds / rounds,
                SPMM_ROUND_CALLS, check_Y)))
            par_t.append(guard.run(lambda: lib.timed_loop(
                lambda: par.spmv(x, out=y), 0.2 * seconds / rounds, 3,
                check_y("parallel spmv answer"))))
        res = None
        gc.collect()
        t0 = time.perf_counter()
        res = lanczos(bound, seed=HAMILTONIAN_SEED, **LANCZOS)
        solve_t.append(time.perf_counter() - t0)
        its.append(res.iterations)

    rec.put("setup_s", lib.median(setup_s), "s")
    spmv_ms = lib.round_median(spmv_t, 50) * 1e3
    spmm_ms = lib.round_median(spmm_t, 50) * 1e3
    rec.put("lat_p50_ms.low", spmv_ms, "ms")
    rec.put("lat_tail_ms.low", lib.round_median(spmv_t, 90) * 1e3, "ms")
    rec.put("lat_p50_ms.high", spmm_ms, "ms")
    rec.put("lat_tail_ms.high", lib.round_median(spmm_t, 75) * 1e3, "ms")
    par_ms = lib.round_median(par_t, 50) * 1e3
    rec.put("throughput_rps", 1e3 / par_ms, "1/s")
    solve_s = lib.median(solve_t)
    rec.put("solve_s", solve_s, "s")
    rec.check(len(set(its)) == 1, f"lanczos iterations differ between solves: {its}")
    lam, v = float(res.eigenvalues[0]), res.eigenvectors[:, 0]
    iterations, spmv_count = res.iterations, res.spmv_count
    del res
    gc.collect()

    # -- serial CRS baseline of the row-block runtime --------------------
    worker_mb = sum(_uss_mb(p) for p in lib.process_tree(os.getpid())[1:])
    bcsr = bind(csr)
    hits += int(bcsr.tune_result.cache_hit)
    ser_t = lib.timed_loop(lambda: bcsr.spmv(x, out=y), 0.1 * seconds, 10,
                           check_y("serial CRS spmv answer"))
    rec.check(hits == 0, f"tuner cache hit on a cold bind ({hits})")
    par.close()
    rec.put("peak_rss_mb", peak.mb() + worker_mb, "MiB")
    del Y_ref, Y_tol, scratch_m

    # -- the Lanczos pair's residual, against the scipy reference -------
    ref, _ = _scipy_pair(indptr, cols, data, with_abs=False)
    resid = float(np.linalg.norm(ref @ v - lam * v) / np.linalg.norm(v))
    rec.check(
        iterations < LANCZOS["max_iter"]
        and resid <= 10 * LANCZOS["tol"] * max(abs(lam), 1.0),
        f"lanczos residual {resid:.3g} (lambda {lam:.6g}, {iterations} it)",
    )

    # -- matched ceiling and machine-drift control ----------------------
    ws_bytes = pj.nbytes + 16 * N
    tags = bound.variant.tags
    kernel_threads = os.cpu_count() if {"cnative", "numba"} & set(tags) else 1
    variant, tune_candidates = bound.variant_name, len(bound.tune_result.timings)
    stored_mb, pad_frac = pj.nbytes / 2**20, 1.0 - nnz / pj.stored_elements
    del bound, bcsr, par, pj, csr, matrix_in
    gc.collect()
    ceilings = {
        th: lib.bandwidth_ceiling(ws_bytes, th)
        for th in sorted({1, kernel_threads})
    }
    ceil = ceilings[kernel_threads]
    ref_t = lib.timed_loop(lambda: ref @ x, 0.05 * seconds, 5)
    # Eq. (1) minimum traffic: values + 32-bit indices once, x once, y
    # written with write-allocate; a lower bound, labelled "computed"
    spmv_bytes = nnz * 12 + 8 * N + 16 * N
    spmm_bytes = nnz * 12 + SPMM_COLS * 24 * N
    spmv_gbs = spmv_bytes / (spmv_ms / 1e3) / 1e9
    roofline = spmv_gbs / ceil["read_gbs"]
    rec.check(
        roofline <= 1.0 + ROOFLINE_TOL,
        f"invalid run: roofline_frac {roofline:.3f} > 1 + {ROOFLINE_TOL}",
    )

    rec.stamp.update(lib.provenance(ws_bytes))
    rec.stamp.update(peak.stamp(), peak_rss_worker_mb=round(worker_mb, 1))
    rec.stamp.update(
        matrix=f"HMEp/{SCALE} symmetrised",
        nrows=N,
        nnz=nnz,
        pjds_mib=round(stored_mb, 1),
        full_scale_working_set_bytes=ws_bytes * SCALE,
        tuned_variants=variants,
        variant=variant,
        kernel_threads=kernel_threads,
        ceilings=list(ceilings.values()),
        roofline_tolerance=ROOFLINE_TOL,
        lanczos_iterations=iterations,
        solve_s_each=[round(t, 4) for t in solve_t],
        rounds_redone_steal=guard.redone,
        samples={k: sum(map(len, v)) for k, v in
                 (("spmv", spmv_t), ("spmm", spmm_t), ("parallel", par_t))},
    )
    if not trace:
        return

    obs.disable()
    rec.put("formats.convert_s", lib.median(convert_s), "s")
    rec.put("formats.stored_mb", stored_mb, "MiB")
    rec.put("formats.pad_frac", pad_frac, "ratio")
    rec.put("engine.bind_s", lib.median(bind_s), "s")
    rec.put("engine.tune_candidates", tune_candidates, "count")
    rec.put("engine.tune_cache_hits", hits, "count")
    rec.put("kernels.spmv_ms", spmv_ms, "ms")
    rec.put("kernels.spmm8_ms", spmm_ms, "ms")
    rec.put("kernels.spmv_gbs_computed", spmv_gbs, "GB/s")
    rec.put("kernels.spmm8_gbs_computed", spmm_bytes / (spmm_ms / 1e3) / 1e9, "GB/s")
    rec.put("kernels.code_balance_bpf", spmv_bytes / (2 * nnz), "B/flop")
    rec.put("kernels.read_gbs", ceil["read_gbs"], "GB/s")
    rec.put("kernels.triad_gbs", ceil["triad_gbs"], "GB/s")
    rec.put("kernels.roofline_frac", roofline, "ratio")
    rec.put("kernels.scipy_ref_ms", lib.median(ref_t) * 1e3, "ms")
    rec.put("solvers.iterations", iterations, "count")
    rec.put("solvers.spmv_count", spmv_count, "count")
    rec.put("solvers.kernel_frac", spmv_count * spmv_ms / 1e3 / solve_s, "ratio")
    rec.put("engine.parallel.spmv_ms", par_ms, "ms")
    rec.put("engine.parallel.speedup", lib.median(ser_t) * 1e3 / par_ms, "ratio")
    rec.put("engine.parallel.setup_s", lib.median(par_start_s), "s")
    rec.put("obs.trace_overhead_frac", spmv_ms / (lib.median(untraced_t) * 1e3) - 1.0,
            "ratio")
