#!/usr/bin/env python3
"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload lanczos-memres --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The runner builds nothing itself: it
imports the checkout's ``src/`` (and exits non-zero when there is
none), compiles the optional C kernels once per checkout into
``.perfbench/warm`` (users compile once per machine), and gives every
run a fresh ``REPRO_CACHE_DIR`` holding that compiled library and an
empty tuner store (users tune every new matrix).

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics; the last stdout line is the JSON
result.  Every answer the program returns is checked; a wrong answer
counts as failed, and any failure makes the exit code non-zero.
The line before it carries the provenance and regime stamp.

Every workload reports every end-to-end metric, each measured on that
workload's own path:

=================  =====================  =======================  ========================
metric             lanczos-memres         serve-open               http-fleet
=================  =====================  =======================  ========================
setup_s            convert + cold bind +  convert + server +       CLI start to the first
                   ParallelSpMV start to  registration to the      answer of each matrix
                   the first answers      first answers
peak_rss_mb        program process +      program process through  server + shard processes
                   its workers' own pages its first set-up
solve_s            Lanczos to tol 1e-8,   256 large requests       /v1/solve CG round trip
                   one per set-up         drained at once          (beside connection A)
lat_p50_ms.low     BoundMatrix.spmv       request at 400 rps,      /v1/spmv round trip,
                                          from its due time        connection A alone
lat_tail_ms.low    p90 of the same        p90 of the same          p90 of the same
lat_p50_ms.high    BoundMatrix.spmm,      request at 800 rps,      /v1/spmv round trip
                   8 columns              from its due time        beside the solves
lat_tail_ms.high   p75 of the same        p90 of the same          p90 of the same
throughput_rps     ParallelSpMV products  requests/s with the      /v1/spmv replies/s
                   per second, 2 workers  admission queue full     beside the solves
=================  =====================  =======================  ========================

In-process peaks count what the program adds to the benchmark's own
inputs and references, plus the inputs it was handed (``lib.ProgramPeak``).

Timed work runs in rounds and a figure is the median over rounds of
each round's percentile, so a burst of host noise moves one round
only; the tail percentile is fixed per workload so that, over all
rounds, at least ten samples lie beyond it.  Failed or wrong answers
are the result's ``failed`` count, out of ``attempted``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = {
    "lanczos-memres": "lanczos_memres",
    "serve-open": "serve_open",
    "http-fleet": "http_fleet",
}
#: a run must end within 180 s; stop cleanly before that
DEADLINE_S = 165
#: every CPU spins this long before a workload starts: after an idle
#: spell this host's virtual CPUs come back slowly, and the tuner's cold
#: race (OpenMP on all cores against one thread) then picked another
#: variant than in back-to-back runs
WARM_CPUS_S = 3.0
#: Linux prctl option: orphaned descendants are re-parented to this
#: process, so it can wait for every one of them
PR_SET_CHILD_SUBREAPER = 36
STOP_TIMEOUT_S = 3.0


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline(f"run exceeded {DEADLINE_S} s")


def _fresh_cache_dir() -> Path:
    """Per-run ``REPRO_CACHE_DIR``: warm compiled kernels, no tuner store."""
    warm = STATE / "warm"
    if not (warm / "compiled").is_dir():
        subprocess.run(
            [sys.executable, "-c", "import repro.kernels.compiled"],
            env={**os.environ, "REPRO_CACHE_DIR": str(warm)},
            check=True,
            timeout=600,
            stdout=subprocess.DEVNULL,
        )
    run_dir = STATE / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    if (warm / "compiled").is_dir():
        shutil.copytree(warm / "compiled", run_dir / "compiled")
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def _warm_cpus(seconds: float) -> None:
    spin = f"import time\nend = time.perf_counter() + {seconds}\n" \
           "while time.perf_counter() < end:\n    pass\n"
    procs = [subprocess.Popen([sys.executable, "-c", spin]) for _ in range(os.cpu_count())]
    for p in procs:
        p.wait()


def _become_subreaper() -> None:
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The program's worker processes are joined through multiprocessing;
    anything else left under this process (a server's orphaned shards
    after a failed run) is killed and reaped.  Last, the multiprocessing
    resource tracker that the program's shared-memory segments started
    is closed and waited for: left alone it outlives the run by a moment.
    """
    import lib

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(STOP_TIMEOUT_S)
    tracker = resource_tracker._resource_tracker
    me = os.getpid()
    end = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < end:
        others = [p for p in lib.process_tree(me)[1:] if p != tracker._pid]
        if not others:
            break
        for pid in others:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        for pid in others:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass  # not ours until its parent has gone
        time.sleep(0.05)
    try:
        tracker._stop()
    except ChildProcessError:
        pass


def _variant_differs(workload: str, variant: str) -> bool:
    """Count the tuner's choice across this checkout's runs and tell
    whether this run's differs from the most common one (flagged, never
    pinned: a pinned variant would measure a different program)."""
    path = STATE / "variants.json"
    try:
        seen = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        seen = {}
    counts = seen.setdefault(workload, {})
    counts[variant] = counts.get(variant, 0) + 1
    path.write_text(json.dumps(seen, indent=1), encoding="utf-8")
    return variant != max(counts, key=counts.get)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # fixed before NumPy loads: the program's default thread count here
    os.environ["OMP_NUM_THREADS"] = str(os.cpu_count())
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    STATE.mkdir(exist_ok=True)
    run_dir = _fresh_cache_dir()
    os.environ["REPRO_CACHE_DIR"] = str(run_dir)

    import lib

    rec = lib.Recorder()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        _warm_cpus(WARM_CPUS_S)
        module = importlib.import_module(WORKLOADS[args.workload])
        module.run(rec, args.seed, args.seconds, bool(args.trace))
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if args.trace:
        for name in units:
            if name not in rec.metrics:
                reason = next(
                    (r for p, r in module.ABSENT.items() if name.startswith(p)),
                    "layer does not run in this workload",
                )
                rec.put_absent(name, units[name], reason)
    missing = sorted(set(units) - set(rec.metrics))
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    for name, unit in units.items():
        if rec.metrics[name]["unit"] != unit:
            raise RuntimeError(f"{name}: unit {rec.metrics[name]['unit']} != {unit}")

    rec.stamp.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, failures=rec.failures, absent=rec.absent,
    )
    if "variant" in rec.stamp:
        rec.stamp["variant_differs_from_mode"] = _variant_differs(
            args.workload, json.dumps(rec.stamp["variant"], sort_keys=True)
        )
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: rec.metrics[k] for k in units},
    }
    for line in rec.failures:
        print(f"FAILED: {line}", file=sys.stderr)
    print("stamp " + json.dumps(rec.stamp, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    _become_subreaper()
    try:
        code = main()
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except BaseException:
        traceback.print_exc()
        code = 1
    _stop_children()
    sys.stdout.flush()
    sys.stderr.flush()
    # no interpreter teardown: a finalizer releasing shared memory there
    # would start the resource tracker again after it was stopped
    os._exit(code)
