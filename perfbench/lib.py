"""Shared benchmark plumbing: result recording, statistics, memory,
the matched bandwidth ceiling and the provenance/regime stamp."""

from __future__ import annotations

import os
import platform
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: unit roundoff of float64; gamma_k = k*u / (1 - k*u) bounds a k-term dot
U64 = 2.0**-53


class Recorder:
    """Answer checks plus the metrics one invocation reports.

    ``check`` is called from server callbacks and client threads too,
    so the counters sit behind a lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.absent: dict[str, str] = {}
        self.stamp: dict = {}

    def check(self, ok: bool, what: str, n: int = 1) -> bool:
        """Count ``n`` answers; a wrong answer counts as a failure."""
        with self._lock:
            self.attempted += n
            if not ok:
                self.failed += n
                if len(self.failures) < 20:
                    self.failures.append(what)
        return ok

    def fail(self, what: str, n: int = 1) -> None:
        self.check(False, what, n)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def put_absent(self, name: str, unit: str, reason: str) -> None:
        """A per-layer metric this workload cannot produce: reported as 0
        with the reason in the stamp, never as a made-up measurement."""
        self.put(name, 0.0, unit)
        self.absent[name] = reason


def gamma(k: int) -> float:
    return k * U64 / (1.0 - k * U64)


def within_bound(y, ref, bound, scratch=None) -> bool:
    """``|y - ref| <= bound`` elementwise (the gamma_k |A||x| contract).

    ``scratch`` (shaped like ``ref``) holds the difference, so a check
    inside a measured region allocates nothing; a NaN fails the check.
    """
    y = np.asarray(y)
    if y.shape != ref.shape:
        return False
    d = np.subtract(y, ref, out=scratch)
    np.abs(d, out=d)
    d -= bound
    return bool(d.max(initial=-np.inf) <= 0.0)


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50)


def round_median(rounds, q: float) -> float:
    """Median over rounds of each round's ``q``-th percentile: a burst of
    host noise that hits one round does not move it."""
    return median([pct(r, q) for r in rounds])


def timed_loop(fn, seconds: float, min_calls: int, check=None) -> list[float]:
    """Time ``fn`` until ``seconds`` passed and ``min_calls`` were made;
    each answer goes to ``check`` outside the timed region."""
    times: list[float] = []
    end = time.perf_counter() + seconds
    while len(times) < min_calls or time.perf_counter() < end:
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
        if check is not None:
            check(out)
    return times


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def _status_kb(pid, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ProgramPeak:
    """Peak resident memory this process adds once the benchmark's own
    data exists.

    Built after the inputs and every reference answer are in memory: it
    restarts the peak-RSS counter (Linux ``clear_refs`` 5) and records
    the RSS of that moment.  ``mb`` is the peak since, minus that
    baseline, plus ``input_bytes`` (the inputs the program was handed),
    so input synthesis and the benchmark's references are not charged
    to the program.  ``ok`` is False where the kernel refuses the
    restart; ``mb`` then fails the run.
    """

    def __init__(self, input_bytes: int) -> None:
        try:
            with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
                fh.write("5")
            self.ok = True
        except OSError:
            self.ok = False
        self.base_kb = _status_kb("self", "VmRSS")
        self.input_bytes = int(input_bytes)

    def mb(self) -> float:
        if not self.ok:
            raise RuntimeError("cannot restart the peak-RSS counter")
        grown = _status_kb("self", "VmHWM") - self.base_kb
        return grown / 1024.0 + self.input_bytes / 2**20

    def stamp(self) -> dict:
        return {"peak_rss_baseline_mb": round(self.base_kb / 1024.0, 1),
                "peak_rss_input_mb": round(self.input_bytes / 2**20, 1)}


def peak_rss_mb(pids=("self",)) -> float:
    """Sum of the peak resident sets (VmHWM) of ``pids``, in MiB."""
    return sum(_status_kb(p, "VmHWM") for p in pids) / 1024.0


def cpu_steal_s() -> float:
    """CPU seconds the hypervisor has taken from this machine's virtual
    CPUs so far, summed over CPUs (the ``steal`` column of /proc/stat)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class StealGuard:
    """Measures a round again while the hypervisor took more than
    ``LIMIT`` of the CPUs during it, at most ``budget`` times a run.

    On a shared host a neighbour's burst takes whole vCPUs away for
    seconds; a round timed then measures the neighbour, not the program.
    Once the budget is spent every round is kept, so a run in a long
    noisy spell still reports what it saw; ``redone`` (the steal share
    of each discarded round) goes to the stamp.
    """

    LIMIT = 0.03

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.redone: list[float] = []

    def run(self, fn):
        while True:
            s0, t0 = cpu_steal_s(), time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t0
            share = (cpu_steal_s() - s0) / (wall * (os.cpu_count() or 1))
            if share <= self.LIMIT or len(self.redone) >= self.budget:
                return out
            self.redone.append(round(share, 3))


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children", encoding="ascii") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
    return out


# ---------------------------------------------------------------------------
# matched bandwidth ceiling
# ---------------------------------------------------------------------------

_BLOCK = 1 << 17  # elements per triad block: the temp stays in L2


def _run_threads(work, nthreads: int, n: int) -> float:
    bounds = np.linspace(0, n, nthreads + 1).astype(np.int64)
    start = threading.Barrier(nthreads + 1)
    done = threading.Barrier(nthreads + 1)

    def body(lo, hi):
        start.wait()
        work(lo, hi)
        done.wait()

    threads = [
        threading.Thread(target=body, args=(int(bounds[i]), int(bounds[i + 1])))
        for i in range(nthreads)
    ]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    done.wait()
    dt = time.perf_counter() - t0
    for t in threads:
        t.join()
    return dt


def bandwidth_ceiling(nbytes: int, nthreads: int, reps: int = 7) -> dict:
    """Read-dominant stream and a triad, each touching ``nbytes`` in
    total, split across ``nthreads`` threads (ufuncs release the GIL).

    Returns the best-of-``reps`` GB/s of each: the read stream moves 8
    bytes per element, the triad ``a = b + s*c`` 24 (write-allocate
    not counted, the STREAM convention).
    """
    n = max(nbytes // 8, 3 * _BLOCK)
    a = np.ones(n)
    sink = np.zeros(nthreads)

    def read(lo, hi):
        # a SIMD min-reduction streams at the load bandwidth; a sum is
        # bound by its pairwise-add chain on this class of core
        sink[0] += np.minimum.reduce(a[lo:hi])

    best_read = min(_run_threads(read, nthreads, n) for _ in range(reps))
    read_bytes = n * 8
    n //= 3
    a = np.ones(n)
    b = np.full(n, 2.0)
    c = np.full(n, 0.5)

    def triad(lo, hi):
        tmp = np.empty(_BLOCK)
        for s in range(lo, hi, _BLOCK):
            e = min(s + _BLOCK, hi)
            t = tmp[: e - s]
            np.multiply(c[s:e], 3.0, out=t)
            np.add(t, b[s:e], out=a[s:e])

    best_triad = min(_run_threads(triad, nthreads, n) for _ in range(reps))
    return {
        "threads": nthreads,
        "bytes": read_bytes,
        "read_gbs": read_bytes / best_read / 1e9,
        "triad_gbs": n * 24 / best_triad / 1e9,
    }


# ---------------------------------------------------------------------------
# provenance / regime stamp
# ---------------------------------------------------------------------------

def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="ascii").strip()
    except OSError:
        return ""


def cache_sizes() -> dict[str, int]:
    """Data/unified cache sizes of cpu0 by level, in bytes."""
    out: dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        if _read(idx / "type") == "Instruction":
            continue
        size = _read(idx / "size")
        mult = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        digits = size.rstrip("KMG")
        if digits.isdigit():
            out[f"L{_read(idx / 'level')}"] = int(digits) * mult
    return out


def _cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD commit when the checkout is a git work tree, else ``unknown``."""
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]) or "unknown"
    return head or "unknown"


def provenance(working_set_bytes: int | None = None) -> dict:
    """Machine, software and regime stamp attached to every result."""
    import scipy

    from repro.ops import backend_status

    caches = cache_sizes()
    llc = caches[max(caches)] if caches else 0
    stamp = {
        "commit": _commit(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "caches_bytes": caches,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend_status": backend_status(),
    }
    if working_set_bytes is not None:
        stamp["working_set_bytes"] = int(working_set_bytes)
        stamp["llc_bytes"] = llc
        stamp["working_set_over_llc"] = round(working_set_bytes / llc, 3) if llc else None
        # memory regime: working set >= 4x LLC; cache regime: <= L2/2;
        # anything between is reported as such, not rounded to either
        l2 = caches.get("L2", 0)
        if llc and working_set_bytes >= 4 * llc:
            stamp["regime"] = "memory"
        elif l2 and working_set_bytes <= l2 // 2:
            stamp["regime"] = "cache"
        else:
            stamp["regime"] = "between-cache-and-memory"
    return stamp
