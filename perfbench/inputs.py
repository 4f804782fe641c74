"""Seeded input synthesis for the benchmark.

The benchmark owns its inputs: the generators below re-create the
paper-suite structures (HMEp's matrix-wide off-diagonals, sAMG's
long-tail row lengths) without calling the program's own generators,
so a change to ``repro.matrices`` cannot silently change a workload.
Every generator returns a sorted CSR triplet ``(indptr, indices,
data)``; the workloads hand the program a ``COOMatrix`` (or a Matrix
Market file) built from it, and keep the triplet as their reference.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# paper dimensions (Sect. I-C); workloads take a 1/scale share
HMEP_DIM = 6_201_600
SAMG_DIM = 3_405_035


def hmep(n: int, seed: int, *, symmetric: bool):
    """HMEp-like Hamiltonian: row ``i`` uses the first ``k_i`` of 23
    matrix-wide off-diagonals, ``k`` constant on plateaus of 192-576
    rows and swinging between 5 and 23 (mean ~14).

    ``symmetric`` returns ``0.5 * (A + A^T)`` as the eigensolver
    example does; the union pattern stays on the same 23 diagonals.
    """
    rng = np.random.default_rng(seed)
    sa, sb, sc = max(n // 414, 2), max(n // 50, 4), max(n // 7, 6)
    offsets = np.array(
        [0, 1, -1, sa, -sa, 2, -2, sb, -sb, 3, -3, sa + 1, -sa - 1,
         sc, -sc, 4, -4, sb + 2, -sb - 2, 2 * sa, -2 * sa, 5, -5],
        dtype=np.int64,
    )
    if np.unique(offsets).size != offsets.size:
        raise ValueError(f"n={n} is too small for distinct HMEp offsets")
    nd = offsets.size
    nseg = -(-n // 192)
    seg_len = rng.integers(192, 577, size=nseg)
    s = np.arange(nseg)
    seg_k = np.clip(
        np.rint(14.0 + 7.0 * np.sin(2.0 * np.pi * s / 32.0)
                + rng.normal(0.0, 1.0, size=nseg)),
        5, nd,
    ).astype(np.int64)
    k = np.repeat(seg_k, seg_len)[:n]
    # vals[i, m] is entry (i, i + offsets[m]) of A
    vals = rng.standard_normal((n, nd))
    vals[vals == 0.0] = 1.0

    slot_of = {int(d): m for m, d in enumerate(offsets)}
    order = np.argsort(offsets)  # ascending columns within a row
    i = np.arange(n, dtype=np.int64)
    keep = np.empty((n, nd), dtype=bool)
    data = np.empty((n, nd))
    for slot, m in enumerate(order):
        d = int(offsets[m])
        j = i + d
        inside = (j >= 0) & (j < n)
        in_a = inside & (m < k)
        if symmetric:
            mt = slot_of[-d]
            jc = np.clip(j, 0, n - 1)
            in_at = inside & (mt < k[jc])
            keep[:, slot] = in_a | in_at
            data[:, slot] = 0.5 * (
                np.where(in_a, vals[:, m], 0.0) + np.where(in_at, vals[jc, mt], 0.0)
            )
        else:
            keep[:, slot] = in_a
            data[:, slot] = np.where(in_a, vals[:, m], 0.0)
    del vals
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    cols = np.empty((n, nd), dtype=np.int64)
    np.add(i[:, None], offsets[order][None, :], out=cols)
    return indptr, cols[keep], data[keep]


def samg(n: int, seed: int):
    """sAMG-like multigrid operator: row lengths 5..22 with a geometric
    tail over a smooth, mostly monotone degree field (+-2 jitter), and
    distinct columns inside a band of width ``max(n // 30, 30)``."""
    rng = np.random.default_rng(seed)
    window = min(max(n // 100, 64), max(n // 2, 1))
    cum = np.cumsum(rng.standard_normal(n + window))
    field = cum[window:] - cum[:-window]
    field /= max(float(np.abs(field).max()), 1e-12)
    score = np.arange(n) / n + 0.08 * field
    rank = np.empty(n)
    rank[np.argsort(score, kind="stable")] = (np.arange(n) + 0.5) / n
    tail = np.floor(np.log1p(-(1.0 - rank)) / np.log(1.0 - 0.327)).astype(np.int64)
    jitter = rng.choice([-2, -1, 0, 1, 2], size=n, p=[0.15, 0.2, 0.3, 0.2, 0.15])
    lengths = np.clip(5 + np.minimum(tail, 17) + jitter, 5, 22)

    bw = min(max(n // 30, 30), n)
    rows = np.repeat(np.arange(n, dtype=np.int64), lengths)
    lo = np.clip(rows - bw // 2, 0, n - bw)
    cols = lo + rng.integers(0, bw, size=rows.size)
    # redraw duplicate (row, col) pairs until every row is distinct
    for _ in range(200):
        key = rows * n + cols
        order = np.argsort(key, kind="stable")
        dup = np.zeros(rows.size, dtype=bool)
        dup[order[1:]] = key[order[1:]] == key[order[:-1]]
        if not dup.any():
            break
        cols[dup] = lo[dup] + rng.integers(0, bw, size=int(dup.sum()))
    else:
        raise RuntimeError("could not draw distinct sAMG columns")
    order = np.lexsort((cols, rows))
    data = rng.standard_normal(rows.size)
    data[data == 0.0] = 1.0
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr, cols[order], data


def poisson2d(m: int):
    """5-point Laplacian on an ``m x m`` grid (SPD, CG-friendly)."""
    n = m * m
    idx = np.arange(n, dtype=np.int64)
    r, c = idx // m, idx % m
    parts = [(idx, idx, np.full(n, 4.0))]
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        ok = (r + dr >= 0) & (r + dr < m) & (c + dc >= 0) & (c + dc < m)
        parts.append((idx[ok], idx[ok] + dr * m + dc, np.full(int(ok.sum()), -1.0)))
    rows = np.concatenate([p[0] for p in parts])
    cols = np.concatenate([p[1] for p in parts])
    vals = np.concatenate([p[2] for p in parts])
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], vals[order]


def csr_rows(indptr: np.ndarray) -> np.ndarray:
    """Row index of every stored entry."""
    return np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))


def write_mtx(path: Path, indptr, indices, data, ncols: int) -> None:
    """Matrix Market coordinate file; ``%.17g`` round-trips every double."""
    nrows = indptr.size - 1
    body = np.column_stack([csr_rows(indptr) + 1, indices + 1, data])
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{nrows} {ncols} {data.size}\n")
        np.savetxt(fh, body, fmt=("%d", "%d", "%.17g"))
