"""Lanczos eigensolver — the HMEp motivation of the paper.

The HMEp matrix "originates from the quantum-mechanical description
... of a one-dimensional solid"; the solvers consuming it are sparse
eigensolvers whose cost is dominated by spMVM.  This module provides a
Lanczos iteration with partial reorthogonalisation (Simon, Math. Comp.
42, 1984) for extremal eigenvalues of symmetric matrices, running
entirely in the permuted basis.

Reorthogonalising every step against the whole basis costs O(m^2 n)
memory traffic next to the O(m nnz) of the products, so the solver
would no longer be spMVM-bound.  Instead Simon's scalar recurrence
tracks the loss of orthogonality ``omega_i ~ <v_{j+1}, v_i>`` from the
alphas and betas already at hand, and the basis is swept (classical
Gram-Schmidt, applied twice) only when ``max |omega| > sqrt(eps)``: at
that step and the next.  The basis stays semi-orthogonal, which is
enough for ghost-free Ritz values and a valid ``|beta * s_last|``
residual (Paige; Simon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.formats.base import SparseMatrixFormat
from repro.ops.protocol import CountingOperator, solver_operator
from repro.utils.validation import check_positive_int

__all__ = ["LanczosResult", "lanczos"]

_EPS = np.finfo(np.float64).eps
#: reorthogonalise once the estimated loss of orthogonality passes this
_SEMI_ORTHOGONAL = np.sqrt(_EPS)


@dataclass(frozen=True)
class LanczosResult:
    """Extremal Ritz values/vectors of one Lanczos run."""

    eigenvalues: np.ndarray  # ascending Ritz values
    eigenvectors: np.ndarray  # (n, k) Ritz vectors, original basis
    iterations: int
    residual_norms: np.ndarray  # ||A v - lambda v|| per returned pair
    spmv_count: int
    reorthogonalizations: int  # steps that swept the whole stored basis

    @property
    def ground_state_energy(self) -> float:
        """Smallest Ritz value (physics vocabulary of the HMEp use case)."""
        return float(self.eigenvalues[0])


def lanczos(
    matrix: SparseMatrixFormat,
    *,
    num_eigenvalues: int = 1,
    max_iter: int = 200,
    tol: float = 1e-8,
    seed: int = 0,
    v0: np.ndarray | None = None,
    engine: bool = False,
) -> LanczosResult:
    """Compute the smallest ``num_eigenvalues`` of a symmetric matrix.

    Partial reorthogonalisation keeps the basis semi-orthogonal
    (``|<v_i, v_j>| <= sqrt(eps)``); convergence is declared when every
    requested Ritz pair's residual ``|beta * s_last|`` falls below
    ``tol * |theta|``.  Invariant-subspace breakdown is judged relative
    to a running ``||T||`` estimate, so the iteration is scale-free.
    A step allocates no n-sized array: the operator writes into the
    next basis row and the recurrence updates it in place.  The Ritz
    pairs come from a tridiagonal eigensolver that computes only the
    ``num_eigenvalues`` smallest, O(m k) a step instead of O(m^3).
    ``engine=True`` runs the iteration through the autotuned
    :mod:`repro.engine` kernels.

    Raises ``ValueError`` for a ``v0`` of the wrong shape, with
    non-finite entries, or equal to zero.
    """
    # scipy.linalg costs 0.1 s and 6 MiB to import; only this solver uses it
    from scipy.linalg import eigh_tridiagonal

    op = CountingOperator(solver_operator(matrix, engine=engine))
    n = op.size
    k = check_positive_int(num_eigenvalues, "num_eigenvalues")
    max_iter = min(check_positive_int(max_iter, "max_iter"), n)
    if k > max_iter:
        raise ValueError(
            f"num_eigenvalues={k} exceeds the subspace bound max_iter={max_iter}"
        )
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    if v0 is None:
        v = np.random.default_rng(seed).standard_normal(n).astype(op.dtype)
    else:
        v = op.enter(_start_vector(v0, n))
    v = v / np.linalg.norm(v)

    # rows are touched lazily: only the rows the iteration reaches are paged in
    V = np.zeros((max_iter + 1, n), dtype=np.float64)
    V[0] = v
    x_in = None if op.dtype == V.dtype else np.empty(n, dtype=op.dtype)
    tmp = np.empty(n)  # scratch: the vector updates run in place
    alphas = np.empty(max_iter)
    betas = np.empty(max_iter)
    # omega[i] ~ <v_j, v_i> and omega_prev[i] ~ <v_{j-1}, v_i>
    omega = np.zeros(max_iter + 1)
    omega_prev = np.zeros(max_iter + 1)
    omega[0] = 1.0
    # after a sweep the overlaps are eps in size with no sign pattern; a
    # flat reset would leave alternating modes of the recurrence unseeded
    reset = _EPS * np.random.default_rng(0).choice([-1.0, 1.0], size=max_iter)
    eps1 = np.sqrt(n) * _EPS  # rounding level of one Lanczos step
    anorm = 0.0  # running Gershgorin bound on ||T||
    reorths = 0
    again = False  # a sweep is due at the step after a triggered one

    for j in range(max_iter):
        m = j + 1
        w = V[m]
        if x_in is None:
            x = V[j]
        else:
            x_in[:] = V[j]
            x = x_in
        op.apply(x, out=w)
        a = _dot(V[j], w)
        w -= np.multiply(V[j], a, out=tmp)
        b_prev = betas[j - 1] if j else 0.0
        if j:
            w -= np.multiply(V[j - 1], b_prev, out=tmp)
        b = np.sqrt(_dot(w, w))
        alphas[j] = a
        anorm = max(anorm, abs(a) + b_prev + b)
        breakdown = b <= eps1 * anorm  # invariant subspace found

        if not breakdown:
            omega, omega_prev = _next_omega(
                omega, omega_prev, alphas, betas, j, b, eps1 * anorm
            ), omega
            if again or np.abs(omega[:m]).max() > _SEMI_ORTHOGONAL:
                # classical Gram-Schmidt, twice, against v_0 .. v_j
                for _ in range(2):
                    w -= np.matmul(V[:m] @ w, V[:m], out=tmp)
                b = np.sqrt(_dot(w, w))
                omega[:m] = reset[:m]
                reorths += 1
                again = not again
                breakdown = b <= eps1 * anorm

        theta, S = eigh_tridiagonal(
            alphas[:m], betas[:j], select="i", select_range=(0, min(k, m) - 1)
        )
        if m >= k:
            resid = np.abs(b * S[-1])
            if obs.enabled():
                obs.set_gauge(
                    "solver_residual", float(resid.max()), solver="lanczos"
                )
                obs.inc("solver_iterations_total", 1, solver="lanczos")
            if np.all(resid <= tol * np.maximum(np.abs(theta), _EPS * anorm)):
                break
        elif obs.enabled():
            obs.inc("solver_iterations_total", 1, solver="lanczos")
        if breakdown:
            break
        betas[j] = b
        w *= 1.0 / b

    ritz_vecs_perm = S.T @ V[:m]  # (kk, n)
    kk = theta.size
    residuals = np.empty(kk)
    vecs = np.empty((n, kk), dtype=op.dtype)
    for i in range(kk):
        u = ritz_vecs_perm[i] / np.linalg.norm(ritz_vecs_perm[i])
        au = op.apply(u.astype(op.dtype)).astype(np.float64)
        residuals[i] = float(np.linalg.norm(au - theta[i] * u))
        vecs[:, i] = op.leave(u.astype(op.dtype))

    op.publish("lanczos")
    if obs.enabled():
        obs.inc("solver_reorth_total", reorths, solver="lanczos")
    return LanczosResult(
        eigenvalues=theta.copy(),
        eigenvectors=vecs,
        iterations=m,
        residual_norms=residuals,
        spmv_count=op.count,
        reorthogonalizations=reorths,
    )


def _start_vector(v0, n: int) -> np.ndarray:
    """Validate a caller's start vector; scaled so its norm cannot overflow."""
    v0 = np.asarray(v0)
    if v0.shape != (n,):
        raise ValueError(f"v0 must have shape ({n},), got {v0.shape}")
    if not np.all(np.isfinite(v0)):
        raise ValueError("v0 must be finite")
    peak = np.abs(v0).max()
    if peak == 0:
        raise ValueError("v0 must be non-zero")
    return v0 / peak


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x @ y`` in NumPy's own loop, not the threaded BLAS ``ddot``.

    Waking the BLAS worker threads costs more than one n-vector product
    itself: 8 ms against 0.9 ms at n = 775,200 on a 2-vCPU Xeon.
    """
    return float(np.einsum("i,i->", x, y))


def _next_omega(omega, omega_prev, alphas, betas, j, b, noise):
    """Simon's recurrence: estimates of ``<v_{j+1}, v_i>``, i <= j + 1.

    ``omega``/``omega_prev`` hold the estimates for ``v_j``/``v_{j-1}``;
    the result is written over ``omega_prev``.  ``noise`` bounds one
    step's rounding, ``sqrt(n) * eps * ||A||`` (an n-term inner product
    behind each entry); it is added with the sign that makes the
    estimate pessimistic.
    """
    out = omega_prev
    if j:
        t = (
            betas[:j] * omega[1 : j + 1]
            + (alphas[:j] - alphas[j]) * omega[:j]
            - betas[j - 1] * omega_prev[:j]
        )
        t[1:] += betas[: j - 1] * omega[: j - 1]
        out[:j] = (t + np.copysign(noise, t)) / b
    out[j] = noise / b
    out[j + 1] = 1.0
    return out
