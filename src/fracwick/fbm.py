"""Exact-law fractional Brownian motion on finite grids.

Three samplers, one law: dense Cholesky (any grid), circulant embedding
(uniform grids, O(n log n): a real inverse FFT of the half spectrum, with
the draw layout of the full Hermitian one), and the Durbin-Levinson
recursion (uniform grids, O(n^2) reference). They share one batched core,
`ensemble_values`, which puts replication i in row i, drawn from stream i
of `rng.SeedSpec`; a single path is a one-row slice of an ensemble. Rows
are drawn and transformed a row block at a time on the worker pool, over a
partition that the grid (and a consumer's minimum row count) alone fixes,
so no value depends on the thread count. Each worker reuses one set of
block buffers, and each block is handed to the caller's consumer, which
keeps what it needs; so peak memory is one block per worker plus what the
consumer keeps. Each block's normals come from one
`rng.standard_normal_rows` call, which keys all the block's streams at
once and gives the bits of one fresh generator per stream.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmbeddingFailureError, SingularCovarianceError
from .grids import TimeGrid
from .pool import run_tasks
from .rng import standard_normal_rows

GENERATOR_NAMES = ("cholesky", "circulant", "hosking")

# Jitter schedule for near-singular covariance factorizations: start at
# 1e-12 relative to the largest diagonal entry, escalate by 10x, give up
# beyond 1e-8 relative.
_JITTER_START_REL = 1e-12
_JITTER_MAX_REL = 1e-8

# Circulant eigenvalues more negative than this (relative to the largest
# eigenvalue) mean the embedding genuinely failed; smaller negatives are
# rounding dust and are clamped to zero.
_EMBED_REL_TOL = 1e-9

# Path-matrix cells per sampler row block. Every consumer works on the
# sampler's blocks as they come (the checks, Picard, `generate`), so this
# budget sizes their temporaries too. A block temporary of 2**16 float64
# cells is 512 KiB, so the working set of one block stays in a core's L2
# cache. Measured on a 2-core Xeon with 2 MiB of L2 per core, the fastest
# residual blocks were 2**14 to 2**16 cells at every grid size, 8-16 rows
# at grid_n = 4096 (256 rows took 1.9x as long); for the sampler, budgets
# from 2**15 to 2**20 cells were within 10% of each other.
_BLOCK_CELLS = 2**16


@dataclass(frozen=True)
class HurstParameter:
    """Hurst exponent in (0, 1); > 1/2 is the long-memory regime."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not 0.0 < v < 1.0:
            raise ValueError(f"Hurst parameter must lie in (0, 1), got {v}")
        object.__setattr__(self, "value", v)

    @property
    def is_long_memory(self) -> bool:
        return self.value > 0.5


def covariance_grid(points: np.ndarray, h: HurstParameter) -> np.ndarray:
    """Matrix of R(p_i, p_j) over an array of nonnegative times, with
    R(s, t) = (t^2H + s^2H - |t - s|^2H) / 2 the fBm covariance; it
    reduces to min(s, t) at H = 1/2."""
    p = np.asarray(points, dtype=float)
    if np.any(p < 0):
        raise ValueError("covariance is defined for nonnegative times")
    two_h = 2.0 * h.value
    pw = p**two_h
    return 0.5 * (pw[:, None] + pw[None, :] - np.abs(p[:, None] - p[None, :]) ** two_h)


class CovarianceMatrix:
    """Covariance of (W_{t_1}, ..., W_{t_n}) on a grid (t_0 = 0 excluded).

    The Cholesky factor is computed lazily with the jitter schedule and
    cached together with the jitter that was actually needed.
    """

    def __init__(self, grid: TimeGrid, h: HurstParameter):
        self.grid = grid
        self.h = h
        self.matrix = covariance_grid(grid.points[1:], h)
        self._chol: np.ndarray | None = None
        self.jitter_used: float = 0.0

    def cholesky(self) -> np.ndarray:
        """Lower-triangular factor L with L L^T = matrix (+ recorded jitter)."""
        if self._chol is not None:
            return self._chol
        base = self.matrix
        max_diag = float(np.max(np.diag(base)))
        try:
            self._chol = np.linalg.cholesky(base)
            return self._chol
        except np.linalg.LinAlgError:
            pass
        jitter = _JITTER_START_REL * max_diag
        while jitter <= _JITTER_MAX_REL * max_diag * (1.0 + 1e-15):
            try:
                self._chol = np.linalg.cholesky(base + jitter * np.eye(base.shape[0]))
                self.jitter_used = jitter
                return self._chol
            except np.linalg.LinAlgError:
                jitter *= 10.0
        smallest = float(np.linalg.eigvalsh(base)[0])
        raise SingularCovarianceError(
            f"covariance not positive definite within the jitter schedule "
            f"(smallest eigenvalue {smallest:.3e}, largest diagonal {max_diag:.3e})"
        )


# ---------------------------------------------------------------------------
# fractional Gaussian noise machinery (uniform grids)
# ---------------------------------------------------------------------------


def fgn_autocovariance(n_lags: int, h: HurstParameter) -> np.ndarray:
    """Autocovariance gamma(0..n_lags-1) of unit-spacing, unit-variance fGn."""
    k = np.arange(n_lags, dtype=float)
    two_h = 2.0 * h.value
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


def circulant_eigenvalues(n: int, h: HurstParameter) -> np.ndarray:
    """Eigenvalues of the size-2n circulant embedding of the fGn covariance.

    Raises EmbeddingFailureError on a materially negative eigenvalue; tiny
    negatives (rounding) are clamped to zero. No automatic padding retry.
    """
    gamma = fgn_autocovariance(n + 1, h)
    first_row = np.concatenate([gamma[:-1], gamma[-1:], gamma[-2:0:-1]])
    lam = np.fft.fft(first_row).real
    lam_max = float(np.max(lam))
    lam_min = float(np.min(lam))
    if lam_min < -_EMBED_REL_TOL * lam_max:
        raise EmbeddingFailureError(
            f"circulant embedding has negative eigenvalue {lam_min:.3e} "
            f"(relative {lam_min / lam_max:.3e}) at n={n}, H={h.value}"
        )
    return np.clip(lam, 0.0, None)


def _circulant_fgn(lam: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Map a matrix of blocks (rows) of 2m standard normals to fGn rows.

    Draw layout per block of length 2m: z[0] feeds frequency 0, z[2k-1] and
    z[2k] feed frequency k for 1 <= k <= m-1, z[2m-1] feeds frequency m.
    Only the m+1 non-negative frequencies are filled, into the complex
    (rows, m+1) buffer a; the real inverse FFT of their conjugates
    is the real part of the forward FFT of the full Hermitian spectrum. It
    overwrites z, whose normals are spent by then. Returns the first m
    noise values of each row, a view of z.
    """
    big_m = lam.size
    m = big_m // 2
    scale = np.sqrt(lam[: m + 1] / (2.0 * big_m))
    scale[[0, m]] = np.sqrt(lam[[0, m]] / big_m)
    a.real[:, 0] = scale[0] * z[:, 0]
    # real parts of frequencies 1..m are z[1], z[3], ..., z[2m-1]
    np.multiply(z[:, 1::2], scale[1:], out=a.real[:, 1:])
    # conjugate: imaginary parts of frequencies 1..m-1 are -z[2], ..., -z[2m-2]
    np.multiply(z[:, 2 : 2 * m - 1 : 2], -scale[1:m], out=a.imag[:, 1:m])
    a.imag[:, [0, m]] = 0.0
    return np.fft.irfft(a, n=big_m, axis=1, norm="forward", out=z)[:, :m]


def hosking_coefficients(n: int, h: HurstParameter) -> tuple[list[np.ndarray], np.ndarray]:
    """Durbin-Levinson prediction coefficients and innovation variances.

    Sample-independent: phis[k] predicts noise value k from the k previous
    values (most recent first); v[k] is the conditional variance.
    """
    gamma = fgn_autocovariance(n, h)
    v = np.empty(n)
    v[0] = gamma[0]
    phis: list[np.ndarray] = [np.empty(0)]
    phi_prev = np.empty(0)
    for k in range(1, n):
        if k == 1:
            refl = gamma[1] / gamma[0]
        else:
            refl = (gamma[k] - phi_prev @ gamma[k - 1 : 0 : -1]) / v[k - 1]
        phi = np.empty(k)
        phi[:-1] = phi_prev - refl * phi_prev[::-1]
        phi[-1] = refl
        v[k] = v[k - 1] * (1.0 - refl * refl)
        phis.append(phi)
        phi_prev = phi
    return phis, v


def _hosking_fgn(phis: list[np.ndarray], v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Map a matrix of standard normals (rows = paths, columns = time) to
    unit-spacing fGn rows, in place: column k of z is read just before the
    noise value k takes its place. Returns z."""
    sig = np.sqrt(v)
    z[:, 0] *= sig[0]
    for k in range(1, v.size):
        # phis[k] weights the history most-recent-first
        z[:, k] = z[:, k - 1 :: -1] @ phis[k] + sig[k] * z[:, k]
    return z


# ---------------------------------------------------------------------------
# the sampler
# ---------------------------------------------------------------------------


def ensemble_values(
    method: str,
    grid: TimeGrid,
    h: HurstParameter,
    master_seed: int,
    n_paths: int,
    keep: Callable[[int, np.ndarray], object],
    min_rows: int = 1,
) -> list:
    """The list of keep(lo, block) over the row blocks of n_paths
    trajectories, in row order, row i on stream i.

    The only sampler; a single path is a one-row slice. Cholesky maps
    n normals per stream through the covariance factor (any grid);
    circulant draws 2n per stream and hosking n, and both sum the resulting
    unit-spacing noise scaled by dt^H (uniform grids only). Circulant
    transforms the half spectrum with a real inverse FFT; the draw layout
    is that of the full Hermitian spectrum.

    The set-up (factor, eigenvalues or prediction coefficients) is computed
    once per call. The rows are then drawn and transformed on the worker
    pool, max(block_rows(n + 1), min_rows) rows at a time from row 0, so
    the grid and min_rows alone fix the blocks and no value depends on the
    thread count. Each worker keeps one set of block buffers for all its
    blocks. block is the (rows, n + 1) value matrix of rows lo, lo + 1, ...
    in a worker's buffer, valid only during the call: keep copies or
    reduces what it needs, and nothing else is kept. min_rows serves a
    consumer whose own arithmetic wants blocks of at least that many rows
    (the isometry's matrix products run at full BLAS speed from 128 rows);
    only the last block may be shorter.

    Row i is drawn from its stream alone, so the first k rows of a larger
    ensemble are the k-path ensemble: bit for bit for circulant and
    hosking, which transform row by row, and to rounding for cholesky,
    whose matrix product may accumulate in an order the BLAS picks from
    the row count of the last block.
    """
    if method not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {method!r}; pick one of {GENERATOR_NAMES}")
    if n_paths < 1:
        raise ValueError("need at least one path")
    n = grid.n_intervals
    if method == "cholesky":
        chol_t = CovarianceMatrix(grid, h).cholesky().T
        draws = n
    else:
        if not grid.is_uniform():
            raise ValueError(f"{method} generator requires a uniform grid")
        step = (grid.horizon / n) ** h.value
        if method == "circulant":
            lam = circulant_eigenvalues(n, h)
            draws = 2 * n
        else:
            phis, v = hosking_coefficients(n, h)
            draws = n
    rows = min(max(block_rows(n + 1), min_rows), n_paths)
    local = threading.local()

    def buffers() -> dict:
        """This worker's block buffers, allocated at its first block."""
        if not hasattr(local, "buf"):
            local.buf = {"z": np.empty((rows, draws))}
            if method == "circulant":
                local.buf["spectrum"] = np.empty((rows, n + 1), dtype=complex)
            local.buf["w"] = np.empty((rows, n + 1))
            local.buf["w"][:, 0] = 0.0
        return local.buf

    def block(lo: int):
        buf = buffers()
        k = min(rows, n_paths - lo)
        z = standard_normal_rows(master_seed, lo, buf["z"][:k])
        w = buf["w"][:k]
        if method == "cholesky":
            np.matmul(z, chol_t, out=w[:, 1:])
        else:
            if method == "circulant":
                noise = _circulant_fgn(lam, z, buf["spectrum"][:k])
            else:
                noise = _hosking_fgn(phis, v, z)
            np.multiply(noise, step, out=noise)
            np.cumsum(noise, axis=1, out=w[:, 1:])
        return keep(lo, w)

    tasks = [lambda lo=lo: block(lo) for lo in range(0, n_paths, rows)]
    # Hosking's recursion is n small numpy calls per block, and threads
    # making them side by side queue on the interpreter lock (256 x 20000
    # on a 2-core Xeon: 0.72 s on one thread, 0.91-0.99 s on two), so its
    # blocks run on the calling thread
    return [task() for task in tasks] if method == "hosking" else run_tasks(tasks)


# glibc serves a request above its mmap threshold (128 KiB at start) from
# a fresh mapping, and hands a heap's free top back to the system once it
# exceeds the trim threshold. Freeing a mapped chunk above the mmap
# threshold raises that threshold to the chunk's size, up to 32 MiB, and
# the trim threshold to twice as much. A consumer's row-block temporaries
# die between blocks while the sampler's per-worker block buffers live on,
# so with the thresholds low the temporaries are mapped, or the heap
# trimmed, and faulted in again at every block: the verify-ito child at
# 4096 x 2000 took 214k minor faults, against 8.5k once one chunk of this
# size was mapped and freed before the first block, and the solve-sde
# picard child 86k-120k against 8.4k. The chunk is never written, so it
# costs no resident memory, and it bypasses Python's allocators, which
# would count its address space as traced memory.
_THRESHOLD_CHUNK = 16 * 2**20


def _lift_heap_thresholds() -> None:
    """Raise glibc's mmap and trim thresholds before a consumer's blocks.

    Callers opt in, because the raised trim threshold keeps up to 32 MiB of
    freed heap resident: the checks and Picard, whose block temporaries
    die between blocks, call it; `generate` and the stepping solvers' noise
    fill, whose peaks were measured without it, do not.
    """
    import ctypes  # here, so that runs that never lift the thresholds never load it

    try:
        libc = ctypes.CDLL(None)
        libc.malloc.restype = ctypes.c_void_p
        libc.malloc.argtypes = (ctypes.c_size_t,)
        libc.free.argtypes = (ctypes.c_void_p,)
    except (OSError, TypeError, AttributeError):
        return  # no C allocator to reach; the blocks only fault more
    libc.free(libc.malloc(_THRESHOLD_CHUNK))


def block_rows(row_cells: int) -> int:
    """Rows of row_cells cells each that fit the `_BLOCK_CELLS` budget."""
    return max(1, _BLOCK_CELLS // row_cells)


def empirical_covariance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample covariance E[V_i V_j] of the columns of values, with jackknife stderr.

    values holds one row per path and one column per time the caller
    picked (t_0, where every path is 0, left out). The estimator is a
    plain mean of products, for which the delete-one jackknife variance
    reduces to s^2 / m; implemented in that reduced (vectorized) form.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ValueError("need a (n_paths >= 2, n_points) value matrix")
    m = v.shape[0]
    cov = v.T @ v / m
    sq = v * v
    second = sq.T @ sq / m
    var_products = np.maximum(second - cov * cov, 0.0)
    stderr = np.sqrt(var_products / (m - 1))
    return cov, stderr
