"""Marginal-likelihood profile for the global scale in a sparse-means model.

Data are p means observed with n_rep replicates each.  Every mean gets its
own local scale u_i with a standard half-Cauchy prior (heavy tails, infinite
spike at zero), one global scale lambda multiplies them all, and lambda
itself carries a flat prior truncated above at 10.  A Gibbs sampler
alternates mean, local-scale, and global-scale updates; the local-scale step
uses the inverse-gamma parameter-expansion trick, and lambda is drawn by
inverse CDF on the same discrete grid used for profiling.

The deliverable is the profile of the marginal likelihood of the data as a
function of lambda: the pointwise average, over retained sweeps, of the
conditional likelihood with the means integrated out, accumulated in
streaming log-sum-exp form and renormalized to a maximum of one.  Overlay
densities on the same grid show what a half-Cauchy prior and an
inverse-gamma-induced prior on lambda would weight: the latter vanishes near
zero, which is the distortion the profile makes visible.

No later sweep reads the likelihood rows, so a chain granted two workers
(``HIBSHRINK_THREADS``, else the CPU count) sums them on one forked helper
process: the chain runs only the three updates and pipes each retained u^2
to it in blocks of 64 sweeps.  With one worker, no ``fork`` start method, or
another thread alive, the same block function runs inline; the profile has
the same bits either way.
"""

from __future__ import annotations

import math
import numbers
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, HibshrinkError
from .prior import density_lambda, half_cauchy
from .streams import stream, worker_count

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext

__all__ = [
    "SparseDataset",
    "GibbsConfig",
    "ProfileResult",
    "LogMeanExpAccumulator",
    "simulate_sparse",
    "conditional_log_likelihood",
    "gibbs_update_means",
    "gibbs_update_local_scales",
    "gibbs_update_global_scale",
    "horseshoe_gibbs",
    "ig_induced_density",
]

_CANONICAL_SIGNALS = (5.0, 4.0, 3.0, 2.0, 1.0)
_CANONICAL_NULLS = 45
_GRID_MAX = 10.0
_ROW_BLOCK = 64  # retained sweeps per message to the likelihood helper


@dataclass(frozen=True)
class SparseDataset:
    """Replicated observations around a sparse mean vector."""

    beta_true: np.ndarray
    y: np.ndarray
    n_rep: int
    sigma: float

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta_true, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if beta.ndim != 1 or beta.size < 1:
            raise DomainError("beta_true must be a 1-D vector")
        if not (isinstance(self.n_rep, int) and self.n_rep >= 1):
            raise DomainError(f"n_rep must be a positive integer, got {self.n_rep!r}")
        if y.shape != (beta.size, self.n_rep):
            raise DomainError(
                f"y must have shape {(beta.size, self.n_rep)}, got {y.shape}"
            )
        if not (
            isinstance(self.sigma, numbers.Real)
            and math.isfinite(self.sigma)
            and self.sigma > 0.0
        ):
            raise DomainError(f"sigma must be positive, got {self.sigma!r}")
        if np.any(~np.isfinite(beta)) or np.any(~np.isfinite(y)):
            raise DomainError("dataset values must be finite")
        # keep the validated float arrays, not the caller's lists or int arrays
        object.__setattr__(self, "beta_true", beta)
        object.__setattr__(self, "y", y)


def _default_grid() -> tuple[float, ...]:
    return tuple(np.linspace(0.05, _GRID_MAX, 200))


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler length, seed, and the shared lambda grid (truncated at 10)."""

    n_iter: int = 20_000
    burn_in: int = 5_000
    seed: int = 0
    lambda_grid: tuple[float, ...] = field(default_factory=_default_grid)

    def __post_init__(self) -> None:
        if not (isinstance(self.n_iter, int) and self.n_iter >= 1):
            raise DomainError(f"n_iter must be a positive integer, got {self.n_iter!r}")
        if not (isinstance(self.burn_in, int) and 0 <= self.burn_in < self.n_iter):
            raise DomainError("burn_in must satisfy 0 <= burn_in < n_iter")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise DomainError("seed must be a 64-bit unsigned integer")
        grid = np.asarray(self.lambda_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise DomainError("lambda_grid must hold at least two points")
        if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
            raise DomainError("lambda_grid must be ascending and positive")
        if grid[-1] != _GRID_MAX:
            raise DomainError(f"lambda_grid must be truncated at {_GRID_MAX}")


@dataclass(frozen=True)
class ProfileResult:
    """Renormalized profile plus the two overlay densities on the grid."""

    lambda_grid: np.ndarray
    profile: np.ndarray
    overlay_half_cauchy: np.ndarray
    overlay_ig_induced: np.ndarray


class LogMeanExpAccumulator:
    """Streaming log of the mean of exponentials of added rows.

    Keeps a per-component running maximum m and the sum of exp(l - m), so
    the final log-mean is exact up to rounding no matter how large or small
    the log values are.
    """

    def __init__(self, size: int) -> None:
        self._max = np.full(size, -np.inf)
        self._sum = np.zeros(size)
        self._count = 0
        # the next maximum and one scratch row, overwritten by every add
        self._new_max = np.empty(size)
        self._scratch = np.empty(size)

    def add(self, log_values: np.ndarray) -> None:
        l = np.asarray(log_values, dtype=float)
        if l.shape != self._max.shape:
            raise DomainError(f"expected shape {self._max.shape}, got {l.shape}")
        new_max = np.maximum(self._max, l, out=self._new_max)
        scratch = self._scratch
        np.subtract(self._max, new_max, out=scratch)
        self._sum *= np.exp(scratch, out=scratch)
        np.subtract(l, new_max, out=scratch)
        self._sum += np.exp(scratch, out=scratch)
        self._max, self._new_max = new_max, self._max
        self._count += 1

    def log_mean(self) -> np.ndarray:
        if self._count == 0:
            raise DomainError("no rows accumulated")
        return self._max + np.log(self._sum) - math.log(self._count)


def simulate_sparse(seed: int, pure_noise: bool = False) -> SparseDataset:
    """Canonical dataset: means (5,4,3,2,1) plus 45 zeros, 3 replicates.

    Observations are y_ij = beta_i + N(0,1) noise; pure_noise instead draws
    every y_ij ~ N(0,1) around an all-zero mean vector.
    """
    beta = np.concatenate([_CANONICAL_SIGNALS, np.zeros(_CANONICAL_NULLS)])
    if pure_noise:
        beta = np.zeros_like(beta)
    rng = stream(seed, "sparse-data", "pure-noise" if pure_noise else "signal")
    noise = rng.normal(size=(beta.size, 3))
    return SparseDataset(beta_true=beta, y=beta[:, None] + noise, n_rep=3, sigma=1.0)


class _LikelihoodRows:
    """Log likelihood with the means integrated out, for each lambda^2 of a grid.

    Row i has covariance sigma^2 I + lambda^2 sigma^2 u_i^2 J (J all ones),
    so the rank-one determinant and inverse identities give, per lambda:
    sum_i [ -(n/2) log(2 pi sigma^2) - (1/2) log(1 + n lambda^2 u_i^2)
            - (s2_i - lambda^2 u_i^2 s1_i^2 / (1 + n lambda^2 u_i^2))
              / (2 sigma^2) ].
    With b_i = n lambda^2 u_i^2 and d_i = 1 + b_i the u-dependent part is
    sum_i s1_i^2/(2 n sigma^2) b_i/d_i - (1/2) sum_i log d_i, two dot
    products over the rows; the rest is a constant fixed at construction.
    The two (p, grid size) work arrays are allocated once and overwritten by
    every call, and so is the returned row.
    """

    def __init__(
        self, data: SparseDataset, sigma: float, lam2: np.ndarray
    ) -> None:
        s1 = data.y.sum(axis=1)
        s2 = (data.y * data.y).sum(axis=1)
        sigma2 = sigma * sigma
        p, g = s1.size, lam2.size
        self._n_lam2 = data.n_rep * lam2
        self._quad_weights = 0.5 * s1 * s1 / (sigma2 * data.n_rep)
        self._logdet_weights = np.full(p, 0.5)
        self._const = -0.5 * float(s2.sum()) / sigma2 - (
            0.5 * data.n_rep * math.log(2.0 * math.pi * sigma2) * p
        )
        self._b = np.empty((p, g))
        self._denom = np.empty((p, g))
        self._row = np.empty(g)
        self._logdet = np.empty(g)

    def __call__(self, u2: np.ndarray) -> np.ndarray:
        b, denom = self._b, self._denom
        np.multiply.outer(u2, self._n_lam2, out=b)
        np.add(b, 1.0, out=denom)
        b /= denom
        np.log(denom, out=denom)
        row = np.dot(self._quad_weights, b, out=self._row)
        row -= np.dot(self._logdet_weights, denom, out=self._logdet)
        row += self._const
        return row


def conditional_log_likelihood(
    data: SparseDataset, lam: float, sigma: float, u2: np.ndarray
) -> float:
    """Log p(y | lambda, sigma, u^2) with all means integrated out."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"lam must be positive and finite, got {lam}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    u2 = np.asarray(u2, dtype=float)
    if u2.shape != (data.beta_true.size,) or np.any(u2 <= 0.0) or np.any(~np.isfinite(u2)):
        raise DomainError("u2 must be a positive vector, one entry per mean")
    rows = _LikelihoodRows(data, sigma, np.array([lam * lam]))
    return float(rows(u2)[0])


def gibbs_update_means(
    rng: np.random.Generator,
    s1: np.ndarray,
    n_rep: int,
    sigma: float,
    lam: float,
    u2: np.ndarray,
) -> np.ndarray:
    """Conjugate draw of all means given scales: independent Gaussians."""
    sigma2 = sigma * sigma
    variance = 1.0 / (n_rep / sigma2 + 1.0 / (lam * lam * sigma2 * u2))
    mean = variance * s1 / sigma2
    return mean + np.sqrt(variance) * rng.standard_normal(s1.size)


def gibbs_update_local_scales(
    rng: np.random.Generator,
    beta: np.ndarray,
    sigma: float,
    lam: float,
    u2: np.ndarray,
) -> np.ndarray:
    """Half-Cauchy local-scale draw via inverse-gamma parameter expansion.

    With an auxiliary xi_i per scale, both conditionals are IG with unit
    shape, and an IG(1, c) draw is c divided by a standard exponential.
    """
    xi = (1.0 + 1.0 / u2) / rng.standard_exponential(u2.size)
    rate = 1.0 / xi + beta * beta / (2.0 * lam * lam * sigma * sigma)
    return rate / rng.standard_exponential(u2.size)


def gibbs_update_global_scale(
    rng: np.random.Generator,
    beta: np.ndarray,
    sigma: float,
    u2: np.ndarray,
    lambda_grid: np.ndarray,
) -> float:
    """Draw lambda from its gridded conditional under the flat prior.

    The conditional is proportional to lambda^(-p) exp(-S / (2 lambda^2))
    with S = sum beta_i^2 / (sigma^2 u_i^2), evaluated on the grid atoms
    and sampled by inverse CDF.
    """
    return _GlobalScaleDraw(lambda_grid, beta.size)(rng, beta, sigma, u2)


class _GlobalScaleDraw:
    """``gibbs_update_global_scale`` with its grid constants built once.

    -p log(grid) and grid^2 are fixed for a chain, and one work row is
    overwritten by every draw; each operation is the one the public update
    would apply, so every lambda keeps its bits.
    """

    def __init__(self, lambda_grid: np.ndarray, p: int) -> None:
        self._grid = lambda_grid
        self._neg_p_log = -p * np.log(lambda_grid)
        self._grid2 = lambda_grid * lambda_grid
        self._logw = np.empty(lambda_grid.size)
        self._cdf = np.empty(lambda_grid.size)

    def __call__(
        self, rng: np.random.Generator, beta: np.ndarray, sigma: float, u2: np.ndarray
    ) -> float:
        s_stat = float(np.sum(beta * beta / (sigma * sigma * u2)))
        logw = np.divide(0.5 * s_stat, self._grid2, out=self._logw)
        np.subtract(self._neg_p_log, logw, out=logw)
        logw -= logw.max()
        cdf = np.cumsum(np.exp(logw, out=logw), out=self._cdf)
        draw = rng.random() * cdf[-1]
        return float(self._grid[int(np.searchsorted(cdf, draw))])


def _add_rows(
    rows: _LikelihoodRows, acc: LogMeanExpAccumulator, block: np.ndarray
) -> None:
    """Add the likelihood row of each retained u^2 in ``block``, in sweep order."""
    for u2 in block:
        row = rows(u2)
        if not np.all(np.isfinite(row)):
            raise HibshrinkError("non-finite conditional likelihood in sampler")
        acc.add(row)


class _InlineRows:
    """Sums each block of rows on the chain's own thread, as it arrives."""

    def __init__(self, rows: _LikelihoodRows, size: int) -> None:
        self._rows = rows
        self._acc = LogMeanExpAccumulator(size)

    def __enter__(self) -> _InlineRows:
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def send(self, block: np.ndarray) -> None:
        _add_rows(self._rows, self._acc, block)

    def result(self) -> LogMeanExpAccumulator:
        return self._acc


def _serve_rows(
    conn: Connection, parent_end: Connection, rows: _LikelihoodRows, size: int, p: int
) -> None:
    """Helper-process body: sum the blocks the chain sends, then reply once.

    An empty message ends the chain; the reply is the accumulator, or the
    first failure, after which later blocks are read and dropped so the
    chain never blocks on a full pipe.  End of file means the chain's
    process is gone, and the helper ends with it.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the chain's process ends this one
    parent_end.close()
    acc = LogMeanExpAccumulator(size)
    flat = np.empty(_ROW_BLOCK * p)
    failure = None
    try:
        while nbytes := conn.recv_bytes_into(flat):
            if failure is None:
                block = flat[: nbytes // flat.itemsize].reshape(-1, p)
                try:
                    _add_rows(rows, acc, block)
                except HibshrinkError as exc:
                    failure = exc
    except EOFError:
        return
    conn.send(acc if failure is None else failure)


class _HelperRows:
    """Sums the blocks of rows on one forked helper process.

    The chain's process only writes each block to a pipe; leaving the
    ``with`` block kills the helper if the chain raised, closes the pipe and
    always joins the helper.
    """

    def __init__(
        self, fork: BaseContext, rows: _LikelihoodRows, size: int, p: int
    ) -> None:
        # the fork copies unflushed buffers, which the child would print again
        sys.stdout.flush()
        sys.stderr.flush()
        self._conn, child_end = fork.Pipe()
        self._proc = fork.Process(
            target=_serve_rows, args=(child_end, self._conn, rows, size, p)
        )
        self._proc.start()
        child_end.close()

    def __enter__(self) -> _HelperRows:
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is not None:
            self._proc.kill()
        self._conn.close()  # a helper still reading sees end of file
        self._proc.join()

    def send(self, block: np.ndarray) -> None:
        try:
            self._conn.send_bytes(block)
        except OSError as exc:
            raise HibshrinkError("likelihood helper process ended early") from exc

    def result(self) -> LogMeanExpAccumulator:
        try:
            self._conn.send_bytes(b"")
            reply = self._conn.recv()
        except (OSError, EOFError) as exc:
            raise HibshrinkError("likelihood helper process ended early") from exc
        if isinstance(reply, HibshrinkError):
            raise reply
        return reply


def _row_sink(rows: _LikelihoodRows, size: int, p: int) -> _InlineRows | _HelperRows:
    """One helper process when two workers are granted and forking is safe.

    A fork copies only the calling thread, so any other live thread could
    leave a lock held in the child; with one thread alive there is none.
    """
    import multiprocessing  # here, so that commands which run no chain skip it

    if (
        worker_count() >= 2
        and "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    ):
        return _HelperRows(multiprocessing.get_context("fork"), rows, size, p)
    return _InlineRows(rows, size)


def horseshoe_gibbs(data: SparseDataset, config: GibbsConfig) -> ProfileResult:
    """Run the sampler and average conditional likelihoods over the grid.

    The likelihood-row evaluator, its (p, grid) buffers and the global-scale
    grid constants are built once per chain.  The chain runs the three
    updates and hands every retained u^2, in blocks of 64 sweeps, to where
    the rows are summed: a forked helper process when ``worker_count()`` is
    at least 2, the ``fork`` start method exists and no other thread is
    alive, otherwise the same block function inline.  Either way each row
    and the accumulator see the same arithmetic in the same order, so the
    profile keeps its bits, and no process outlives the call.
    """
    grid = np.asarray(config.lambda_grid, dtype=float)
    s1 = data.y.sum(axis=1)
    p = data.beta_true.size
    rng = stream(config.seed, "horseshoe-gibbs")

    u2 = np.ones(p)
    lam = 1.0
    draw_global_scale = _GlobalScaleDraw(grid, p)
    block = np.empty((_ROW_BLOCK, p))
    filled = 0
    with _row_sink(_LikelihoodRows(data, data.sigma, grid * grid), grid.size, p) as sink:
        for sweep in range(config.n_iter):
            beta = gibbs_update_means(rng, s1, data.n_rep, data.sigma, lam, u2)
            u2 = gibbs_update_local_scales(rng, beta, data.sigma, lam, u2)
            lam = draw_global_scale(rng, beta, data.sigma, u2)
            if sweep >= config.burn_in:
                block[filled] = u2
                filled += 1
                if filled == _ROW_BLOCK:
                    sink.send(block)
                    filled = 0
        if filled:
            sink.send(block[:filled])
        log_mean = sink.result().log_mean()

    profile = np.exp(log_mean - log_mean.max())
    hc = half_cauchy()
    overlay_hc = density_lambda(hc, grid)
    overlay_ig = np.array([ig_induced_density(lam_k) for lam_k in grid])
    return ProfileResult(
        lambda_grid=grid,
        profile=profile,
        overlay_half_cauchy=overlay_hc,
        overlay_ig_induced=overlay_ig,
    )


def ig_induced_density(lam: float) -> float:
    """Density of lambda when lambda^2 is inverse-gamma(1/2, 1/2).

    Equals sqrt(2/pi) lambda^(-2) exp(-1/(2 lambda^2)); the essential zero
    at the origin is what biases such priors away from small scales.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise DomainError(f"lam must be positive and finite, got {lam}")
    lam2 = lam * lam  # 0 only where the exponential underflowed long before
    return 0.0 if lam2 == 0.0 else math.sqrt(2.0 / math.pi) * math.exp(-0.5 / lam2) / lam2
