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

A chain builds its sweep once: the three updates overwrite work arrays
allocated with it, and beta^2 serves both scale updates, while every
draw keeps the bits of the public updates.  The likelihood rows of a
block are evaluated, and added to the profile, in slabs of 8 retained
sweeps: one rank-2 product for 1 + n lambda^2 u^2, one product over the
means and one log per (row, lambda) for the log-determinants, one
reciprocal pass, one stacked matrix-vector product, and one log-mean-exp
update cover a slab, so the per-call overhead is paid once a slab while
each row keeps the bits of its one-row evaluation.

No later sweep reads the likelihood rows, so a chain granted two workers
(``HIBSHRINK_THREADS``, else the CPUs the process may run on) sums them on
one forked helper process: the chain runs the three updates and pipes each
retained u^2 to it in blocks of 64 sweeps.  Whenever the helper falls two
u^2 blocks behind, the chain evaluates the next block's rows itself and
pipes the rows instead, which the helper only adds, in the same slabs.
With one worker, no ``fork`` start method, another thread alive, or a
pipe or fork that fails, the same block function runs inline; the profile
has the same bits either way.
"""

from __future__ import annotations

import math
import os
import signal
import stat
import sys
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, HibshrinkError, check_count, check_real, check_reals
from .prior import density_lambda, half_cauchy
from .streams import check_seed, stream, worker_count

if TYPE_CHECKING:
    import ctypes
    from collections.abc import Iterator
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
_SLAB = 8  # retained sweeps per likelihood evaluation; 4 ran 4% fewer sweeps a second
# u^2 blocks sent, not yet summed, when the chain does a block's rows.  Sharing stays:
# on 2 CPUs beside the benchmark's gauge process the helper is near-critical, and with
# the allocation-free sweep and rank-2 rows a build without it still lost 4 of 5
# alternated gibbs-profile pairs (median 39.4k -> 36.6k sweeps/s).
_SHARE_BACKLOG = 2
_U2, _ROWS = 0.0, 1.0  # leading tag of a message: u^2 or likelihood rows follow


@dataclass(frozen=True)
class SparseDataset:
    """Replicated observations around a sparse mean vector: ``beta_true`` and
    ``y`` are stored as ``errors.check_reals`` returns them, float64 arrays."""

    beta_true: np.ndarray
    y: np.ndarray
    n_rep: int
    sigma: float

    def __post_init__(self) -> None:
        beta, y = check_reals("beta_true", self.beta_true), check_reals("y", self.y)
        if beta.ndim != 1 or beta.size < 1:
            raise DomainError("beta_true must be a 1-D vector")
        object.__setattr__(self, "n_rep", check_count("n_rep", self.n_rep, 1))
        if y.shape != (beta.size, self.n_rep):
            raise DomainError(
                f"y must have shape {(beta.size, self.n_rep)}, got {y.shape}"
            )
        object.__setattr__(self, "sigma", _check_sigma(self.sigma))
        # keep the validated float arrays, not the caller's lists or int arrays
        object.__setattr__(self, "beta_true", beta)
        object.__setattr__(self, "y", y)


def _check_sigma(sigma: float) -> float:
    """``sigma`` as a positive ``float`` by the real rule of ``errors``, once
    its square is neither 0 nor inf."""
    sigma = check_real("sigma", sigma, "positive")
    if not 0.0 < sigma * sigma < math.inf:
        raise DomainError(
            f"sigma must be positive, with sigma^2 positive and finite, got {sigma!r}"
        )
    return sigma


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
        object.__setattr__(self, "n_iter", check_count("n_iter", self.n_iter, 1))
        object.__setattr__(self, "burn_in", check_count("burn_in", self.burn_in, 0))
        if self.burn_in >= self.n_iter:
            raise DomainError("burn_in must satisfy 0 <= burn_in < n_iter")
        object.__setattr__(self, "seed", check_seed(self.seed))
        if np.ndim(self.lambda_grid) != 1 or len(self.lambda_grid) < 2:
            raise DomainError("lambda_grid must hold at least two points")
        grid = tuple(check_real("lambda_grid", lam, "positive") for lam in self.lambda_grid)
        if any(lo >= hi for lo, hi in zip(grid, grid[1:])):
            raise DomainError("lambda_grid must be ascending")
        if grid[-1] != _GRID_MAX:
            raise DomainError(f"lambda_grid must be truncated at {_GRID_MAX}")
        # the global-scale draw divides by lambda^2
        if grid[0] * grid[0] == 0.0:
            raise DomainError(f"lambda_grid point {grid[0]} has lambda^2 = 0")
        object.__setattr__(self, "lambda_grid", grid)


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
    the log values are.  A component given NaN, +inf, or -inf before any
    finite value has no log-mean, and ``log_mean`` raises ``DomainError``.

    ``add`` takes one row or a (k, size) slab of rows: one maximum, one
    rescale of the sum and one exp-and-sum pass cover the slab, the
    rescaled sum being the first term of a sum that runs in row order.  A
    one-row add is the k = 1 slab and keeps the bits of the per-row update;
    a slab differs from its rows added one at a time only where a row after
    its first raises the maximum, and then by rounding.
    """

    def __init__(self, size: int) -> None:
        self._max = np.full(size, -np.inf)
        self._sum = np.zeros(size)
        self._count = 0
        # the next maximum, one scratch row and the slab's terms, overwritten by every add
        self._new_max = np.empty(size)
        self._scratch = np.empty(size)
        self._terms = np.empty((1, size))

    def add(self, log_values: np.ndarray) -> None:
        l = np.asarray(log_values, dtype=float)
        if l.shape[-1:] != self._max.shape or l.ndim > 2 or l.size == 0:
            raise DomainError(
                f"expected shape {self._max.shape} or (k, {self._max.size}), got {l.shape}"
            )
        l = l.reshape(-1, self._max.size)
        k = len(l)
        if self._count == 0:
            # a first row of -inf leaves the one-row update 0 * exp(nan): poison it here
            # too, where a later finite row in the slab would set the maximum
            self._sum[np.isneginf(l[0])] = np.nan
        new_max = np.maximum.reduce(l, axis=0, out=self._new_max)
        np.maximum(self._max, new_max, out=new_max)
        scratch = self._scratch
        np.subtract(self._max, new_max, out=scratch)
        self._sum *= np.exp(scratch, out=scratch)
        if len(self._terms) < k:
            self._terms = np.empty((k, self._max.size))
        terms = np.subtract(l, new_max, out=self._terms[:k])
        np.exp(terms, out=terms)
        terms[0] += self._sum
        np.add.reduce(terms, axis=0, out=self._sum)
        self._max, self._new_max = new_max, self._max
        self._count += k

    def log_mean(self) -> np.ndarray:
        if self._count == 0:
            raise DomainError("no rows accumulated")
        log_mean = self._max + np.log(self._sum) - math.log(self._count)
        if not np.all(np.isfinite(log_mean)):
            raise DomainError(
                "log-mean undefined: a component was given NaN, +inf,"
                " or -inf before any finite value"
            )
        return log_mean


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
    With weights w_i = s1_i^2/(2 n sigma^2) and d_i = 1 + n lambda^2 u_i^2,
    the quadratic part is sum_i w_i (1 - 1/d_i), so the u-dependent part is
    -sum_i w_i / d_i - (1/2) sum_i log d_i, a dot product and a
    log-determinant over the means; the rest, sum_i w_i included, is a
    constant fixed at construction.

    One call evaluates a slab of up to ``_SLAB`` retained u^2 vectors in a
    (slab * p, grid size) layout, row r's (p, grid size) matrix at rows
    r*p to (r+1)*p: d is one rank-2 matrix product of the slab's
    (slab * p, 2) columns [u^2, 1] with the (2, grid size) rows
    [n lambda^2, 1], which BLAS forms as u^2 n lambda^2 rounded, plus 1.
    The log-determinant term is (1/2) log prod_i d_i: one product over the
    p axis, then one log per (row, lambda) rather than per entry.  A row
    whose product passes the float range (many large u_i^2) takes, alone,
    (1/2) sum_i log d_i as a matrix-vector product instead.  Then one
    in-place reciprocal turns d into 1/d, and the weights take one stacked
    ``matmul`` over the slab's (p, grid size) matrices, which makes each
    row's matrix-vector product the BLAS call a one-row slab makes.  So a
    row has the same bits wherever it sits in a slab, for any grid size;
    one matrix-vector product over the (p, slab * grid size) view would
    not, since BLAS sums the last few entries of its output apart.  The
    work arrays are allocated once and overwritten by every call, and so
    are the returned rows.
    """

    def __init__(
        self, data: SparseDataset, sigma: float, lam2: np.ndarray
    ) -> None:
        s1 = data.y.sum(axis=1)
        s2 = (data.y * data.y).sum(axis=1)
        sigma2 = sigma * sigma
        p, g = s1.size, lam2.size
        quad_weights = 0.5 * s1 * s1 / (sigma2 * data.n_rep)
        self._quad_weights = quad_weights.reshape(1, p)
        self._logdet_weights = np.full((1, p), 0.5)
        self._const = float(quad_weights.sum()) - 0.5 * float(s2.sum()) / sigma2 - (
            0.5 * data.n_rep * math.log(2.0 * math.pi * sigma2) * p
        )
        self._n_lam2 = np.ones((2, g))  # rows [n lambda^2, 1]
        self._n_lam2[0] = data.n_rep * lam2
        self._u2 = np.ones((_SLAB * p, 2))  # columns [u^2, 1]; each call writes u^2
        self._d = np.empty((_SLAB * p, g))
        self._rows = np.empty((_SLAB, 1, g))
        self._logdet = np.empty((_SLAB, 1, g))

    def __call__(self, u2: np.ndarray) -> np.ndarray:
        """The rows of a (k, p) slab of u^2, k <= ``_SLAB``, as (k, grid size)."""
        k, p = u2.shape
        g = self._n_lam2.shape[1]
        columns = self._u2[: k * p]
        columns[:, 0] = u2.reshape(k * p)
        d = np.dot(columns, self._n_lam2, out=self._d[: k * p]).reshape(k, p, g)
        logdet = self._logdet[:k]
        with np.errstate(over="ignore"):
            np.multiply.reduce(d, axis=1, out=logdet.reshape(k, g))
        np.log(logdet, out=logdet)
        logdet *= 0.5
        if not np.isfinite(logdet).all():  # a product passed the float range
            for r in np.flatnonzero(~np.isfinite(logdet).all(axis=(1, 2))):
                logs = np.log(d[r : r + 1])
                np.matmul(self._logdet_weights, logs, out=logdet[r : r + 1])
        np.reciprocal(d, out=d)
        rows = np.matmul(self._quad_weights, d, out=self._rows[:k])
        np.subtract(self._const, rows, out=rows)
        rows -= logdet
        return rows.reshape(k, g)


def conditional_log_likelihood(
    data: SparseDataset, lam: float, sigma: float, u2: np.ndarray
) -> float:
    """Log p(y | lambda, sigma, u^2) with all means integrated out."""
    lam, sigma = check_real("lam", lam, "positive"), _check_sigma(sigma)
    u2 = check_reals("u2", u2, "positive")
    if u2.shape != (data.beta_true.size,):
        raise DomainError("u2 must be a positive vector, one entry per mean")
    # the rows form n lambda^2 u^2 as these products; past the float range they are NaN
    n_lam2 = data.n_rep * (lam * lam)
    if not math.isfinite(n_lam2):
        raise DomainError(f"lam must keep n_rep * lam^2 finite, got lam = {lam}")
    if not math.isfinite(n_lam2 * float(u2.max())):
        raise DomainError(
            f"u2 must keep n_rep * lam^2 * max(u2) finite, got max(u2) = {u2.max()}"
        )
    rows = _LikelihoodRows(data, sigma, np.array([lam * lam]))
    return float(rows(u2.reshape(1, -1))[0, 0])


def gibbs_update_means(
    rng: np.random.Generator,
    s1: np.ndarray,
    n_rep: int,
    sigma: float,
    lam: float,
    u2: np.ndarray,
) -> np.ndarray:
    """Conjugate draw of all means given scales: independent Gaussians.

    The variance is 1 / (n_rep / sigma^2 + 1 / (lambda^2 sigma^2 u^2)), the
    mean variance s1 / sigma^2, and the draw mean + sqrt(variance) z; each
    operation runs in place, in that order.
    """
    return _Sweep(s1.size, sigma).means(rng, s1, n_rep, lam, u2)


def gibbs_update_local_scales(
    rng: np.random.Generator,
    beta: np.ndarray,
    sigma: float,
    lam: float,
    u2: np.ndarray,
) -> np.ndarray:
    """Half-Cauchy local-scale draw via inverse-gamma parameter expansion.

    With an auxiliary xi_i per scale, both conditionals are IG with unit
    shape, and an IG(1, c) draw is c divided by a standard exponential:
    xi = (1 + 1/u^2) / e1, then u^2 = (1/xi + beta^2 / (2 lambda^2 sigma^2))
    / e2, each operation in place, in that order.  e1 and e2 are the two
    halves of one draw of 2p exponentials, the values two draws of p give.
    """
    return _Sweep(u2.size, sigma).local_scales(rng, beta, lam, u2)


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

    S / (2 lambda^2) passes the float range at a grid point whose lambda^2
    is tiny; that point's weight is then 0.  Below a limit fixed for the
    chain, at half the largest float times the smallest lambda^2, no point
    can overflow, and the draw pays for no floating-point error state.
    A non-finite S raises ``HibshrinkError``.
    """

    def __init__(self, lambda_grid: np.ndarray, p: int) -> None:
        self._grid = lambda_grid
        self._neg_p_log = -p * np.log(lambda_grid)
        self._grid2 = lambda_grid * lambda_grid
        self._no_overflow = 0.5 * sys.float_info.max * float(self._grid2.min())
        self._terms = np.empty(p)
        self._scales = np.empty(p)
        self._logw = np.empty(lambda_grid.size)
        self._cdf = np.empty(lambda_grid.size)

    def __call__(
        self, rng: np.random.Generator, beta: np.ndarray, sigma: float, u2: np.ndarray
    ) -> float:
        beta2 = np.multiply(beta, beta, out=self._terms)
        return self.from_squares(rng, beta2, sigma * sigma, u2)

    def from_squares(
        self, rng: np.random.Generator, beta2: np.ndarray, sigma2: float, u2: np.ndarray
    ) -> float:
        """The draw given beta^2; sigma^2 = 1 skips the product sigma^2 u^2."""
        # the ufunc methods behind np.sum, ndarray.max and np.cumsum: same bits, fewer calls
        if sigma2 == 1.0:
            terms = np.divide(beta2, u2, out=self._terms)
        else:
            scales = np.multiply(sigma2, u2, out=self._scales)
            terms = np.divide(beta2, scales, out=self._terms)
        s_stat = float(np.add.reduce(terms))
        if not math.isfinite(s_stat):
            raise HibshrinkError(f"non-finite global-scale statistic in sampler: {s_stat}")
        if 0.5 * s_stat <= self._no_overflow:
            logw = np.divide(0.5 * s_stat, self._grid2, out=self._logw)
        else:
            with np.errstate(over="ignore"):
                logw = np.divide(0.5 * s_stat, self._grid2, out=self._logw)
        np.subtract(self._neg_p_log, logw, out=logw)
        logw -= np.maximum.reduce(logw)
        cdf = np.add.accumulate(np.exp(logw, out=logw), out=self._cdf)
        draw = rng.random() * cdf[-1]
        return float(self._grid[int(cdf.searchsorted(draw))])


class _Sweep:
    """The mean and local-scale updates with every work array built once.

    The public ``gibbs_update_means`` and ``gibbs_update_local_scales`` are
    one-off calls of these methods, and a chain builds one sweep, with its
    ``_GlobalScaleDraw``, and calls it once a sweep.  The variance, beta
    (which ``means`` returns), the p normals, the 2p exponentials, beta^2
    and the spread are overwritten by every sweep; ``local_scales`` writes
    u^2 into two buffers in turn, so the u^2 it returns holds until the
    call after next.  beta^2 is formed once and serves the local-scale and
    global-scale updates.  Each operation runs in place, in the order the
    public updates give, except that at sigma^2 = 1 the divide by sigma^2
    and the product sigma^2 u^2 are skipped: both are exact there, so no
    bit changes.
    """

    def __init__(self, p: int, sigma: float, lambda_grid: np.ndarray | None = None) -> None:
        self._sigma = sigma
        self._sigma2 = sigma * sigma
        self._variance = np.empty(p)
        self._beta = np.empty(p)
        self._normals = np.empty(p)
        self._exponentials = np.empty(2 * p)
        self._e1, self._e2 = self._exponentials[:p], self._exponentials[p:]
        self._beta2 = np.empty(p)
        self._spread = np.empty(p)
        self._u2 = (np.empty(p), np.empty(p))
        self._next_u2 = 0
        if lambda_grid is not None:
            self._draw_global_scale = _GlobalScaleDraw(lambda_grid, p)

    def means(
        self,
        rng: np.random.Generator,
        s1: np.ndarray,
        n_rep: int,
        lam: float,
        u2: np.ndarray,
    ) -> np.ndarray:
        """``gibbs_update_means`` into the sweep's arrays."""
        sigma2 = self._sigma2
        variance = np.multiply(lam * lam * sigma2, u2, out=self._variance)
        np.reciprocal(variance, out=variance)
        variance += n_rep / sigma2
        np.reciprocal(variance, out=variance)
        beta = np.multiply(variance, s1, out=self._beta)
        if sigma2 != 1.0:
            beta /= sigma2
        np.sqrt(variance, out=variance)
        variance *= rng.standard_normal(out=self._normals)
        beta += variance
        return beta

    def local_scales(
        self, rng: np.random.Generator, beta: np.ndarray, lam: float, u2: np.ndarray
    ) -> np.ndarray:
        """``gibbs_update_local_scales`` into the sweep's arrays; beta^2 is kept."""
        rng.standard_exponential(out=self._exponentials)
        rate = np.reciprocal(u2, out=self._u2[self._next_u2])
        self._next_u2 ^= 1
        rate += 1.0
        rate /= self._e1
        np.reciprocal(rate, out=rate)
        beta2 = np.multiply(beta, beta, out=self._beta2)
        sigma = self._sigma
        rate += np.divide(beta2, 2.0 * lam * lam * sigma * sigma, out=self._spread)
        rate /= self._e2
        return rate

    def __call__(
        self,
        rng: np.random.Generator,
        s1: np.ndarray,
        n_rep: int,
        lam: float,
        u2: np.ndarray,
    ) -> tuple[float, np.ndarray]:
        """One sweep from (lambda, u^2): the next lambda and u^2."""
        beta = self.means(rng, s1, n_rep, lam, u2)
        u2 = self.local_scales(rng, beta, lam, u2)
        return self._draw_global_scale.from_squares(rng, self._beta2, self._sigma2, u2), u2


def _slabs(block: np.ndarray) -> Iterator[np.ndarray]:
    """``block`` in slabs of ``_SLAB`` rows from its start, the last possibly shorter."""
    for start in range(0, len(block), _SLAB):
        yield block[start : start + _SLAB]


def _checked_rows(rows: _LikelihoodRows, block: np.ndarray) -> Iterator[np.ndarray]:
    """The likelihood rows of each slab of retained u^2 in ``block``, in sweep order.

    Rows are evaluated, and checked finite, a slab of ``_SLAB`` sweeps at a
    time.  Each slab is the evaluator's own buffer, overwritten by the next.
    """
    for u2 in _slabs(block):
        slab = rows(u2)
        if not np.isfinite(slab).all():
            raise HibshrinkError("non-finite conditional likelihood in sampler")
        yield slab


def _add_rows(
    rows: _LikelihoodRows, acc: LogMeanExpAccumulator, block: np.ndarray
) -> None:
    """Add the likelihood rows of the retained u^2 in ``block``, a slab at a time."""
    for slab in _checked_rows(rows, block):
        acc.add(slab)


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
    conn: Connection,
    parent_end: Connection,
    rows: _LikelihoodRows,
    taken: ctypes.c_longlong,
    size: int,
    p: int,
) -> None:
    """Helper-process body: sum the blocks the chain sends, then reply once.

    Each message is a tag and a block.  A block of u^2 has its rows
    evaluated and added, and then counts in ``taken``; a block of rows the
    chain evaluated is only added, in the same slabs.  An empty message
    ends the chain; the reply is the accumulator, or the first failure,
    after which later blocks are read, counted and dropped so the chain
    never blocks on a full pipe.  End of file means the chain's process is
    gone, and the helper ends with it.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the chain's process ends this one
    parent_end.close()
    acc = LogMeanExpAccumulator(size)
    message = np.empty(1 + _ROW_BLOCK * max(p, size))
    failure = None
    try:
        while nbytes := conn.recv_bytes_into(message):
            body = message[1 : nbytes // message.itemsize]
            is_u2 = message[0] == _U2
            if failure is None:
                try:
                    if is_u2:
                        _add_rows(rows, acc, body.reshape(-1, p))
                    else:
                        for slab in _slabs(body.reshape(-1, size)):
                            acc.add(slab)
                except HibshrinkError as exc:
                    failure = exc
            if is_u2:
                taken.value += 1
    except EOFError:
        return
    conn.send(acc if failure is None else failure)


class _HelperRows:
    """Sums the blocks of rows on one forked helper process, with the chain's help.

    The chain's process writes each block of u^2 to a pipe.  When
    ``_SHARE_BACKLOG`` or more u^2 blocks are sent but not yet summed, the
    chain evaluates the block's rows itself, with the evaluator it built
    before the fork and the same finiteness check, and writes the rows in
    its place; blocks of rows do not count toward that backlog.  The helper
    adds every block in slabs of ``_SLAB`` rows from its start, whoever
    evaluated it, so the sum keeps its bits.  Leaving the ``with`` block
    kills the helper if the chain raised, closes the pipe and always joins
    the helper.
    """

    def __init__(
        self, fork: BaseContext, rows: _LikelihoodRows, size: int, p: int
    ) -> None:
        self._rows = rows
        self._size = size
        self._sent = 0  # u^2 blocks written to the pipe
        self._taken = fork.RawValue("q", 0)  # u^2 blocks the helper is done with
        self._message = np.empty(1 + _ROW_BLOCK * max(p, size))
        # the fork copies unflushed buffers, which the child would print again
        sys.stdout.flush()
        sys.stderr.flush()
        self._conn, child_end = fork.Pipe()
        self._proc = fork.Process(
            target=_serve_rows,
            args=(child_end, self._conn, rows, self._taken, size, p),
        )
        pipes = _open_pipes()
        try:
            self._proc.start()
        except OSError:  # no helper: ``_row_sink`` sums the rows inline
            # a fork that fails leaves open the two pipes the standard library
            # made for it; with one thread alive, no other pipe appeared since
            if pipes is not None:
                for fd in _open_pipes() - pipes:
                    os.close(fd)
            self._conn.close()
            raise
        finally:
            child_end.close()

    def __enter__(self) -> _HelperRows:
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is not None:
            self._proc.kill()
        self._conn.close()  # a helper still reading sees end of file
        self._proc.join()

    def send(self, block: np.ndarray) -> None:
        message = self._message
        if self._sent - self._taken.value >= _SHARE_BACKLOG:
            message[0] = _ROWS
            body = message[1 : 1 + len(block) * self._size].reshape(-1, self._size)
            for out, slab in zip(_slabs(body), _checked_rows(self._rows, block)):
                out[:] = slab
        else:
            message[0] = _U2
            body = message[1 : 1 + block.size].reshape(block.shape)
            body[:] = block
            self._sent += 1
        try:
            self._conn.send_bytes(message[: 1 + body.size])
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


def _open_pipes() -> set[int] | None:
    """The pipe descriptors this process holds, or None where it cannot list them."""
    for fd_dir in ("/proc/self/fd", "/dev/fd"):
        try:
            names = os.listdir(fd_dir)
        except OSError:
            continue
        pipes = set()
        for fd in map(int, names):
            try:
                if stat.S_ISFIFO(os.fstat(fd).st_mode):
                    pipes.add(fd)
            except OSError:  # the descriptor that listed the directory, closed since
                pass
        return pipes
    return None


def _row_sink(rows: _LikelihoodRows, size: int, p: int) -> _InlineRows | _HelperRows:
    """One helper process when two workers are granted and forking is safe.

    A fork copies only the calling thread, so any other live thread could
    leave a lock held in the child; with one thread alive there is none.
    A pipe or fork that fails (``OSError``, such as EAGAIN) sums the rows inline.
    """
    import multiprocessing  # here, so that commands which run no chain skip it

    if (
        worker_count() >= 2
        and "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    ):
        try:
            return _HelperRows(multiprocessing.get_context("fork"), rows, size, p)
        except OSError:
            pass
    return _InlineRows(rows, size)


def horseshoe_gibbs(data: SparseDataset, config: GibbsConfig) -> ProfileResult:
    """Run the sampler and average conditional likelihoods over the grid.

    The likelihood-row evaluator, its slab buffers and the sweep, with its
    work arrays and global-scale grid constants, are built once per chain.
    The chain runs the three updates and hands every retained u^2, in
    blocks of 64 sweeps, to where the rows are summed: a forked helper
    process when ``worker_count()`` is at least 2, the ``fork`` start method
    exists, no other thread is alive and the fork succeeds, otherwise the
    same block function inline.  While the helper is two u^2 blocks behind,
    the chain evaluates each block's rows itself and hands over the rows.
    Either way each row and the accumulator see the same arithmetic in the
    same order, so the profile keeps its bits, and no process outlives the
    call.
    """
    grid = np.array(config.lambda_grid)
    s1 = data.y.sum(axis=1)
    p = data.beta_true.size
    rng = stream(config.seed, "horseshoe-gibbs")

    u2 = np.ones(p)
    lam = 1.0
    sweep = _Sweep(p, data.sigma, grid)
    block = np.empty((_ROW_BLOCK, p))
    filled = 0
    with _row_sink(_LikelihoodRows(data, data.sigma, grid * grid), grid.size, p) as sink:
        for index in range(config.n_iter):
            lam, u2 = sweep(rng, s1, data.n_rep, lam, u2)
            if index >= config.burn_in:
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
    lam = check_real("lam", lam, "positive")
    lam2 = lam * lam  # 0 only where the exponential underflowed long before
    return 0.0 if lam2 == 0.0 else math.sqrt(2.0 / math.pi) * math.exp(-0.5 / lam2) / lam2
