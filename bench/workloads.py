"""The three benchmark workloads: inputs drawn from a seed, one job per call,
and the correctness checks run on every job's output after the timing.

A workload yields jobs forever from ``np.random.default_rng(seed)``; the
runner takes as many as fit in the measured time.  ``execute`` is the only
code inside a timed region.  ``collect`` reads back what the program wrote
and ``check`` judges it, outside the timing.  ``finish`` runs the checks
that load code the program never loads (mpmath) or compare against other
program paths; the runner calls it after it has read peak memory.  See README.md
for why each workload exists and which layers it bypasses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from hibshrink import cli, posterior, quadrature, risk, sparse
from hibshrink.prior import (
    HIBParams,
    density_kappa,
    density_lambda,
    density_lambda2,
    half_cauchy,
)


@dataclass
class Job:
    """One closed-loop request; ``kind`` selects the metric it feeds."""

    kind: str
    items: int
    argv: tuple = ()
    payload: tuple = ()
    oracle: bool = False
    latency: float = 0.0  # wall seconds
    ref_latency: float = 0.0  # the same in reference seconds (gauge.py)
    span: tuple | None = None  # perf_counter start and end
    result: object = None
    failures: list = field(default_factory=list)
    digest: str = ""


# flags the workloads leave at their defaults, as the manifest records them
_DEFAULT_FLAGS = {"grid_size": "200", "pure_noise": "False"}


def _manifest_failures(text: str, argv, seed: int) -> list[str]:
    """The program must echo exactly the generated flags and seed."""
    head = [line for line in text.splitlines() if line.startswith("# ")]
    try:
        params = json.loads(head[1].split(": ", 1)[1])
        got_seed = int(head[2].split(": ", 1)[1])
    except (IndexError, ValueError) as exc:
        return [f"unreadable manifest: {exc}"]
    want = {key[2:].replace("-", "_"): value
            for key, value in zip(argv[1::2], argv[2::2]) if key != "--out"}
    want["subcommand"] = argv[0]
    got = {key: str(value) for key, value in params.items()}
    for key, value in _DEFAULT_FLAGS.items():
        if key in got and key not in want:
            want[key] = value
    failures = []
    if got != want:
        failures.append(f"manifest parameters {got} differ from generated {want}")
    if got_seed != seed:
        failures.append(f"manifest seed {got_seed} != generated {seed}")
    return failures


def _body(text: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want else abs(got)


class RiskCurve:
    """``hibshrink risk-curve`` at p=15 on a 13-point norm grid, one MC seed per job."""

    name = "risk-curve"
    op_kind = item_kind = "curve"
    min_ops = 3
    # How far the job time follows the host-speed gauge (gauge.py): vectorized
    # numpy on two threads moved about half as much as the gauge's Python loop
    # did across 20 runs, so the gauge's reading enters as its square root.
    host_elasticity = 0.5
    P, GRID, MC = 15, "0:36:13", 200_000
    NORMS = np.linspace(0.0, 36.0, 13)
    PROBES = 64

    def __init__(self, seed: int, out_dir) -> None:
        self.rng = np.random.default_rng(seed)
        self.probe_rng = np.random.default_rng([seed, 1])
        self.out = str(out_dir / "risk-curve.csv")

    def _argv(self, mc_seed: int, mc: int) -> tuple:
        return (
            "risk-curve", "--p", str(self.P), "--prior", "half-cauchy",
            "--grid", self.GRID, "--mc", str(mc), "--seed", str(mc_seed),
            "--compare", "js,js_plus,mle", "--out", self.out,
        )

    def jobs(self):
        while True:
            mc_seed = int(self.rng.integers(2**31))
            yield Job("curve", len(self.NORMS) * self.MC, self._argv(mc_seed, self.MC),
                      payload=(mc_seed,))

    def warm_up(self) -> list[Job]:
        return [Job("warm-up", 0, self._argv(0, 2_000), payload=(0,))]

    def execute(self, job: Job) -> None:
        code = cli.main(list(job.argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}")

    def collect(self, job: Job) -> None:
        with open(self.out) as handle:
            job.result = handle.read()

    def check(self, job: Job) -> list[str]:
        (mc_seed,) = job.payload
        failures = _manifest_failures(job.result, job.argv, mc_seed)
        rows = _body(job.result)
        if len(rows) != 4 * len(self.NORMS):
            return failures + [f"{len(rows)} rows"]
        top = float(self.NORMS[-1])
        for tag, p, norm, mse, se, n_mc, seed in rows:
            norm, mse, se = float(norm), float(mse), float(se)
            if not (math.isfinite(mse) and math.isfinite(se)):
                failures.append(f"{tag} row at {norm} not finite")
            elif tag == "js" and mse != risk.js_risk(self.P, norm):
                failures.append(f"js row at {norm} != js_risk")
            elif tag == "mle" and mse != self.P:
                failures.append(f"mle row at {norm} != p")
            elif tag == "bayes" and norm == 0.0 and not mse < 2.0:
                failures.append(f"bayes origin mse {mse} >= 2")
            elif tag == "bayes" and norm == top and abs(mse - self.P) > 0.1 * self.P:
                failures.append(f"bayes tail mse {mse} not within 10% of p")
            if int(p) != self.P or int(seed) != mc_seed:
                failures.append(f"row echoes p={p} seed={seed}")
        return failures

    def finish(self, jobs) -> list[Job]:
        """Batch posterior moments against the scalar path on drawn Z, as one
        extra operation with a message per disagreeing Z."""
        prior = half_cauchy()
        rng = self.probe_rng
        norms = rng.choice(self.NORMS, self.PROBES)
        u = norms + rng.standard_normal(self.PROBES)
        z = u * u + rng.chisquare(self.P - 1, self.PROBES)
        g1, g2 = posterior.kappa_moment12_batch(prior, self.P, z)
        failures = []
        for k, zk in enumerate(z):
            state = posterior.update(prior, self.P, float(zk), 1.0)
            rel = max(_rel(float(batch), posterior.kappa_moment(state, order))
                      for order, batch in ((1, g1[k]), (2, g2[k])))
            if not rel <= 1e-9:
                failures.append(f"batch moments at Z={zk:.6g}: rel {rel:.2e}")
        return [Job("probes", self.PROBES, failures=failures)]


class GibbsProfile:
    """Two ``hibshrink marglik-profile`` chains per job on one canonical dataset."""

    name = "gibbs-profile"
    op_kind = item_kind = "pair"
    min_ops = 2
    host_elasticity = 1.0
    ITERS, BURN_IN, GRID_SIZE = 30_000, 5_000, 200

    def __init__(self, seed: int, out_dir) -> None:
        self.rng = np.random.default_rng(seed)
        self.outs = [str(out_dir / f"gibbs-{k}.csv") for k in (0, 1)]

    def _argv(self, data_seed: int, chain: int, iters: int, burn_in: int) -> tuple:
        return (
            "marglik-profile", "--seed", str(data_seed + chain),
            "--data-seed", str(data_seed), "--iters", str(iters),
            "--burn-in", str(burn_in), "--out", self.outs[chain],
        )

    def _pair(self, kind: str, data_seed: int, iters: int, burn_in: int) -> Job:
        argv = tuple(self._argv(data_seed, k, iters, burn_in) for k in (0, 1))
        return Job(kind, 2 * iters, argv, payload=(data_seed,))

    def jobs(self):
        while True:
            data_seed = int(self.rng.integers(2**31))
            yield self._pair("pair", data_seed, self.ITERS, self.BURN_IN)

    def warm_up(self) -> list[Job]:
        return [self._pair("warm-up", 0, 300, 100)]

    def execute(self, job: Job) -> None:
        for argv in job.argv:
            code = cli.main(list(argv))
            if code != 0:
                raise RuntimeError(f"exit code {code}")

    def collect(self, job: Job) -> None:
        texts = []
        for path in self.outs:
            with open(path) as handle:
                texts.append(handle.read())
        job.result = texts

    def check(self, job: Job) -> list[str]:
        (data_seed,) = job.payload
        hc = half_cauchy()
        grid = np.linspace(10.0 / self.GRID_SIZE, 10.0, self.GRID_SIZE)
        failures = []
        for chain, (argv, text) in enumerate(zip(job.argv, job.result)):
            failures += _manifest_failures(text, argv, data_seed + chain)
            rows = np.array(_body(text), dtype=float)
            if rows.shape != (self.GRID_SIZE, 4):
                failures.append(f"chain {chain}: table shape {rows.shape}")
                continue
            lam, profile, hc_col, ig_col = rows.T
            if not np.array_equal(lam, grid):
                failures.append(f"chain {chain}: lambda grid differs")
            if not (np.all(np.isfinite(profile)) and np.all((profile >= 0) & (profile <= 1))):
                failures.append(f"chain {chain}: profile outside [0, 1]")
            if profile.max() != 1.0:
                failures.append(f"chain {chain}: profile max {profile.max()!r} != 1")
            for k, lam_k in enumerate(lam):
                if _rel(hc_col[k], density_lambda(hc, lam_k)) > 1e-12:
                    failures.append(f"chain {chain}: half-Cauchy overlay at {lam_k}")
                if _rel(ig_col[k], sparse.ig_induced_density(lam_k)) > 1e-12:
                    failures.append(f"chain {chain}: IG overlay at {lam_k}")
        return failures

    def finish(self, jobs) -> list[Job]:
        return []


PRIORS = tuple(
    HIBParams(a, b, tau2, s)
    for a in (0.5, 1.0)
    for b in (0.5, 1.0)
    for tau2 in (0.25, 1.0, 4.0)
    for s in (-1.0, 0.0, 3.0)
)
# step of the 2-D R2 sequence, (1/g, 1/g^2) with g the plastic number
R2_STEP = np.array([0.7548776662466927, 0.5698402909980532])
DENSITY_GRIDS = {"lambda": "0.05:4:81", "lambda2": "0.05:16:81", "kappa": "0.01:0.99:81"}


def _mp_kappa_mean(prior: HIBParams, p: int, z: float) -> float:
    """E(kappa | p, Z) as a ratio of 20-digit mpmath integrals, split at the peak."""
    import mpmath as mp

    with mp.workdps(20):
        a = mp.mpf(prior.a) + mp.mpf(p) / 2
        b = mp.mpf(prior.b)
        inv_tau2 = 1 / mp.mpf(prior.tau2)
        w = mp.mpf(prior.s) + mp.mpf(z) / 2
        peak = (a - 1) / w if w > a else mp.mpf(0.5)
        width = mp.sqrt(a) / max(w, 1)
        cuts = {peak + k * width for k in (-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16)}
        points = sorted({mp.mpf(0), mp.mpf(1)} | {c for c in cuts if 0 < c < 1})

        def kernel(extra):
            return lambda k: (k ** (a - 1 + extra) * (1 - k) ** (b - 1)
                              / (inv_tau2 + (1 - inv_tau2) * k) * mp.exp(-w * k))

        return float(mp.quad(kernel(1), points) / mp.quad(kernel(0), points))


class ExactFits:
    """Closed loop of ``shrink`` fits with a density grid every ~18 fits."""

    name = "exact-fits"
    op_kind = "fit"
    item_kind = "density"
    min_ops = 1_000
    host_elasticity = 1.0
    BLOCK, DENSITIES_PER_BLOCK, ORACLE_SHARE = 36, 2, 0.02
    Z_MAX = 2000.0

    def __init__(self, seed: int, out_dir) -> None:
        self.rng = np.random.default_rng(seed)
        self.out = str(out_dir / "density.csv")
        self.oracle_mismatch = 0
        self.oracle_sample = []  # (job, kappa_bar) of the sampled fits

    def _fit(self, p: int, z: float, prior: HIBParams) -> Job:
        g = self.rng.standard_normal(p)
        y = g * (math.sqrt(z) / math.sqrt(float(g @ g)))
        oracle = bool(self.rng.random() < self.ORACLE_SHARE)
        return Job("fit", 1, payload=(y, prior), oracle=oracle)

    def _density(self, var: str, prior: HIBParams) -> Job:
        spec = f"{prior.a:g},{prior.b:g},{prior.tau2:g},{prior.s:g}"
        argv = ("prior-density", "--var", var, "--prior", spec,
                "--grid", DENSITY_GRIDS[var], "--out", self.out)
        return Job("density", 81, argv, payload=(var, prior))

    def jobs(self):
        """Blocks of 36 fits, every prior once.  Within each tau^2 class,
        (log Z, p) follow a seed-shifted R2 low-discrepancy sequence, so any
        run length covers the (Z, p) square evenly: the slow corner (large Z,
        tau^2 != 1) that sets the p99 is neither over- nor under-drawn."""
        classes = {}
        for k, prior in enumerate(PRIORS):
            classes.setdefault(prior.tau2, []).append(k)
        phase = {tau2: self.rng.random(2) for tau2 in classes}
        n_density = 0
        density_order = []
        while True:
            z = np.empty(self.BLOCK)
            p = np.empty(self.BLOCK, dtype=int)
            for tau2, members in classes.items():
                for k in self.rng.permutation(members):
                    phase[tau2] = (phase[tau2] + R2_STEP) % 1.0
                    z[k] = math.exp(phase[tau2][0] * math.log(self.Z_MAX))
                    p[k] = 5 + int(phase[tau2][1] * 46)
            order = self.rng.permutation(self.BLOCK)
            slots = set(self.rng.choice(self.BLOCK, self.DENSITIES_PER_BLOCK, replace=False))
            for k in range(self.BLOCK):
                yield self._fit(int(p[order[k]]), float(z[order[k]]), PRIORS[order[k]])
                if k in slots:
                    if not density_order:
                        density_order = list(self.rng.permutation(len(PRIORS)))
                    var = tuple(DENSITY_GRIDS)[n_density % len(DENSITY_GRIDS)]
                    n_density += 1
                    yield self._density(var, PRIORS[density_order.pop()])

    def warm_up(self) -> list[Job]:
        return [self._fit(20, 100.0, PRIORS[0]), self._density("lambda", PRIORS[0])]

    def execute(self, job: Job) -> None:
        if job.kind == "density":
            code = cli.main(list(job.argv))
            if code != 0:
                raise RuntimeError(f"exit code {code}")
        else:
            job.result = posterior.shrink(job.payload[0], 1.0, job.payload[1])

    def collect(self, job: Job) -> None:
        if job.kind == "density":
            with open(self.out) as handle:
                job.result = handle.read()

    def check(self, job: Job) -> list[str]:
        if job.kind == "density":
            return self._check_density(job)
        y, prior = job.payload
        fit = job.result
        failures = []
        if not 0.0 < fit.kappa_bar < 1.0 or not math.isfinite(fit.log_marginal):
            failures.append(f"fit out of range: kappa {fit.kappa_bar}, log m {fit.log_marginal}")
        if not np.array_equal(fit.post_mean, (1.0 - fit.kappa_bar) * y):
            failures.append("posterior mean is not (1 - kappa) y")
        if job.oracle:
            self.oracle_sample.append((job, fit.kappa_bar))
        return failures

    def _check_density(self, job: Job) -> list[str]:
        """The lambda^2 / kappa change of variables holds to 1e-12 at every point."""
        var, prior = job.payload
        failures = _manifest_failures(job.result, job.argv, 0)
        rows = _body(job.result)
        if len(rows) != job.items:
            failures.append(f"{len(rows)} density rows")
        for tag, x, dens in rows:
            x, dens = float(x), float(dens)
            if var == "kappa":
                want = density_lambda2(prior, (1.0 - x) / x) / (x * x)
            else:
                lam2 = x * x if var == "lambda" else x
                kappa = 1.0 / (1.0 + lam2)
                want = density_kappa(prior, kappa) * kappa * kappa
                if var == "lambda":
                    want *= 2.0 * x
            if tag != var or not (math.isfinite(dens) and _rel(dens, want) <= 1e-12):
                failures.append(f"{var} density at {x}: {dens} vs {want}")
        return failures

    def finish(self, jobs) -> list[Job]:
        """The sampled fits against mpmath; a mismatch fails that fit's job."""
        for job, kappa_bar in self.oracle_sample:
            y, prior = job.payload
            z = float(y @ y)
            rel = _rel(kappa_bar, _mp_kappa_mean(prior, y.size, z))
            if not rel <= 1e-6:
                job.failures.append(f"kappa mean vs mpmath at p={y.size} Z={z:.6g}: rel {rel:.2e}")
            quad = quadrature.oracle_hib_moment(prior, 1, y.size, z)
            self.oracle_mismatch += _rel(kappa_bar, quad) > 1e-6
        return []


WORKLOADS = {cls.name: cls for cls in (RiskCurve, GibbsProfile, ExactFits)}
