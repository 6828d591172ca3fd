"""Deterministic command-line front end.

Every subcommand is a pure function of its flags, input files, and seed:
rerunning with the same arguments reproduces the output byte for byte.
File outputs start with a `#`-prefixed manifest block (subcommand, flag
map, seed, tool version) so each artifact is self-describing; CSV numbers
carry 17 significant digits so doubles round-trip exactly.

Exit codes: 0 success, 1 internal numeric failure, 2 usage or domain
error (including an output file that cannot be written), 3 series
convergence failure.  The HIBSHRINK_THREADS environment
variable caps risk-curve parallelism and, at 2 or more, lets each
marglik-profile chain sum its likelihood rows on one helper process; a
value that is not an integer of at least 1 exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .errors import AccuracyError, ConvergenceError, DomainError, HibshrinkError, check_real
from .posterior import shrink
from .prior import (
    HIBParams,
    density_kappa,
    density_lambda,
    density_lambda2,
    half_cauchy,
    hyperbolic_secant_density,
)
from .oracles import phi1_double_series
from .risk import RiskCurveSpec, risk_curve
from .sparse import GibbsConfig, horseshoe_gibbs, simulate_sparse
from .specfun import Phi1Args, phi1

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_NUMERIC = 1
_EXIT_USAGE = 2
_EXIT_CONVERGENCE = 3


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _manifest(subcommand: str, args: argparse.Namespace, seed: int) -> list[str]:
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "out") and value is not None
    }
    payload = json.dumps(params, sort_keys=True, default=str)
    return [
        f"# subcommand: {subcommand}",
        f"# parameters: {payload}",
        f"# seed: {seed}",
        f"# tool_version: {__version__}",
    ]


def _write_lines(path: str, lines: list[str]) -> None:
    try:
        with open(path, "w", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def _parse_prior(text: str) -> HIBParams:
    if text == "half-cauchy":
        return half_cauchy()
    parts = text.split(",")
    if len(parts) != 4:
        raise DomainError(
            "prior must be 'half-cauchy' or four comma-separated values a,b,tau2,s"
        )
    try:
        a, b, tau2, s = (float(part) for part in parts)
    except ValueError as exc:
        raise DomainError(f"could not parse prior {text!r}") from exc
    return HIBParams(a=a, b=b, tau2=tau2, s=s)


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError("grid must be formatted lo:hi:n")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise DomainError(f"could not parse grid {text!r}") from exc
    lo, hi = check_real("grid lo", lo), check_real("grid hi", hi)
    if count < 1 or hi < lo:
        raise DomainError(f"invalid grid {text!r}")
    return _linspace(lo, hi, count, f"grid {text!r}")


def _linspace(lo: float, hi: float, count: int, what: str) -> np.ndarray:
    """``np.linspace(lo, hi, count)``; a count numpy refuses raises DomainError."""
    try:
        return np.linspace(lo, hi, count)
    except ValueError as exc:
        raise DomainError(f"{what}: {exc}") from exc


def _read_values(path: str) -> np.ndarray:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise DomainError(f"cannot read input file {path}: {exc}") from exc
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens.extend(tok for tok in line.replace(",", " ").split() if tok)
    if not tokens:
        raise DomainError(f"input file {path} holds no numeric values")
    try:
        return np.array([float(tok) for tok in tokens])
    except ValueError as exc:
        raise DomainError(f"input file {path} holds non-numeric data") from exc


def _cmd_phi1(args: argparse.Namespace) -> int:
    call = Phi1Args(alpha=args.alpha, beta=args.beta, gamma=args.gamma, x=args.x, y=args.y)
    result = phi1(call)
    record = {
        "value": result.value,
        "terms_used": result.terms_used,
        "converged": result.converged,
    }
    if args.oracle:
        check = phi1_double_series(call)
        scale = max(abs(result.value), abs(check.value), 1e-300)
        record["oracle_value"] = check.value
        record["relative_difference"] = abs(result.value - check.value) / scale
    lines = _manifest("phi1", args, 0)
    lines.append(json.dumps(record, sort_keys=True))
    print("\n".join(lines))
    return _EXIT_OK


def _cmd_prior_density(args: argparse.Namespace) -> int:
    prior = _parse_prior(args.prior)
    grid = _parse_grid(args.grid)
    if args.var == "lambda":
        densities = density_lambda(prior, grid)
    elif args.var == "lambda2":
        densities = density_lambda2(prior, grid)
    elif args.var == "kappa":
        densities = density_kappa(prior, grid)
    else:
        if prior != half_cauchy():
            raise DomainError("var=psi is the half-Cauchy log-scale density only")
        densities = [hyperbolic_secant_density(v) for v in grid]
    lines = _manifest("prior-density", args, 0)
    lines.append("var,value,density")
    lines.extend(
        f"{args.var},{_fmt(v)},{_fmt(d)}" for v, d in zip(grid, densities)
    )
    _write_lines(args.out, lines)
    return _EXIT_OK


def _cmd_shrink(args: argparse.Namespace) -> int:
    prior = _parse_prior(args.prior)
    y = _read_values(args.input)
    fit = shrink(y, args.sigma2, prior)
    record = {
        "kappa_bar": fit.kappa_bar,
        "log_marginal": fit.log_marginal,
        "post_mean": list(fit.post_mean),
        "post_var_scalar": fit.post_var_scalar,
    }
    lines = _manifest("shrink", args, 0)
    lines.append(json.dumps(record, sort_keys=True))
    _write_lines(args.out, lines)
    return _EXIT_OK


def _cmd_risk_curve(args: argparse.Namespace) -> int:
    comparators = frozenset(
        tok for tok in args.compare.split(",") if tok
    ) if args.compare else frozenset()
    spec = RiskCurveSpec(
        p=args.p,
        beta_norms=tuple(_parse_grid(args.grid)),
        n_mc=args.mc,
        seed=args.seed,
        prior=_parse_prior(args.prior),
        comparators=comparators,
    )
    points = risk_curve(spec)
    lines = _manifest("risk-curve", args, args.seed)
    lines.append("estimator,p,beta_norm,mse,mc_std_err,n_mc,seed")
    for pt in points:
        exact = pt.mc_std_err == 0.0
        lines.append(
            f"{pt.estimator_tag},{spec.p},{_fmt(pt.beta_norm)},{_fmt(pt.mse)},"
            f"{_fmt(pt.mc_std_err)},{0 if exact else spec.n_mc},{spec.seed}"
        )
    _write_lines(args.out, lines)
    return _EXIT_OK


def _cmd_marglik_profile(args: argparse.Namespace) -> int:
    if args.grid_size < 2:
        raise DomainError(f"grid-size must be at least 2, got {args.grid_size}")
    size = args.grid_size
    grid = tuple(_linspace(10.0 / size, 10.0, size, f"grid-size {size}"))
    data = simulate_sparse(args.data_seed, pure_noise=args.pure_noise)
    cfg = GibbsConfig(
        n_iter=args.iters, burn_in=args.burn_in, seed=args.seed, lambda_grid=grid
    )
    result = horseshoe_gibbs(data, cfg)
    lines = _manifest("marglik-profile", args, args.seed)
    lines.append("lambda,profile,half_cauchy_density,ig_induced_density")
    for k in range(len(grid)):
        lines.append(
            f"{_fmt(result.lambda_grid[k])},{_fmt(result.profile[k])},"
            f"{_fmt(result.overlay_half_cauchy[k])},{_fmt(result.overlay_ig_induced[k])}"
        )
    _write_lines(args.out, lines)
    return _EXIT_OK


def _cmd_simulate_sparse(args: argparse.Namespace) -> int:
    data = simulate_sparse(args.seed, pure_noise=args.pure_noise)
    lines = _manifest("simulate-sparse", args, args.seed)
    lines.append("row,rep,value")
    for i in range(data.y.shape[0]):
        for j in range(data.y.shape[1]):
            lines.append(f"{i},{j},{_fmt(data.y[i, j])}")
    _write_lines(args.out, lines)
    return _EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hibshrink",
        description="Shrinkage estimation and risk evaluation under "
        "hypergeometric inverted-beta priors on a global scale.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_phi1 = sub.add_parser("phi1", help="evaluate the two-variable confluent series")
    p_phi1.add_argument("--alpha", type=float, required=True)
    p_phi1.add_argument("--beta", type=float, required=True)
    p_phi1.add_argument("--gamma", type=float, required=True)
    p_phi1.add_argument("--x", type=float, required=True)
    p_phi1.add_argument("--y", type=float, required=True)
    p_phi1.add_argument("--oracle", action="store_true",
                        help="also evaluate the direct double series and report the gap")
    p_phi1.set_defaults(func=_cmd_phi1)

    p_dens = sub.add_parser("prior-density", help="tabulate a prior density on a grid")
    p_dens.add_argument("--var", choices=["lambda", "lambda2", "kappa", "psi"], required=True)
    p_dens.add_argument("--prior", default="half-cauchy",
                        help="'half-cauchy' or a,b,tau2,s")
    p_dens.add_argument("--grid", required=True, help="lo:hi:n")
    p_dens.add_argument("--out", required=True)
    p_dens.set_defaults(func=_cmd_prior_density)

    p_shrink = sub.add_parser("shrink", help="posterior-mean fit of a mean vector")
    p_shrink.add_argument("--input", required=True,
                          help="text file of numbers (newline or comma separated)")
    p_shrink.add_argument("--sigma2", type=float, default=1.0)
    p_shrink.add_argument("--prior", default="half-cauchy")
    p_shrink.add_argument("--out", required=True)
    p_shrink.set_defaults(func=_cmd_shrink)

    p_risk = sub.add_parser("risk-curve", help="mean squared error over a norm grid")
    p_risk.add_argument("--p", type=int, required=True)
    p_risk.add_argument("--prior", default="half-cauchy")
    p_risk.add_argument("--grid", required=True, help="lo:hi:n over the mean norm")
    p_risk.add_argument("--mc", type=int, default=200_000)
    p_risk.add_argument("--seed", type=int, default=0)
    p_risk.add_argument("--compare", default="",
                        help="comma-separated subset of js,js_plus,mle")
    p_risk.add_argument("--out", required=True)
    p_risk.set_defaults(func=_cmd_risk_curve)

    p_prof = sub.add_parser("marglik-profile",
                            help="marginal-likelihood profile of the global scale")
    p_prof.add_argument("--seed", type=int, default=0, help="sampler seed")
    p_prof.add_argument("--data-seed", type=int, default=0, dest="data_seed")
    p_prof.add_argument("--iters", type=int, default=20_000)
    p_prof.add_argument("--burn-in", type=int, default=5_000, dest="burn_in")
    p_prof.add_argument("--grid-size", type=int, default=200, dest="grid_size")
    p_prof.add_argument("--pure-noise", action="store_true", dest="pure_noise")
    p_prof.add_argument("--out", required=True)
    p_prof.set_defaults(func=_cmd_marglik_profile)

    p_sim = sub.add_parser("simulate-sparse", help="write the canonical sparse dataset")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--pure-noise", action="store_true", dest="pure_noise")
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate_sparse)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONVERGENCE
    except (AccuracyError, HibshrinkError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
