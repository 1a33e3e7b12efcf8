"""Command-line driver: configuration, caches, experiment wiring, and
structured (atomic, reproducible) outputs.

The Hecke, random-model and statistics modules are imported by the
commands that run them, so the other commands start without them.

Exit codes: 0 success, 1 an assertion suite failed, 2 invalid
configuration.  Every JSON output embeds the effective configuration,
its hash, and the seed; the only fields allowed to vary between reruns
of one configuration are the timestamp and wall-time lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import __version__
from ._io import atomic_write
from .arith import is_prime
from .characters import MAX_MODULUS, build_table, gauss_sums_all, orthogonality_gram, roots_residual
from .dirichlet_l import (
    CentralValueSet,
    cached_afe_values,
    check_even_family,
    check_twist_length,
    l_values_afe,
    l_values_oracle,
    save_l_values,
    twisted_second_moment,
)
from .mollifier import (
    MollifierParams,
    build_dirichlet_mollifier,
    check_desk_params,
    check_first_interval,
    check_pair_budget,
    largest_support_element,
    m_alpha_beta,
    params_desk,
    prime_sum_polynomial,
)

EXIT_OK = 0
EXIT_SUITE = 1
EXIT_CONFIG = 2

_MAX_MC_SAMPLES = 1_000_000  # Monte Carlo draws (10^6 take about a second)


def _theta_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


# One entry per setting: (key, flag, parser, help).  The key names both the
# RunConfig field and the config-file key; flags and file values are parsed
# by the same parser.
_SETTINGS = (
    ("q", "--q", int, "prime modulus"),
    ("c0", "--c0", float, "lower end of the first mollifier interval"),
    ("theta", "--theta", _theta_tuple, "mollifier interval exponents, comma separated"),
    ("seed", "--seed", int, "random-model seed"),
    ("mc_samples", "--mc", int, "Monte Carlo sample count"),
    ("out", "--out", str, "output directory"),
)


@dataclass
class RunConfig:
    """Effective settings for one command run (file < flags precedence)."""

    q: int | None = None
    c0: float = 1.0
    theta: tuple[float, ...] = (0.25,)
    seed: int = 1
    mc_samples: int = 2000
    out: str = "."

    def validate(self, command: str | None = None) -> None:
        """Every input rule, checked before any table build; with
        ``command``, also the rules of that command.  Only the
        second-moment support count sieves, and only intervals that the
        twist-length rule has already bounded by sqrt(q)."""
        if self.q is None:
            raise ValueError("missing required field: q")
        if not (3 <= self.q <= MAX_MODULUS and is_prime(self.q)):
            raise ValueError(f"q must be an odd prime in [3, {MAX_MODULUS}], got {self.q}")
        if self.mc_samples < 100:
            raise ValueError(f"mc_samples (--mc) must be at least 100, got {self.mc_samples}")
        if self.mc_samples > _MAX_MC_SAMPLES:
            raise ValueError(f"mc_samples (--mc) must be at most {_MAX_MC_SAMPLES}, got {self.mc_samples}")
        theta = check_desk_params(self.q, self.theta, self.c0)
        if command in ("clt", "random"):
            check_first_interval(self.q, theta, self.c0)
        if command == "random":
            from .hecke_rankin import check_euler_range

            check_euler_range(float(self.q) ** theta[-1])
        if command == "second-moment":
            check_even_family(self.q)
            check_twist_length(largest_support_element(self.q, theta, self.c0), self.q)
            check_pair_budget(self.q, theta, self.c0)

    def mollifier_params(self) -> MollifierParams:
        return params_desk(self.q, self.theta, c0=self.c0)

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            out[f.name] = list(val) if isinstance(val, tuple) else val
        return out

    def digest(self) -> str:
        lines = "\n".join(f"{k}={v!r}" for k, v in sorted(self.as_dict().items()))
        return hashlib.sha256(lines.encode()).hexdigest()


def _parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; # comments and [section] headers are skipped."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("["):
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {line!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    """The config file's settings, overridden by the flags given."""
    texts = _parse_config_file(args.config) if args.config else {}
    known = {key for key, *_ in _SETTINGS}
    for key in texts:
        if key not in known:
            raise ValueError(f"unknown config key: {key}")
    values = {}
    for key, flag, parse, _ in _SETTINGS:
        text = texts.get(key) if getattr(args, key) is None else getattr(args, key)
        if text is not None:
            try:
                values[key] = parse(text)
            except ValueError:
                raise ValueError(f"{key} ({flag}) cannot be read from {text!r}") from None
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# output plumbing

def _write_report(cfg: RunConfig, name: str, payload: dict) -> str:
    """JSON report with standard metadata; volatile fields get their own lines."""
    body = {
        "command": name,
        "version": __version__,
        "config": cfg.as_dict(),
        "config_hash": cfg.digest(),
        "seed": cfg.seed,
        **payload,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    try:
        text = json.dumps(body, indent=2, default=repr, allow_nan=False)
    except ValueError:
        bad = []
        for key, value in body.items():
            try:
                json.dumps(value, default=repr, allow_nan=False)
            except ValueError:
                bad.append(key)
        raise ValueError(f"{name} report field(s) {', '.join(bad)} hold a non-finite float") from None
    path = os.path.join(cfg.out, f"{name}_q{cfg.q}.json")
    atomic_write(path, (text + "\n").encode("utf-8"))
    return path


def _cache_path(cfg: RunConfig) -> str:
    directory = os.environ.get("MOLLICLT_CACHE_DIR", os.path.join(cfg.out, "cache"))
    return os.path.join(directory, f"lvalues_q{cfg.q}.bin")


def _central_values(cfg: RunConfig, table) -> tuple[CentralValueSet, str]:
    """L(1/2, chi) for every label, and where they came from: "cache" or "computed".

    The ``lvalues`` cache is used only when it holds exactly the values
    this run would compute (see :func:`cached_afe_values`); an unreadable
    or mismatched file is ignored.  Nothing here writes the cache.
    """
    try:
        cached = cached_afe_values(_cache_path(cfg), table, 0.5)
    except (OSError, ValueError):
        cached = None
    if cached is not None:
        return cached, "cache"
    return l_values_afe(table, 0.5), "computed"


# ---------------------------------------------------------------------------
# commands: each returns (passed, report fields, one-line summary)

Outcome = tuple[bool, dict, str]


def cmd_characters(cfg: RunConfig) -> Outcome:
    table = build_table(cfg.q)
    span = min(cfg.q - 1, 100)
    # Gram matrix of the characters on [1, span] over all labels 0..q-2
    # (principal included), factored over blocks of labels; it reads only
    # part of the roots table, so every slot is also checked directly
    gram = orthogonality_gram(table, span)
    residual = float(np.max(np.abs(gram / table.m - np.eye(span))))
    roots = roots_residual(table)
    gauss = gauss_sums_all(table)
    gauss_residual = float(np.max(np.abs(np.abs(gauss[1:]) ** 2 - table.q)))
    # the roots gate sits about 60 times above the measured 1.2e-15, 1.4e-15
    # and 1.7e-15 at q = 10007, 1000003 and 9999991
    ok = residual < 1e-10 and roots < 1e-13 and gauss_residual < 1e-9 * table.q
    return ok, {
        "orthogonality_span": span,
        "orthogonality_residual": residual,
        "roots_residual": roots,
        "gauss_sum_residual": gauss_residual,
    }, f"residuals {residual:.3e} / {roots:.3e} / {gauss_residual:.3e}"


def cmd_lvalues(cfg: RunConfig) -> Outcome:
    table = build_table(cfg.q)
    values = l_values_afe(table, 0.5)
    stats = values.residual_stats
    cache = _cache_path(cfg)
    save_l_values(cache, values)
    oracle_max = None
    if cfg.q <= 2000:
        oracle = l_values_oracle(table, 0.5)
        oracle_max = float(np.max(np.abs(values.values[1:] - oracle.values[1:])))
    ok = stats["max"] < 1e-8 and (oracle_max is None or oracle_max < 1e-8)
    return ok, {
        "cache_file": cache,
        "fe_residual_max": stats["max"],
        "fe_residual_mean": stats["mean"],
        "oracle_discrepancy_max": oracle_max,
    }, f"fe residual {stats['max']:.3e}"


def cmd_clt(cfg: RunConfig) -> Outcome:
    from .stats import clt_experiment, write_charfn_csv, write_interval_csv

    params = cfg.mollifier_params()
    table = build_table(cfg.q)
    l_values, source = _central_values(cfg, table)
    report = clt_experiment(table, params, l_values)
    base = os.path.join(cfg.out, f"clt_q{cfg.q}")
    write_interval_csv(report, base + "_intervals.csv")
    write_charfn_csv(report.u_grid, report.phi, base + "_charfn_weighted.csv")
    write_charfn_csv(report.u_grid, report.psi, base + "_charfn_plain.csv")
    worst_im = max(abs(row.mu.imag) for row in report.rows)
    ok = report.ks_weighted <= 0.25 and worst_im <= 0.1
    filt = report.filter_report
    return ok, {
        "sigma_hat": report.sigma_hat,
        "exclusions": report.exclusion_count,
        "ks_weighted": report.ks_weighted,
        "ks_weighted_filtered": report.ks_weighted_filtered,
        "ks_plain": report.ks_plain,
        "max_interval_im": worst_im,
        "typical_set_kept": filt.kept_count,
        "typical_set_dropped_weight_band": filt.dropped_weight_band,
        "typical_set_dropped_tail_product": filt.dropped_tail_product,
        "typical_set_dropped_prime_sum": filt.dropped_prime_sum,
        "typical_set_tail_bound": filt.tail_bound,
        # health of the central values, reported but not gated
        "fe_residual_max": l_values.residual_stats["max"],
        "fe_residual_mean": l_values.residual_stats["mean"],
        "l_values_source": source,
        "intervals_csv": base + "_intervals.csv",
        "wall_time": report.wall_time,
    }, f"ks {report.ks_weighted:.4f} (plain {report.ks_plain:.4f})"


def cmd_random(cfg: RunConfig) -> Outcome:
    from .hecke_rankin import (
        RankinSelbergPair, delta_form, expected_weight_euler, f_p, g_p, quadrature_expectation, v_cutoff,
        weight16_form,
    )
    from .random_model import exact_expectation, mc_expectation, moment_identity_check

    params = cfg.mollifier_params()
    checks: dict[str, dict] = {}

    def record(name: str, ok: bool, **detail) -> None:
        checks[name] = {"passed": ok, **detail}

    poly = prime_sum_polynomial(params)
    p_max = int(poly.support[-1])
    # one transform serves both moments; k = 2 is checked only where k = 1
    # is, and without k = 1 no table is built
    p_all = poly.evaluate_all(build_table(cfg.q)) if p_max**2 < cfg.q else None
    for k in (1, 2):
        if p_max ** (2 * k) >= cfg.q:
            record(f"moment_identity_k{k}", True, skipped="support reaches q")
            continue
        ident = moment_identity_check(p_all, poly, k)
        gap = abs(ident.char_side - ident.random_side)
        record(
            f"moment_identity_k{k}",
            gap < 1e-10 and ident.char_side <= ident.bound,
            char_side=ident.char_side, random_side=ident.random_side,
            bound=ident.bound, gap=gap,
        )

    exact = exact_expectation(poly, 1)
    coeffs = poly.scaled_coeff

    def second_moment(x: np.ndarray) -> np.ndarray:
        z = np.sum(coeffs * x, axis=1)
        return z.real**2 + z.imag**2

    mc = mc_expectation(second_moment, poly.support, cfg.mc_samples, cfg.seed)
    mc_gap = abs(mc.value.real - exact)
    record("mc_vs_exact", mc_gap <= 5 * mc.standard_error + 1e-12,
           exact=exact, mc=mc.value.real, se=mc.standard_error)

    pair = RankinSelbergPair(delta_form(), weight16_form())
    worst = 0.0
    for p in (2, 3, 5, 7, 11):
        for a in (0, 1):
            series = (g_p if a == 0 else f_p)(pair, p, 0.0, params)
            direct = quadrature_expectation(pair, p, 0.0, a, params)
            if a == 1:
                minus = quadrature_expectation(pair, p, 0.0, -1, params)
                direct = 0.5 * (direct + minus)
            worst = max(worst, abs(series - direct))
    record("local_expectation_quadrature", worst < 1e-8, max_gap=worst)

    v_small = v_cutoff(1e-8)
    slope = (math.log(v_cutoff(400.0)) - math.log(v_cutoff(50.0))) / (math.log(400.0) - math.log(50.0))
    shift_gap = abs(v_cutoff(1.0, contour_re=2.0) - v_cutoff(1.0, contour_re=2.2))
    # the slope gate asks only for decay faster than 1/xi: the exact
    # cutoff decays like xi^(-1.5) in this range, steepening only far beyond it
    record("cutoff", 0.999 <= v_small <= 1.001 and slope < -1.0 and shift_gap < 1e-10,
           v_at_1e8=v_small, loglog_slope=slope, contour_shift_gap=shift_gap)

    fg, gf = expected_weight_euler(pair, params)
    record("euler_weight", math.isfinite(fg) and fg > 0 and abs(gf) < 0.5 * abs(fg),
           fg=fg, gf=gf)

    ok = all(check["passed"] for check in checks.values())
    return ok, {"checks": checks}, "ok" if ok else "FAILED"


def cmd_second_moment(cfg: RunConfig) -> Outcome:
    table = build_table(cfg.q)
    params = cfg.mollifier_params()
    alpha, beta = 0.02, 0.015
    mol = build_dirichlet_mollifier(params)
    moment = twisted_second_moment(table, alpha, beta, mol.support, mol.coeff)
    # the moment's diagonal term has already run the direct route on this
    # mollifier; running the routes after the moment keeps their first-use
    # memory off its peak
    variants = {
        "direct": moment.m_diagonal,
        **{name: m_alpha_beta(params, alpha, beta, variant=name, mol=mol) for name in ("moebius", "euler")},
    }
    vals = list(variants.values())
    scale = max(abs(v) for v in vals)
    spread = max(abs(v - vals[0]) for v in vals[1:]) / scale
    return spread < 1e-12, {
        "alpha": alpha,
        "beta": beta,
        "m_variants": {k: repr(v) for k, v in variants.items()},
        "variant_relative_spread": spread,
        "empirical": repr(moment.empirical),
        "predicted": repr(moment.predicted),
        "diagonal_term": repr(moment.diagonal_term),
        "reflected_term": repr(moment.reflected_term),
        "discrepancy": moment.discrepancy,
        # health fields, reported but not gated
        "relative_discrepancy": moment.relative_discrepancy,
        "error_scale": moment.error_scale,
    }, f"variant spread {spread:.3e}"


_COMMANDS: dict[str, Callable[[RunConfig], Outcome]] = {
    "characters": cmd_characters,
    "lvalues": cmd_lvalues,
    "clt": cmd_clt,
    "random": cmd_random,
    "second-moment": cmd_second_moment,
}


# ---------------------------------------------------------------------------
# entry point

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="molliclt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"molliclt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        command = sub.add_parser(name)
        for key, flag, _, help_text in _SETTINGS:
            command.add_argument(flag, dest=key, help=help_text)
        command.add_argument("--config", help="key=value config file; flags override it")
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        cfg.validate(args.command)
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        passed, payload, summary = _COMMANDS[args.command](cfg)
        path = _write_report(cfg, args.command, {**payload, "passed": passed})
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_SUITE
    print(f"{args.command}: {summary} -> {path}")
    return EXIT_OK if passed else EXIT_SUITE


if __name__ == "__main__":
    sys.exit(main())
