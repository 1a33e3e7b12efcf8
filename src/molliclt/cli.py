"""Command-line driver: configuration, caches, experiment wiring, and
structured (atomic, reproducible) outputs.

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
from .characters import build_table, gauss_sums_all
from .dirichlet_l import (
    CentralValueSet,
    cached_afe_values,
    l_values_afe,
    l_values_oracle,
    save_l_values,
    twisted_second_moment,
)
from .hecke_rankin import (
    RankinSelbergPair,
    delta_form,
    expected_weight_euler,
    f_p,
    g_p,
    quadrature_expectation,
    v_cutoff,
    weight16_form,
)
from .mollifier import (
    MollifierParams,
    build_dirichlet_mollifier,
    m_alpha_beta,
    params_desk,
    params_paper,
    prime_sum_polynomial,
)
from .random_model import exact_expectation, mc_expectation, moment_identity_check
from .stats import clt_experiment, write_charfn_csv, write_interval_csv

EXIT_OK = 0
EXIT_SUITE = 1
EXIT_CONFIG = 2

_COMMANDS = ("characters", "lvalues", "clt", "random", "second-moment")
_TAIL_CUT = 40.0  # AFE tail cut of the central values lvalues caches and clt uses
_GRAM_BLOCK = 1 << 14  # labels per block of the characters orthogonality check


@dataclass
class RunConfig:
    """Effective settings for one command run (file < flags precedence)."""

    q: int | None = None
    mode: str = "desk"
    eta: float = 0.9
    c0: float = 1.0
    theta: tuple[float, ...] = (0.25,)
    seed: int = 1
    mc_samples: int = 2000
    out: str = "."

    def validate(self) -> None:
        if self.q is None:
            raise ValueError("missing required field: q")
        if not (self.q >= 3 and is_prime(self.q)):
            raise ValueError(f"q must be an odd prime >= 3, got {self.q}")
        if self.mode not in ("desk", "paper"):
            raise ValueError(f"mode must be desk or paper, got {self.mode!r}")
        if self.mode == "desk" and not self.theta:
            raise ValueError("desk mode needs at least one theta value")
        if self.mc_samples < 100:
            raise ValueError("mc_samples must be at least 100")

    def mollifier_params(self) -> MollifierParams:
        if self.mode == "paper":
            return params_paper(self.q, eta=self.eta, c0=max(self.c0, 2.0))
        return params_desk(self.q, list(self.theta), c0=self.c0)

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


def _theta_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        file_vals = _parse_config_file(args.config)
        for key, val in file_vals.items():
            if key == "q":
                cfg.q = int(val)
            elif key == "mode":
                cfg.mode = val
            elif key in ("eta", "c0"):
                setattr(cfg, key, float(val))
            elif key == "theta":
                cfg.theta = _theta_tuple(val)
            elif key in ("seed", "mc_samples"):
                setattr(cfg, key, int(val))
            elif key == "out":
                cfg.out = val
            else:
                raise ValueError(f"unknown config key: {key}")
    for name, attr in (
        ("q", "q"), ("mode", "mode"), ("eta", "eta"), ("c0", "c0"),
        ("seed", "seed"), ("mc", "mc_samples"), ("out", "out"),
    ):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, attr, val)
    if getattr(args, "theta", None) is not None:
        cfg.theta = _theta_tuple(args.theta)
    return cfg


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
    path = os.path.join(cfg.out, f"{name}_q{cfg.q}.json")
    atomic_write(path, (json.dumps(body, indent=2, default=repr) + "\n").encode("utf-8"))
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
        cached = cached_afe_values(_cache_path(cfg), table, 0.5, _TAIL_CUT)
    except (OSError, ValueError):
        cached = None
    if cached is not None:
        return cached, "cache"
    return l_values_afe(table, 0.5, tail_cut=_TAIL_CUT, residuals=True), "computed"


# ---------------------------------------------------------------------------
# commands

def cmd_characters(cfg: RunConfig) -> int:
    table = build_table(cfg.q)
    span = min(cfg.q - 1, 100)
    # Gram matrix of the characters on [1, span] over all labels 0..q-2
    # (principal included), a block of labels at a time, with
    # chi_a(n) = roots[a ind(n) mod m] read off the table
    logs = table.index[1 : span + 1]
    gram = np.zeros((span, span), dtype=np.complex128)
    for start in range(0, table.m, _GRAM_BLOCK):
        labels = np.arange(start, min(start + _GRAM_BLOCK, table.m), dtype=np.int64)
        chi = table.roots[np.outer(labels, logs) % table.m]
        gram += chi.conj().T @ chi
    residual = float(np.max(np.abs(gram / table.m - np.eye(span))))
    gauss = gauss_sums_all(table)
    gauss_residual = float(np.max(np.abs(np.abs(gauss[1:]) ** 2 - table.q)))
    ok = residual < 1e-10 and gauss_residual < 1e-9 * table.q
    path = _write_report(cfg, "characters", {
        "orthogonality_span": span,
        "orthogonality_residual": residual,
        "gauss_sum_residual": gauss_residual,
        "passed": ok,
    })
    print(f"characters: residuals {residual:.3e} / {gauss_residual:.3e} -> {path}")
    return EXIT_OK if ok else EXIT_SUITE


def cmd_lvalues(cfg: RunConfig) -> int:
    table = build_table(cfg.q)
    values = l_values_afe(table, 0.5, tail_cut=_TAIL_CUT, residuals=True)
    stats = values.residual_stats
    cache = _cache_path(cfg)
    save_l_values(cache, cfg.q, 0.5, values.values, tail_cut=_TAIL_CUT, residual_stats=stats)
    oracle_max = None
    if cfg.q <= 2000:
        oracle = l_values_oracle(table, 0.5)
        oracle_max = float(np.max(np.abs(values.values[1:] - oracle.values[1:])))
    ok = stats["max"] < 1e-8 and (oracle_max is None or oracle_max < 1e-8)
    path = _write_report(cfg, "lvalues", {
        "cache_file": cache,
        "fe_residual_max": stats["max"],
        "fe_residual_mean": stats["mean"],
        "oracle_discrepancy_max": oracle_max,
        "passed": ok,
    })
    print(f"lvalues: fe residual {stats['max']:.3e} -> {path}")
    return EXIT_OK if ok else EXIT_SUITE


def cmd_clt(cfg: RunConfig) -> int:
    table = build_table(cfg.q)
    params = cfg.mollifier_params()
    l_values, source = _central_values(cfg, table)
    report = clt_experiment(table, params, l_values=l_values)
    base = os.path.join(cfg.out, f"clt_q{cfg.q}")
    os.makedirs(cfg.out, exist_ok=True)
    write_interval_csv(report, base + "_intervals.csv")
    write_charfn_csv(report.u_grid, report.phi, base + "_charfn_weighted.csv")
    write_charfn_csv(report.u_grid, report.psi, base + "_charfn_plain.csv")
    worst_im = max(abs(row.mu.imag) for row in report.rows)
    ok = report.ks_weighted <= 0.25 and worst_im <= 0.1
    path = _write_report(cfg, "clt", {
        "sigma_hat": report.sigma_hat,
        "exclusions": report.exclusion_count,
        "ks_weighted": report.ks_weighted,
        "ks_weighted_filtered": report.ks_weighted_filtered,
        "ks_plain": report.ks_plain,
        "max_interval_im": worst_im,
        "typical_set_kept": report.filter_report.kept_count,
        # health of the central values, reported but not gated
        "fe_residual_max": l_values.residual_stats["max"],
        "fe_residual_mean": l_values.residual_stats["mean"],
        "l_values_source": source,
        "intervals_csv": base + "_intervals.csv",
        "passed": ok,
        "wall_time": report.wall_time,
    })
    print(f"clt: ks {report.ks_weighted:.4f} (plain {report.ks_plain:.4f}) -> {path}")
    return EXIT_OK if ok else EXIT_SUITE


def cmd_random(cfg: RunConfig) -> int:
    table = build_table(cfg.q)
    params = cfg.mollifier_params()
    checks: dict[str, dict] = {}
    suite_ok = True

    def record(name: str, ok: bool, **detail) -> None:
        nonlocal suite_ok
        suite_ok = suite_ok and ok
        checks[name] = {"passed": ok, **detail}

    poly = prime_sum_polynomial(params)
    p_max = int(poly.support[-1])
    for k in (1, 2):
        if p_max ** (2 * k) >= cfg.q:
            record(f"moment_identity_k{k}", True, skipped="support reaches q")
            continue
        ident = moment_identity_check(table, params, k)
        gap = abs(ident.char_side - ident.random_side)
        record(
            f"moment_identity_k{k}",
            gap < 1e-10 and ident.char_side <= ident.bound,
            char_side=ident.char_side, random_side=ident.random_side,
            bound=ident.bound, gap=gap,
        )

    exact = exact_expectation([(poly, False), (poly, True)]).value.real
    coeffs = poly.scaled_coeff

    def second_moment(s) -> complex:
        z = complex(np.sum(coeffs * s.values))
        return z * np.conj(z)

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
    # slope is reported but not gated: the exact cutoff decays like
    # xi^(-1.5) in this range, steepening only far beyond it
    record("cutoff", 0.999 <= v_small <= 1.001 and slope < -1.0 and shift_gap < 1e-10,
           v_at_1e8=v_small, loglog_slope=slope, contour_shift_gap=shift_gap)

    fg, gf = expected_weight_euler(pair, params)
    record("euler_weight", math.isfinite(fg) and fg > 0 and abs(gf) < 0.5 * abs(fg),
           fg=fg, gf=gf)

    path = _write_report(cfg, "random", {"checks": checks, "passed": suite_ok})
    print(f"random: {'ok' if suite_ok else 'FAILED'} -> {path}")
    return EXIT_OK if suite_ok else EXIT_SUITE


def cmd_second_moment(cfg: RunConfig) -> int:
    table = build_table(cfg.q)
    params = cfg.mollifier_params()
    alpha, beta = 0.02, 0.015
    mol = build_dirichlet_mollifier(params)
    variants = {
        name: m_alpha_beta(params, alpha, beta, variant=name, mol=mol)
        for name in ("direct", "moebius", "euler")
    }
    vals = list(variants.values())
    scale = max(abs(v) for v in vals)
    spread = max(abs(v - vals[0]) for v in vals[1:]) / scale
    ok = spread < 1e-12

    moment = twisted_second_moment(table, alpha, beta, mol.support, mol.coeff)
    path = _write_report(cfg, "second-moment", {
        "alpha": alpha,
        "beta": beta,
        "m_variants": {k: repr(v) for k, v in variants.items()},
        "variant_relative_spread": spread,
        "empirical": repr(moment.empirical),
        "predicted": repr(moment.predicted),
        "discrepancy": moment.discrepancy,
        "error_scale": moment.error_scale,
        "passed": ok,
    })
    print(f"second-moment: variant spread {spread:.3e} -> {path}")
    return EXIT_OK if ok else EXIT_SUITE


# ---------------------------------------------------------------------------
# entry point

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=int, help="prime modulus")
    parser.add_argument("--mode", choices=("desk", "paper"), help="parameter regime")
    parser.add_argument("--eta", type=float, help="paper-mode eta")
    parser.add_argument("--c0", type=float, help="smallest mollifier prime bound")
    parser.add_argument("--theta", type=str, help="desk-mode exponents, comma separated")
    parser.add_argument("--seed", type=int, help="random-model seed")
    parser.add_argument("--mc", type=int, help="Monte Carlo sample count")
    parser.add_argument("--out", type=str, help="output directory")
    parser.add_argument("--config", type=str, help="key=value config file")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="molliclt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"molliclt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers: dict[str, Callable[[RunConfig], int]] = {
        "characters": cmd_characters,
        "lvalues": cmd_lvalues,
        "clt": cmd_clt,
        "random": cmd_random,
        "second-moment": cmd_second_moment,
    }
    for name in _COMMANDS:
        _add_common(sub.add_parser(name))
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        cfg.validate()
    except (ValueError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return handlers[args.command](cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_SUITE


if __name__ == "__main__":
    sys.exit(main())
