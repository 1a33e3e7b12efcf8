"""Run one molliclt command in-process with every layer's public
functions wrapped in timing spans, then write the spans to a JSON file.

Usage: python perfbench/traced.py SPANS_JSON COMMAND [ARGS...]

The arguments after SPANS_JSON are passed unchanged to
``molliclt.cli.main``; the process exits with its exit code.  Each
wrapper is installed under every name the package's modules import the
function as, so calls between layers are caught and spans nest.  Hot
helpers (``factorize``, ``nu``, ``gauss_sums_all``, ``root_numbers``)
only count calls: a span per call would cost more than the work.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from molliclt import (  # noqa: E402
    arith,
    characters,
    cli,
    dirichlet_l,
    hecke_rankin,
    mollifier,
    random_model,
    stats,
)

MODULES = (arith, characters, dirichlet_l, mollifier, random_model, hecke_rankin, stats, cli)

# (defining module, attribute, span name); the m_alpha_beta span is named per variant
SPANS = (
    (characters, "build_table", "characters.build_table"),
    (characters, "batch_character_sums", "characters.batch_character_sums"),
    (dirichlet_l, "l_values_afe", "dirichlet_l.l_values_afe"),
    (dirichlet_l, "fe_residual_stats", "dirichlet_l.fe_residual_stats"),
    (dirichlet_l, "twisted_second_moment", "dirichlet_l.twisted_second_moment"),
    (dirichlet_l, "save_l_values", "dirichlet_l.save_l_values"),
    (mollifier, "m_alpha_beta", "mollifier.m_alpha_beta"),
    (mollifier, "build_dirichlet_mollifier", "mollifier.build_dirichlet_mollifier"),
    (mollifier, "dirichlet_interval_piece", "mollifier.dirichlet_interval_piece"),
    (mollifier.DirichletPolynomial, "evaluate_all", "mollifier.evaluate_all"),
    (mollifier, "prime_sums_all", "mollifier.prime_sums_all"),
    (arith, "smooth_integers", "arith.smooth_integers"),
    (hecke_rankin, "delta_form", "hecke_rankin.delta_form"),
    (hecke_rankin, "local_expectation", "hecke_rankin.local_expectation"),
    (hecke_rankin, "quadrature_expectation", "hecke_rankin.quadrature_expectation"),
    (hecke_rankin, "v_cutoff", "hecke_rankin.v_cutoff"),
    (hecke_rankin, "expected_weight_euler", "hecke_rankin.expected_weight_euler"),
    (random_model, "mc_expectation", "random_model.mc_expectation"),
    (random_model, "exact_expectation", "random_model.exact_expectation"),
    (random_model, "moment_identity_check", "random_model.moment_identity_check"),
    (stats, "clt_experiment", "stats.clt_experiment"),
    (stats, "char_fn_plain", "stats.char_fn"),
    (stats, "char_fn_weighted", "stats.char_fn"),
    (stats, "ks_distance", "stats.ks_distance"),
    (stats, "typical_set_filter", "stats.typical_set_filter"),
)

COUNTERS = (
    (characters, "gauss_sums_all", "characters.gauss_sums_all_calls"),
    (characters, "root_numbers", "characters.root_numbers_calls"),
    (arith, "factorize", "arith.factorize_calls"),
    (arith, "nu", "arith.nu_calls"),
)


def _variant(args: tuple, kwargs: dict) -> str:
    return kwargs.get("variant", args[3] if len(args) > 3 else "direct")


class Tracer:
    """Spans as ``[name, start, end, parent index]`` rows, plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = f"{name}.{_variant(args, kwargs)}" if name == "mollifier.m_alpha_beta" else name
            row = [label, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(row)
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self._open.pop()
            self._after(name, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, name: str, args: tuple, result) -> None:
        if name == "characters.batch_character_sums":
            self.add("characters.batch_character_sums_calls")
            self.add("characters.transform_points", args[0].m)
        elif name in ("mollifier.build_dirichlet_mollifier", "mollifier.dirichlet_interval_piece"):
            self.add("mollifier.support_size", len(result.support))


def install(tracer: Tracer) -> None:
    """Replace each target under every name that refers to it."""

    def patch(owner, attr: str, wrapped) -> None:
        original = getattr(owner, attr)
        for holder in (owner, *MODULES):
            if holder.__dict__.get(attr) is original:
                setattr(holder, attr, wrapped)

    for owner, attr, name in SPANS:
        patch(owner, attr, tracer.span(name, getattr(owner, attr)))
    for owner, attr, name in COUNTERS:
        patch(owner, attr, tracer.counter(name, getattr(owner, attr)))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    run = tracer.span("cli.main", cli.main)
    try:
        code = run(command)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"argv": command, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
