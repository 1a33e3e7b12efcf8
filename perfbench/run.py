"""CLI-level benchmark for molliclt.

Each timed command is a fresh ``python -m molliclt.cli`` process, as a
user runs it from a shell.  A workload is a fixed list of commands that
one client runs one after another (a closed loop); one pass runs the
list once into a new empty ``--out`` directory, with
``MOLLICLT_CACHE_DIR`` inside it, so nothing cached carries over between
passes.  Passes repeat until the next one would end after ``--seconds``.

With ``--trace 1`` each round is an untraced pass followed by a traced
pass of the same command lists; the traced pass runs every command
through ``traced.py``, which wraps each layer's public functions in
spans.  Per-layer numbers come from the traced pass, and their cost is
the wall-time difference between the two passes.

Every command's output is checked from outside the program: exit code,
the report's ``passed`` field, and for ``lvalues`` a seed-chosen sample
of the cached L-values against the single-label ``afe_l_value``.

    python3 perfbench/run.py --workload desk_10007 --seed 1 --seconds 45 --trace 0

The last line of standard output is the result as one JSON object; the
lines before it give the environment and the per-command samples.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACED = Path(__file__).resolve().parent / "traced.py"

# The whole run must end within 180 s; commands still running past
# this many seconds from the start are killed and count as failed.
RUN_LIMIT_S = 165.0
SETUP_REPEATS = 3  # set-up samples before each untraced round
L_TOLERANCE = 1e-8  # the CLI's own L-value tolerance
L_SAMPLE = 4  # labels checked per lvalues output
DIGITS_FLOOR = 1e-16  # residuals at or below double rounding count as 16 digits

# (command, modulus, extra flags).  Why each workload exists is in README.md.
WORKLOADS = {
    "desk_10007": (
        ("characters", 10007),
        ("lvalues", 10007),
        ("clt", 10007, "--theta", "0.5"),
        ("random", 10007, "--theta", "0.25"),
    ),
    "clt_1000003": (
        ("lvalues", 1000003),
        ("clt", 1000003, "--theta", "0.5"),
    ),
    "moments_100003": (("second-moment", 100003, "--theta", "0.25"),),
}

COMMANDS = ("characters", "lvalues", "clt", "random", "second-moment")

END_TO_END = {
    "wall_s": "s",
    "slowest_cmd_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
    "accuracy_digits": "digits",
}

SPAN_METRICS = (
    "characters.batch_character_sums",
    "characters.build_table",
    "dirichlet_l.l_values_afe",
    "dirichlet_l.fe_residual_stats",
    "dirichlet_l.twisted_second_moment",
    "dirichlet_l.save_l_values",
    "mollifier.m_alpha_beta.direct",
    "mollifier.m_alpha_beta.moebius",
    "mollifier.m_alpha_beta.euler",
    "mollifier.build_dirichlet_mollifier",
    "mollifier.dirichlet_interval_piece",
    "mollifier.evaluate_all",
    "mollifier.prime_sums_all",
    "arith.smooth_integers",
    "hecke_rankin.delta_form",
    "hecke_rankin.local_expectation",
    "hecke_rankin.quadrature_expectation",
    "hecke_rankin.v_cutoff",
    "hecke_rankin.expected_weight_euler",
    "random_model.mc_expectation",
    "random_model.exact_expectation",
    "random_model.moment_identity_check",
    "stats.clt_experiment",
    "stats.char_fn",
    "stats.ks_distance",
    "stats.typical_set_filter",
    "cli.main",
)

COUNT_METRICS = (
    "characters.batch_character_sums_calls",
    "characters.transform_points",
    "characters.gauss_sums_all_calls",
    "characters.root_numbers_calls",
    "mollifier.support_size",
    "arith.factorize_calls",
    "arith.nu_calls",
)

PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "cli.cpu_s": "s",
    "cli.out_bytes": "bytes",
    **{f"cli.{cmd.replace('-', '_')}_s": "s" for cmd in COMMANDS},
    "trace.overhead_s": "s",
}


def command_lists(workload: str, seed: int, q: int | None = None) -> list[list[str]]:
    """The workload's molliclt argument lists; ``q`` replaces every modulus."""
    return [
        [cmd, "--q", str(q or modulus), *extra, "--seed", str(seed)]
        for cmd, modulus, *extra in WORKLOADS[workload]
    ]


# ---------------------------------------------------------------------------
# processes

def spawn(argv: list[str], env: dict, cwd: Path, log: Path, deadline: float) -> dict:
    """Run one process to its exit; wall time, exit code, and its own rusage.

    ``os.wait4`` gives the peak RSS of this child alone, where
    ``getrusage(RUSAGE_CHILDREN)`` keeps the maximum over every child
    reaped so far.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "code": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def child_env(cache_dir: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), "MOLLICLT_CACHE_DIR": str(cache_dir)}


def measure_setup(work: Path, deadline: float) -> list[float]:
    """Wall times of fresh interpreters that import molliclt.cli and exit."""
    argv = [sys.executable, "-c", "import molliclt.cli"]
    env = child_env(work)
    return [spawn(argv, env, work, work / "setup.log", deadline)["wall_s"] for _ in range(SETUP_REPEATS)]


# ---------------------------------------------------------------------------
# output checks

def _digits(value: float, scale: float = 1.0) -> float:
    return -math.log10(max(abs(value) / scale, DIGITS_FLOOR))


def gated_residuals(command: str, q: int, report: dict) -> list[float]:
    """Accuracy digits of each numerical residual the command gates on.

    Each residual is divided by the scale its gate uses (the Gauss-sum
    residual by q).  Statistical gates (KS distances, the Monte Carlo
    gap) depend on sample noise, not on numerical precision, and are
    left out.
    """
    if command == "characters":
        return [_digits(report["orthogonality_residual"]), _digits(report["gauss_sum_residual"], q)]
    if command == "lvalues":
        vals = [report["fe_residual_max"], report["oracle_discrepancy_max"]]
        return [_digits(v) for v in vals if v is not None]
    if command == "clt":
        return [_digits(report["max_interval_im"])]
    if command == "random":
        checks = report["checks"]
        gaps = [c["gap"] for name, c in checks.items() if name.startswith("moment_identity") and "gap" in c]
        gaps += [checks["local_expectation_quadrature"]["max_gap"], checks["cutoff"]["contour_shift_gap"]]
        return [_digits(g) for g in gaps]
    if command == "second-moment":
        return [_digits(report["variant_relative_spread"])]
    raise ValueError(f"no residuals known for {command!r}")


def check_l_values(path: Path, q: int, labels: list[int]) -> str | None:
    """Compare cached L(1/2, chi) at ``labels`` against the single-label AFE sum."""
    from molliclt.characters import build_table
    from molliclt.dirichlet_l import afe_l_value, load_l_values

    try:
        cached_q, s, cached_labels, values = load_l_values(str(path))
    except (OSError, ValueError) as exc:
        return f"cache unreadable: {exc}"
    if cached_q != q or s != 0.5 or len(values) != q - 1 or any(cached_labels[a] != a for a in labels):
        return "cache header or labels do not match the run"
    table = build_table(q)
    for a in labels:
        err = abs(values[a] - afe_l_value(table, a, 0.5))
        if not err < L_TOLERANCE:
            return f"L(1/2, chi_{a}) differs from afe_l_value by {err:.3e}"
    return None


def check_output(argv: list[str], code: int, out: Path, cache: Path, rng: random.Random) -> dict:
    """Problems found in one command's outputs, and whether its numbers were verified."""
    command, q = argv[0], int(argv[2])
    problems = [f"exit {code}"] if code != 0 else []
    try:
        report = json.loads((out / f"{command}_q{q}.json").read_text(encoding="utf-8"))
        digits = gated_residuals(command, q, report)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {"problems": problems + [f"report unusable: {exc!r}"], "digits": [], "verified": False}
    if report.get("passed") is not True:
        problems.append("report says passed: false")
    verified = True
    if command == "lvalues":
        labels = sorted(rng.sample(range(1, q - 1), L_SAMPLE))
        bad = check_l_values(cache / f"lvalues_q{q}.bin", q, labels)
        if bad:
            problems.append(bad)
            verified = False
    return {"problems": problems, "digits": digits, "verified": verified}


# ---------------------------------------------------------------------------
# passes

def self_times(spans: list[list]) -> dict[str, float]:
    """Per-name self time: each span's duration minus that of its children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + t
    return totals


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_pass(lists: list[list[str]], pass_dir: Path, rng: random.Random, deadline: float, traced: bool) -> dict:
    """Run every command once into a fresh --out directory and check each output."""
    out = pass_dir / "out"
    cache = out / "cache"
    out.mkdir(parents=True)
    env = child_env(cache)
    rows = []
    for k, argv in enumerate(lists):
        full = [*argv, "--out", str(out)]
        spans_file = pass_dir / f"spans-{k}.json"
        prog = [sys.executable, str(TRACED), str(spans_file), *full] if traced else [sys.executable, "-m", "molliclt.cli", *full]
        row = {"argv": argv, **spawn(prog, env, pass_dir, pass_dir / f"log-{k}.txt", deadline)}
        row.update(check_output(argv, row["code"], out, cache, rng))
        if traced:
            try:
                row["trace"] = json.loads(spans_file.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                row["problems"].append(f"no spans: {exc!r}")
        rows.append(row)
    result = {"commands": rows, "out_bytes": tree_bytes(out), "wall_s": sum(r["wall_s"] for r in rows)}
    shutil.rmtree(pass_dir)
    return result


def run_rounds(lists, work: Path, seconds: float, rng, deadline: float, trace: bool) -> tuple[list[list[dict]], list[float]]:
    """Rounds until the next would overrun ``seconds``; the rounds and the set-up samples.

    A round is an untraced pass and, with ``trace``, a traced pass after
    it; without ``trace`` it starts with set-up samples, so that they
    are spread over the run like the passes.
    """
    rounds: list[list[dict]] = []
    setup: list[float] = []
    start = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        n = len(rounds)
        if not trace:
            setup += measure_setup(work, deadline)
        kinds = (False, True) if trace else (False,)
        rounds.append([run_pass(lists, work / f"pass-{n}-{int(k)}", rng, deadline, k) for k in kinds])
        last = time.perf_counter() - t
    return rounds, setup


# ---------------------------------------------------------------------------
# metrics

def end_to_end_metrics(passes: list[dict], setup: list[float], attempted: int, failed: int) -> dict:
    per_command = zip(*(p["commands"] for p in passes))
    digits = [d for p in passes for row in p["commands"] for d in row["digits"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "slowest_cmd_s": max(statistics.median(r["wall_s"] for r in rows) for rows in per_command),
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p["commands"]) for p in passes),
        "setup_s": statistics.median(setup),
        "ok_frac": (attempted - failed) / attempted,
        "accuracy_digits": min(digits, default=0.0),
    }


def per_layer_metrics(rounds: list[list[dict]]) -> dict:
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for p in traced:
        spans: dict[str, float] = {}
        counts: dict[str, int] = {}
        for row in p["commands"]:
            trace = row.get("trace", {})
            for name, t in self_times(trace.get("spans", [])).items():
                spans[name] = spans.get(name, 0.0) + t
            for name, n in trace.get("counts", {}).items():
                counts[name] = counts.get(name, 0) + n
        for name in SPAN_METRICS:
            samples[f"{name}_s"].append(spans.get(name, 0.0))
        for name in COUNT_METRICS:
            samples[name].append(counts.get(name, 0))
    for p in plain:
        samples["cli.cpu_s"].append(sum(r["cpu_s"] for r in p["commands"]))
        samples["cli.out_bytes"].append(p["out_bytes"])
        for cmd in COMMANDS:
            walls = [r["wall_s"] for r in p["commands"] if r["argv"][0] == cmd]
            samples[f"cli.{cmd.replace('-', '_')}_s"].append(sum(walls, 0.0))
    samples["trace.overhead_s"] = [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)]
    return {name: statistics.median(vals) for name, vals in samples.items()}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        # unset means OpenBLAS runs one thread per core
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_lines": sum(len(f.read_bytes().splitlines()) for f in SRC.rglob("*.py")),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, q: int | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result, details)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    lists = command_lists(workload, seed, q)
    rng = random.Random(seed)
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rounds, setup = run_rounds(lists, work, seconds, rng, deadline, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    passes = [p for r in rounds for p in r]
    rows = [row for p in passes for row in p["commands"]]
    failed = sum(1 for row in rows if row["problems"])
    metrics = per_layer_metrics(rounds) if trace else end_to_end_metrics(passes, setup, len(rows), failed)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": all(row["verified"] for row in rows),
        "attempted": len(rows),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "setup_s": setup,
        "commands": [
            {"argv": argv, "samples": len(rounds), "wall_s": [r[0]["commands"][k]["wall_s"] for r in rounds]}
            for k, argv in enumerate(lists)
        ],
        "failures": [{"argv": row["argv"], "problems": row["problems"]} for row in rows if row["problems"]],
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="random-model seed and checked-label sample")
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--q", type=int, help="replace every workload modulus (smoke tests)")
    args = parser.parse_args(argv)
    if not (SRC / "molliclt" / "cli.py").is_file():
        print(f"molliclt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), args.q)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
