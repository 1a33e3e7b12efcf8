"""Command-line surface: config parsing, validation exits, report files,
and rerun determinism."""

import cmath
import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molliclt import arith, cli, dirichlet_l, hecke_rankin, mollifier
from molliclt.arith import is_prime
from molliclt.characters import build_table
from molliclt.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SUITE,
    RunConfig,
    _parse_config_file,
    _theta_tuple,
    main,
)
from molliclt.dirichlet_l import CentralValueSet, load_l_values, save_l_values


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# config plumbing

def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "\n"
        "[experiment]\n"
        "q = 101\n"
        "theta=0.2,0.3\n"
        "out = results\n"
    )
    assert _parse_config_file(str(path)) == {"q": "101", "theta": "0.2,0.3", "out": "results"}


def test_parse_config_rejects_bare_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("q 101\n")
    with pytest.raises(ValueError, match="not key=value"):
        _parse_config_file(str(path))


def test_theta_tuple():
    assert _theta_tuple("0.2,0.3") == (0.2, 0.3)
    assert _theta_tuple("0.5,") == (0.5,)


def test_flags_override_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"q=5\nout={tmp_path}\n")
    # the flag wins over the file value, so the report lands under q=101
    assert run("characters", "--config", str(cfg_file), "--q", "101") == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "characters_q101.json").exists()


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("q=101\nbogus=1\n")
    assert run("characters", "--config", str(cfg_file)) == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


def test_validate_guards():
    with pytest.raises(ValueError, match="missing required field: q"):
        RunConfig().validate()
    with pytest.raises(ValueError, match="odd prime"):
        RunConfig(q=100).validate()
    with pytest.raises(ValueError, match="at least one theta"):
        RunConfig(q=101, theta=()).validate()
    with pytest.raises(ValueError, match="mc_samples"):
        RunConfig(q=101, mc_samples=10).validate()


def test_digest_tracks_every_field():
    base = RunConfig(q=101)
    assert base.digest() == RunConfig(q=101).digest()
    assert base.digest() != RunConfig(q=101, out="elsewhere").digest()
    assert base.digest() != RunConfig(q=101, seed=2).digest()


def test_digest_is_the_sha256_of_the_sorted_settings():
    import hashlib

    cfg = RunConfig(q=101, theta=(0.25, 0.5), out="elsewhere")
    lines = "\n".join(f"{k}={v!r}" for k, v in sorted(cfg.as_dict().items()))
    assert cfg.digest() == hashlib.sha256(lines.encode()).hexdigest()
    assert RunConfig(q=101).digest() == "a88315af648f8e11eeb80fae51e54f72d75b8d5839269783edf58fa0dac939c4"


def python_with_src(code: str, *args: str, **env: str) -> str:
    """Stdout of a fresh interpreter that runs ``code`` with molliclt on its path.

    ``env`` entries override the inherited environment; an empty value
    removes the variable.  The run must exit 0.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    full = {k: v for k, v in {**os.environ, "PYTHONPATH": src, **env}.items() if v}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=full, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_run_leaves_openssl_unloaded(tmp_path):
    code = "import sys; from molliclt.cli import main; main(sys.argv[1:]); print('_hashlib' in sys.modules)"
    out = python_with_src(code, "characters", "--q", "101", "--out", str(tmp_path))
    assert out.splitlines()[-1] == "False"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_starts_no_blas_threads():
    code = "import os, molliclt.cli; print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    assert python_with_src(code, OPENBLAS_NUM_THREADS="").split() == ["1", "1"]
    assert python_with_src(code, OPENBLAS_NUM_THREADS="2").split()[1] == "2"


# ---------------------------------------------------------------------------
# exit codes

def test_missing_q_exits_config(capsys):
    assert run("characters") == EXIT_CONFIG
    assert "missing required field: q" in capsys.readouterr().err


def test_composite_q_exits_config(capsys):
    assert run("characters", "--q", "99") == EXIT_CONFIG
    assert "odd prime" in capsys.readouterr().err


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate", "--q", "101")
    assert exc.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("molliclt ")


def run_captured(argv):
    """(exit code, stdout, stderr) of one in-process run; argparse exits count too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_paper_mode_settings_are_rejected(tmp_path):
    for flag in (["--mode", "paper"], ["--eta", "0.9"]):
        code, out, err = run_captured(["clt", "--q", "101", *flag, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "unrecognized arguments" in err
    for line in ("mode=paper", "eta=0.9"):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"q=101\n{line}\n")
        code, out, err = run_captured(["clt", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert f"invalid configuration: unknown config key: {line.split('=')[0]}" in err
    assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize("argv, rule", [
    (["characters", "--q", "10000019"], "q must be an odd prime in [3, 10000000]"),
    (["clt", "--q", "10007", "--theta", "0.3,0.2"], "strictly increasing"),
    (["clt", "--q", "10007", "--theta", "-0.1"], "positive and finite"),
    (["lvalues", "--q", "10007", "--theta", "-0.1"], "positive and finite"),
    (["clt", "--q", "10007", "--c0", "20"], "c0 must lie in [1, q^theta_0) = [1, 10.0017)"),
    (["random", "--q", "10007", "--theta", "0.25", "--c0", "0"], "c0 must lie in [1, q^theta_0)"),
    (["random", "--q", "10007", "--mc", "99"], "mc_samples (--mc) must be at least 100"),
    (["random", "--q", "10007", "--mc", "10000000000"], "mc_samples (--mc) must be at most 1000000"),
    (["clt", "--q", "10007", "--theta", "2"], "sieve span 1e+08 exceeds memory budget 50000000"),
    (["second-moment", "--q", "3"], "q = 3 has no even nonprincipal character"),
])
def test_out_of_range_inputs_exit_config_before_any_work(argv, rule, tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("work started before validation finished")

    monkeypatch.setattr(cli, "build_table", forbidden)
    monkeypatch.setattr(mollifier, "sieve_primes", forbidden)
    code, out, err = run_captured([*argv, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert err.startswith("invalid configuration: ") and rule in err
    assert out == "" and os.listdir(tmp_path) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["characters", "lvalues"])
def test_commands_without_a_mollifier_print_nothing_on_stderr(command, tmp_path):
    code, out, err = run_captured([command, "--q", "10007", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert out.startswith(f"{command}: ") and err == ""


@pytest.mark.filterwarnings("error")  # a warning would reach stderr outside pytest
@pytest.mark.parametrize("command", ["clt", "random", "second-moment"])
def test_mollifier_commands_print_nothing_on_stderr(command, tmp_path, monkeypatch):
    monkeypatch.setenv("MOLLICLT_CACHE_DIR", str(tmp_path / "cache"))
    code, out, err = run_captured([command, "--q", "10007", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert out.startswith(f"{command}: ") and err == ""


FLAGS = {key: flag for key, flag, *_ in cli._SETTINGS}
NUMERIC = ("q", "c0", "theta", "seed", "mc_samples")


def _bad_settings():
    """One (key, text) that breaks an input rule; every other setting stays valid."""
    composite = st.integers(4, 10**7).filter(lambda n: not is_prime(n))
    above_cap = st.one_of(st.integers(10**7 + 1, 10**12), st.sampled_from([10000019, 10000079, 1000000007]))
    bad_q = st.one_of(composite, st.integers(-10, 2), above_cap)
    positive = st.floats(1e-3, 0.6)
    bad_theta = st.one_of(
        st.sampled_from(["", ",", "inf", "nan", "0.1,inf"]),
        st.lists(positive, max_size=2).flatmap(
            lambda ok: st.floats(-1.0, 0.0).map(lambda bad: ok + [bad])),
        st.lists(positive, min_size=2, max_size=4).filter(
            lambda t: any(b <= a for a, b in zip(t, t[1:]))),
    ).map(lambda t: t if isinstance(t, str) else ",".join(repr(v) for v in t))
    # q = 10007 and theta_0 = 0.25 put q^theta_0 at 10.0017
    bad_c0 = st.one_of(st.floats(-1e3, 1.0, exclude_max=True), st.floats(10.0018, 1e6))
    return st.one_of(
        st.tuples(st.just("q"), bad_q.map(str)),
        st.tuples(st.just("theta"), bad_theta),
        st.tuples(st.just("c0"), bad_c0.map(repr)),
        st.tuples(st.just("mc_samples"), st.one_of(
            st.integers(0, 99), st.integers(-10**6, -1), st.integers(10**6 + 1, 10**12)).map(str)),
        st.tuples(st.sampled_from(["mode", "eta", "threads", "bogus"]), st.just("1")),
        st.tuples(st.sampled_from(NUMERIC), st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)),
    )


@given(
    st.sampled_from(sorted(cli._COMMANDS)),
    _bad_settings(),
    st.booleans(),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_invalid_settings_exit_config_without_a_report(command, bad, via_file):
    key, text = bad
    values = {"q": "10007", "theta": "0.25", "c0": "1", "seed": "1", "mc_samples": "200", key: text}
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "out")
        argv = [command, "--out", out_dir]
        if via_file:
            cfg_file = os.path.join(tmp, "run.cfg")
            with open(cfg_file, "w", encoding="utf-8") as fh:
                fh.write("".join(f"{k}={v}\n" for k, v in values.items()))
            argv += ["--config", cfg_file]
        else:
            for k, v in values.items():
                argv.append(f"{FLAGS.get(k, '--' + k)}={v}")
        code, out, err = run_captured(argv)
        assert code == EXIT_CONFIG, (argv, err)
        assert err.strip() and "Traceback" not in err
        assert out == ""
        assert not os.path.exists(out_dir)


@pytest.mark.parametrize("command", ["random", "clt"])
def test_empty_first_interval_is_a_run_failure_naming_it(command, tmp_path, capsys, monkeypatch):
    # 101^0.01 = 1.047: the first interval (1, 1.047] holds no prime, which
    # validation finds before any table build or sieve
    def forbidden(*args, **kwargs):
        raise AssertionError("work started for a refused configuration")

    monkeypatch.setattr(cli, "build_table", forbidden)
    monkeypatch.setattr(mollifier, "sieve_primes", forbidden)
    code = run(command, "--q", "101", "--theta", "0.01", "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(
        "invalid configuration: the first mollifier interval (c0, q^theta_0] = (1, 1.047] contains no primes"
    )
    assert "Traceback" not in err
    assert not (tmp_path / f"{command}_q101.json").exists()


def test_random_builds_no_table_when_both_identities_are_skipped(tmp_path, capsys, monkeypatch):
    # 101^0.6 = 15.9: the first interval reaches 13, and 13^2 >= 101
    def forbidden(*args, **kwargs):
        raise AssertionError("random built a character table it does not read")

    monkeypatch.setattr(cli, "build_table", forbidden)
    code = run("random", "--q", "101", "--theta", "0.6", "--out", str(tmp_path))
    capsys.readouterr()
    checks = load_report(tmp_path / "random_q101.json")["checks"]
    assert code == EXIT_OK
    assert [checks[f"moment_identity_k{k}"] for k in (1, 2)] == [{"passed": True, "skipped": "support reaches q"}] * 2


@pytest.mark.filterwarnings("ignore:interval 0 = .* contains no primes")
def test_empty_first_interval_second_moment_still_runs(tmp_path, capsys):
    code = run("second-moment", "--q", "101", "--theta", "0.01", "--out", str(tmp_path))
    assert code == EXIT_OK
    capsys.readouterr()
    assert load_report(tmp_path / "second-moment_q101.json")["passed"] is True


def test_report_with_a_non_finite_float_names_the_field(tmp_path):
    cfg = RunConfig(q=101, out=str(tmp_path))
    payload = {"empirical": float("nan"), "stats": {"discrepancy": float("inf")}, "passed": True}
    with pytest.raises(ValueError, match=r"^second-moment report field\(s\) empirical, stats hold a non-finite float$"):
        cli._write_report(cfg, "second-moment", payload)
    assert os.listdir(tmp_path) == []


def refused_twist(argv, largest, tmp_path, monkeypatch):
    """Run second-moment with ``argv``: it must exit 2 at validation, before
    any table build or sieve, naming the largest support element and q."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work started for a refused configuration")

    monkeypatch.setattr(cli, "build_table", forbidden)
    monkeypatch.setattr(mollifier, "sieve_primes", forbidden)
    monkeypatch.setattr(mollifier, "smooth_integers", forbidden)
    code, out, err = run_captured(["second-moment", *argv, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert err == (
        "invalid configuration: twist length must stay below the modulus: "
        f"largest support element {largest} >= q = {argv[1]}\n"
    )
    assert out == "" and os.listdir(tmp_path) == []


def test_second_moment_twist_past_the_modulus_names_both_numbers(tmp_path, monkeypatch):
    # each interval's largest prime to its Omega cap: 5^6 on (1, 6.31], 13^4 on (6.31, 15.85]
    refused_twist(["--q", "10007", "--theta", "0.2,0.3"], 5**6 * 13**4, tmp_path, monkeypatch)


def test_oversized_smooth_support_is_refused_at_validation(tmp_path, monkeypatch):
    # theta = 0.9 puts ~22k primes in the interval with an Omega cap of 2, a
    # support past the 2e6-element enumeration guard; its largest element
    # 251179^2 is refused first
    refused_twist(["--q", "1000003", "--theta", "0.9"], 251179**2, tmp_path, monkeypatch)


def test_second_moment_support_past_the_pair_budget_is_refused_at_validation(tmp_path, monkeypatch):
    # 340 primes up to 9999991^0.48 = 2290.7 with an Omega cap of 2: C(342, 2)
    # = 58311 elements, whose pair sums would pass n^2 <= 4e7; the largest
    # element 2287^2 is below q, so the twist-length rule admits it
    def forbidden(*args, **kwargs):
        raise AssertionError("work started for a refused configuration")

    monkeypatch.setattr(cli, "build_table", forbidden)
    monkeypatch.setattr(mollifier, "smooth_integers", forbidden)
    code, out, err = run_captured(["second-moment", "--q", "9999991", "--theta", "0.48", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert err == (
        "invalid configuration: the mollifier support has 58311 elements; "
        "its pair sums need count^2 <= 40000000, at most 6324 elements\n"
    )
    assert out == "" and os.listdir(tmp_path) == []


@pytest.mark.parametrize("q, theta, x", [("10007", "1.0", "10007"), ("100003", "0.8", "10000.2")])
def test_random_past_the_eigenvalue_limit_names_both_numbers(q, theta, x, tmp_path, monkeypatch):
    # the Euler-product weight sieves (x, 10^4]; past it the configuration
    # is refused naming x, before any table is built
    def forbidden(q):
        raise AssertionError("table built for a refused configuration")

    monkeypatch.setattr(cli, "build_table", forbidden)
    code, out, err = run_captured(["random", "--q", q, "--theta", theta, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert err == f"invalid configuration: the mollifier range x = q^theta_J = {x} passes the eigenvalue limit 10000\n"
    assert out == "" and os.listdir(tmp_path) == []


def test_mollifier_past_int64_is_refused_at_validation(tmp_path, monkeypatch):
    # four intervals with Omega caps of 4: the support products pass the
    # int64 guard of the mollifier product, and the twist-length rule
    # refuses them first
    largest = 61**4 * 71**4 * 83**4 * 89**4
    assert largest > 2**63
    argv = ["--q", "1000003", "--theta", "0.3,0.31,0.32,0.33", "--c0", "60"]
    refused_twist(argv, largest, tmp_path, monkeypatch)


def test_second_moment_enumerates_the_supports_before_any_second_moment(tmp_path, monkeypatch):
    # a failing support enumeration ends the run before either second moment
    # (the stub stands in for the enumeration guard, which no input that
    # passes validation reaches)
    def failing(*args, **kwargs):
        raise RuntimeError("smooth enumeration failed")

    def forbidden(*args, **kwargs):
        raise AssertionError("second moment computed before the supports")

    monkeypatch.setattr(mollifier, "smooth_integers", failing)
    monkeypatch.setattr(cli, "twisted_second_moment", forbidden)
    monkeypatch.setattr(cli, "m_alpha_beta", forbidden)
    code, out, err = run_captured(["second-moment", "--q", "10007", "--out", str(tmp_path)])
    assert code == EXIT_SUITE
    assert err == "run failed: smooth enumeration failed\n"
    assert out == ""


@pytest.mark.parametrize("argv", [["clt", "--q", "10007", "--theta", "0.5"], ["random", "--q", "10007", "--theta", "0.25"]],
                         ids=["clt", "random"])
def test_clt_and_random_enumerate_no_smooth_support(argv, tmp_path, monkeypatch):
    # clt evaluates its pieces from prime sums, and random's expected weight
    # is circle quadrature over the interval primes
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{argv[0]} enumerated a smooth support")

    monkeypatch.setattr(arith, "smooth_integers", forbidden)
    monkeypatch.setattr(mollifier, "smooth_integers", forbidden)
    code, out, err = run_captured([*argv, "--out", str(tmp_path)])
    assert code == EXIT_OK, err
    assert out.startswith(f"{argv[0]}: ") and err == ""


def test_unwritable_out_is_a_run_failure(tmp_path):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    code, out, err = run_captured(["characters", "--q", "101", "--out", str(blocker / "sub")])
    assert code == EXIT_SUITE
    assert err.startswith("run failed: ") and "Not a directory" in err
    assert "Traceback" not in err and out == ""


# ---------------------------------------------------------------------------
# command runs and their reports

def load_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_characters_command(tmp_path, capsys):
    assert run("characters", "--q", "101", "--out", str(tmp_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "characters: residuals" in out
    report = load_report(tmp_path / "characters_q101.json")
    assert report["command"] == "characters"
    assert report["passed"] is True
    assert report["orthogonality_residual"] < 1e-10
    assert report["gauss_sum_residual"] < 1e-9 * 101
    assert report["config"]["q"] == 101
    assert len(report["config_hash"]) == 64


def mutated_characters_report(tmp_path, monkeypatch, mutate):
    """Run characters at q = 10007 on a copy of the table whose index and
    roots arrays ``mutate(table, index, roots)`` has changed in place;
    return the exit code and the report."""
    table = build_table(10007)
    index, roots = table.index.copy(), table.roots.copy()
    mutate(table, index, roots)
    monkeypatch.setattr(cli, "build_table", lambda q: dataclasses.replace(table, index=index, roots=roots))
    code, _, err = run_captured(["characters", "--q", "10007", "--out", str(tmp_path)])
    assert err == ""
    return code, load_report(tmp_path / "characters_q10007.json")


def test_characters_fails_on_a_duplicated_discrete_log(tmp_path, monkeypatch):
    def duplicate(table, index, roots):
        index[3] = index[2]  # chi(3) = chi(2) for every label

    code, report = mutated_characters_report(tmp_path, monkeypatch, duplicate)
    assert code == EXIT_SUITE and report["passed"] is False
    assert abs(report["orthogonality_residual"] - 1.0) < 1e-12
    assert report["roots_residual"] < 1e-13


def test_characters_fails_on_a_root_the_gram_does_not_read(tmp_path, monkeypatch):
    def rotate(table, index, roots):
        # the slots the factored Gram reads: labels 0..B-1, the block
        # starts b B and the ragged labels, times the logs of 1..100; the
        # Gauss-sum transform reads only roots[:m / 2] at this modulus
        m = table.m
        block = math.isqrt(m - 1) + 1
        full = m // block * block
        labels = np.concatenate([np.arange(block), np.arange(0, full, block), np.arange(full, m)])
        read = set((np.outer(labels, table.index[1:101].astype(np.int64)) % m).ravel().tolist())
        slot = next(k for k in range(m // 2, m) if k not in read)
        roots[slot] *= cmath.exp(0.1j)

    code, report = mutated_characters_report(tmp_path, monkeypatch, rotate)
    assert code == EXIT_SUITE and report["passed"] is False
    assert report["orthogonality_residual"] < 1e-15
    assert report["gauss_sum_residual"] < 1e-9 * 10007
    assert abs(report["roots_residual"] - 2 * math.sin(0.05)) < 1e-12


@pytest.mark.parametrize("command", ["characters", "random", "lvalues", "clt", "second-moment"])
def test_characters_report_is_independent_of_blas_threads(command, tmp_path):
    reports = []
    for threads in ("1", "2"):
        code = "import sys; from molliclt.cli import main; sys.exit(main(sys.argv[1:]))"
        python_with_src(code, command, "--q", "10007", "--out", str(tmp_path), OPENBLAS_NUM_THREADS=threads)
        text = (tmp_path / f"{command}_q10007.json").read_text()
        reports.append([line for line in text.splitlines() if '"timestamp"' not in line and '"wall_time"' not in line])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
def test_outputs_follow_the_umask(umask, mode, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MOLLICLT_CACHE_DIR", raising=False)
    old = os.umask(umask)
    try:
        assert run("lvalues", "--q", "101", "--out", str(tmp_path)) == EXIT_OK
    finally:
        os.umask(old)
    capsys.readouterr()
    for path in (tmp_path / "lvalues_q101.json", tmp_path / "cache" / "lvalues_q101.bin"):
        assert os.stat(path).st_mode & 0o777 == mode, path


def test_report_timestamp_is_last_key(tmp_path, capsys):
    run("characters", "--q", "101", "--out", str(tmp_path))
    capsys.readouterr()
    text = (tmp_path / "characters_q101.json").read_text()
    pairs = json.loads(text, object_pairs_hook=list)
    assert pairs[-1][0] == "timestamp"
    assert [k for k, _ in pairs[:4]] == ["command", "version", "config", "config_hash"]


def test_lvalues_command_and_cache(tmp_path, capsys):
    assert run("lvalues", "--q", "101", "--out", str(tmp_path)) == EXIT_OK
    capsys.readouterr()
    report = load_report(tmp_path / "lvalues_q101.json")
    assert report["passed"] is True
    assert report["fe_residual_max"] < 1e-8
    # q is small enough for the independent route, so the field is populated
    assert report["oracle_discrepancy_max"] < 1e-8
    assert os.path.exists(report["cache_file"])
    assert report["cache_file"].startswith(str(tmp_path))


def test_cache_dir_env_redirect(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "elsewhere"
    monkeypatch.setenv("MOLLICLT_CACHE_DIR", str(cache))
    assert run("lvalues", "--q", "101", "--out", str(tmp_path / "out")) == EXIT_OK
    capsys.readouterr()
    assert (cache / "lvalues_q101.bin").exists()


def test_clt_command(tmp_path, capsys):
    code = run("clt", "--q", "1009", "--theta", "0.5", "--out", str(tmp_path))
    assert code == EXIT_OK
    capsys.readouterr()
    report = load_report(tmp_path / "clt_q1009.json")
    assert report["passed"] is True
    assert report["ks_weighted"] <= 0.25
    assert report["max_interval_im"] <= 0.1
    # each typicality condition is tallied on its own over the 1007
    # nonprincipal characters mod 1009
    drops = [report[f"typical_set_dropped_{cond}"] for cond in ("weight_band", "tail_product", "prime_sum")]
    assert all(isinstance(d, int) and d >= 0 for d in drops)
    assert report["typical_set_kept"] + max(drops) <= 1007 <= report["typical_set_kept"] + sum(drops)
    assert report["typical_set_tail_bound"] == pytest.approx(np.log(np.log(1009)) ** 2, rel=1e-14)
    for suffix in ("_intervals.csv", "_charfn_weighted.csv", "_charfn_plain.csv"):
        assert (tmp_path / f"clt_q1009{suffix}").exists()


def test_second_moment_command(tmp_path, capsys):
    code = run("second-moment", "--q", "101", "--theta", "0.25", "--out", str(tmp_path))
    assert code == EXIT_OK
    capsys.readouterr()
    report = load_report(tmp_path / "second-moment_q101.json")
    assert report["passed"] is True
    # the prediction is the sum of its two terms, each reported exactly
    terms = complex(report["diagonal_term"]) + complex(report["reflected_term"])
    assert terms == complex(report["predicted"])
    predicted = complex(report["predicted"])
    assert report["relative_discrepancy"] == abs(complex(report["empirical"]) - predicted) / abs(predicted)
    assert report["relative_discrepancy"] == report["discrepancy"] / abs(predicted)


def test_second_moment_computes_the_direct_pair_sum_twice(tmp_path, monkeypatch, capsys):
    # the diagonal and the reflected term, both from one gcd pass; the
    # direct variant reuses the diagonal term's M(alpha, beta) instead of
    # summing the same pairs again
    calls = []
    direct = mollifier.m_alpha_beta_general

    def counted(*args):
        calls.append(args[2:])
        return direct(*args)

    monkeypatch.setattr(mollifier, "m_alpha_beta_general", counted)
    monkeypatch.setattr(dirichlet_l, "m_alpha_beta_general", counted)
    assert run("second-moment", "--q", "1009", "--out", str(tmp_path)) == EXIT_OK
    capsys.readouterr()
    assert calls == [([(0.02, 0.015), (-0.015, -0.02)],)]
    report = load_report(tmp_path / "second-moment_q1009.json")
    # the reused value is the direct route's, bit for bit
    params = mollifier.params_desk(1009, (0.25,))
    assert complex(report["m_variants"]["direct"]) == mollifier.m_alpha_beta(params, 0.02, 0.015, variant="direct")


def test_random_command_makes_one_transform(tmp_path, monkeypatch, capsys):
    calls = []
    transform = mollifier.batch_character_sums

    def counted(*args, **kwargs):
        calls.append(args[0].q)
        return transform(*args, **kwargs)

    monkeypatch.setattr(mollifier, "batch_character_sums", counted)
    code = run("random", "--q", "101", "--theta", "0.25", "--mc", "200", "--out", str(tmp_path))
    assert code == EXIT_OK
    capsys.readouterr()
    checks = load_report(tmp_path / "random_q101.json")["checks"]
    # 3^4 = 81 < 101: both moments are checked, from the one transform of P
    assert "gap" in checks["moment_identity_k1"] and "gap" in checks["moment_identity_k2"]
    assert calls == [101]


def test_random_command_builds_each_local_series_once_per_prime(tmp_path, capsys):
    # g_p and f_p at one prime read the same n_coeff array of each form:
    # two convolutions for each of the five checked primes, reused twice
    hecke_rankin._n_coeff.cache_clear()
    assert run("random", "--q", "1009", "--out", str(tmp_path)) == EXIT_OK
    capsys.readouterr()
    info = hecke_rankin._n_coeff.cache_info()
    assert (info.misses, info.hits) == (10, 20)


def test_second_moment_runs_three_half_length_transforms(tmp_path, monkeypatch, ifft_calls, capsys):
    # twist with Gauss sums, then first with dual sum at each shift; a
    # fresh table, so no root numbers are kept from an earlier run
    monkeypatch.setattr(cli, "build_table", build_table.__wrapped__)
    assert run("second-moment", "--q", "1009", "--out", str(tmp_path)) == EXIT_OK
    capsys.readouterr()
    assert ifft_calls == [504, 504, 504]


@pytest.mark.parametrize("command", ["second-moment", "lvalues"])
def test_command_leaves_the_hecke_random_and_stats_modules_unimported(command, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys\n"
        "from molliclt.cli import main\n"
        f"assert main([{command!r}, '--q', '1009', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m in ('molliclt.hecke_rankin', 'molliclt.random_model', 'molliclt.stats')))\n"
    )
    env = {**os.environ, "PYTHONPATH": src, "MOLLICLT_CACHE_DIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("q, ffts", [(1009, 3), (2003, 2)])
def test_lvalues_transform_count(q, ffts, tmp_path, monkeypatch, ifft_calls, capsys):
    # a fresh table, so the Gauss sums are transformed in this run
    monkeypatch.setattr(cli, "build_table", build_table.__wrapped__)
    assert run("lvalues", "--q", str(q), "--out", str(tmp_path)) == EXIT_OK
    capsys.readouterr()
    # the Gauss sums, the AFE sum (at s = 1/2 the dual sum is the same
    # transform), and at q <= 2000 the Hurwitz oracle
    assert ifft_calls == [(q - 1) // 2] * ffts


def test_random_command(tmp_path, capsys):
    code = run("random", "--q", "101", "--theta", "0.25", "--seed", "3",
               "--mc", "500", "--out", str(tmp_path))
    assert code == EXIT_OK
    capsys.readouterr()
    report = load_report(tmp_path / "random_q101.json")
    assert report["passed"] is True
    assert set(report["checks"]) >= {"moment_identity_k1", "moment_identity_k2", "cutoff"}


def test_random_at_the_largest_mc_sample_count(tmp_path, capsys):
    code = run("random", "--q", "10007", "--theta", "0.25", "--mc", "1000000", "--out", str(tmp_path))
    assert code == EXIT_OK
    capsys.readouterr()
    mc = load_report(tmp_path / "random_q10007.json")["checks"]["mc_vs_exact"]
    assert mc["passed"] is True and mc["se"] < 2e-3


def test_no_temp_files_left_behind(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MOLLICLT_CACHE_DIR", raising=False)
    run("characters", "--q", "101", "--out", str(tmp_path))
    run("lvalues", "--q", "101", "--out", str(tmp_path))
    capsys.readouterr()
    assert (tmp_path / "cache" / "lvalues_q101.bin").exists()
    leftovers = [n for d in (tmp_path, tmp_path / "cache") for n in os.listdir(d) if n.startswith(".tmp-")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# clt reuses the central values lvalues cached

CLT_FILES = ("clt_q1009.json", "clt_q1009_intervals.csv", "clt_q1009_charfn_weighted.csv",
             "clt_q1009_charfn_plain.csv")


def clt_outputs(out, capsys):
    """Run clt at q=1009 into ``out``; its files, reports stripped of volatile lines."""
    assert run("clt", "--q", "1009", "--theta", "0.5", "--out", str(out)) == EXIT_OK
    capsys.readouterr()
    files = {name: (out / name).read_text() for name in CLT_FILES}
    files["clt_q1009.json"] = volatile_stripped(files["clt_q1009.json"])
    return files


@pytest.fixture
def cached_1009(tmp_path, monkeypatch, capsys):
    """An --out directory where clt has run once without a cache (a miss),
    and lvalues has then written its cache: (out, the miss's outputs)."""
    monkeypatch.delenv("MOLLICLT_CACHE_DIR", raising=False)
    miss = clt_outputs(tmp_path, capsys)
    assert '"l_values_source": "computed"' in miss["clt_q1009.json"]
    assert run("lvalues", "--q", "1009", "--out", str(tmp_path)) == EXIT_OK
    capsys.readouterr()
    return tmp_path, miss


def test_clt_cache_hit_equals_miss(cached_1009, capsys):
    out, miss = cached_1009
    hit = clt_outputs(out, capsys)
    report = load_report(out / "clt_q1009.json")
    assert report["l_values_source"] == "cache"
    lvalues = load_report(out / "lvalues_q1009.json")
    assert report["fe_residual_max"] == lvalues["fe_residual_max"]
    assert report["fe_residual_mean"] == lvalues["fe_residual_mean"]
    # every file is byte-identical except the one line naming the source
    hit["clt_q1009.json"] = hit["clt_q1009.json"].replace('"cache"', '"computed"')
    assert hit == miss


def test_clt_cache_hit_does_not_recompute(cached_1009, monkeypatch, capsys):
    out, miss = cached_1009

    def forbidden(*args, **kwargs):
        raise AssertionError("l_values_afe called on a cache hit")

    monkeypatch.setattr(cli, "l_values_afe", forbidden)
    hit = clt_outputs(out, capsys)
    assert '"l_values_source": "cache"' in hit["clt_q1009.json"]


def _resave(path, q=1009):
    """Rewrite the cache at ``path`` with its own values and zero residual statistics."""
    _, _, _, values = load_l_values(path)
    save_l_values(path, CentralValueSet(q=q, s=0.5, values=values, residual_stats={"max": 0.0, "mean": 0.0}))


def _wrong_q(path):
    _resave(path, q=1013)


def _wrong_tail_cut(path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirichlet_l, "TAIL_CUT", 20.0)
        _resave(path)


def _version_1(path):
    _, _, labels, values = load_l_values(path)
    records = np.empty(len(values), dtype=[("label", "<u4"), ("re", "<f8"), ("im", "<f8")])
    records["label"], records["re"], records["im"] = labels, values.real, values.imag
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIQdd", b"LCHI", 1, 1009, 0.5, 0.0) + records.tobytes())


def _other_afe_version(path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirichlet_l, "_AFE_VERSION", dirichlet_l._AFE_VERSION + 1)
        _resave(path)


def _truncated_by_a_record(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(raw[: -dirichlet_l._RECORD_DTYPE.itemsize])


def _truncated_mid_record(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(raw[:-5])


def test_clt_cache_hit_runs_one_transform(cached_1009, monkeypatch, ifft_calls, capsys):
    out, _ = cached_1009
    monkeypatch.setattr(cli, "build_table", build_table.__wrapped__)
    ifft_calls.clear()
    assert '"l_values_source": "cache"' in clt_outputs(out, capsys)["clt_q1009.json"]
    assert ifft_calls == [504]  # the prime sum P_0; no Gauss sums, no AFE


def test_clt_recomputes_from_an_afe_version_1_cache(cached_1009, capsys):
    # values cached before the one-FFT transform differ in their last bits
    out, _ = cached_1009
    cache = str(out / "cache" / "lvalues_q1009.bin")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dirichlet_l, "_AFE_VERSION", 1)
        _resave(cache)
    assert dirichlet_l.read_cache_header(cache).afe_version == 1
    clt_outputs(out, capsys)
    assert load_report(out / "clt_q1009.json")["l_values_source"] == "computed"


@pytest.mark.parametrize("spoil", [
    _wrong_q, _wrong_tail_cut, _version_1, _other_afe_version, _truncated_by_a_record, _truncated_mid_record,
])
def test_clt_recomputes_instead_of_reading_a_mismatched_cache(cached_1009, spoil, capsys):
    out, miss = cached_1009
    spoil(str(out / "cache" / "lvalues_q1009.bin"))
    # residuals of 0.0 in a readable header would show up in the report
    assert clt_outputs(out, capsys) == miss


# ---------------------------------------------------------------------------
# determinism

def volatile_stripped(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines()
        if '"timestamp"' not in line and '"wall_time"' not in line
    )


def test_rerun_is_byte_identical_modulo_timestamp(tmp_path, capsys):
    out = str(tmp_path)
    run("clt", "--q", "1009", "--theta", "0.5", "--out", out)
    first_json = (tmp_path / "clt_q1009.json").read_text()
    first_csv = (tmp_path / "clt_q1009_intervals.csv").read_bytes()
    run("clt", "--q", "1009", "--theta", "0.5", "--out", out)
    capsys.readouterr()
    second_json = (tmp_path / "clt_q1009.json").read_text()
    second_csv = (tmp_path / "clt_q1009_intervals.csv").read_bytes()
    assert volatile_stripped(first_json) == volatile_stripped(second_json)
    assert first_csv == second_csv


@pytest.mark.skipif(shutil.which("molliclt") is None, reason="entry point not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(["molliclt", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("molliclt ")
