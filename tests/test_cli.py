"""Command-line surface: config parsing, validation exits, report files,
and rerun determinism."""

import json
import os
import shutil
import subprocess

import pytest

from molliclt.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SUITE,
    RunConfig,
    _parse_config_file,
    _theta_tuple,
    main,
)


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
    with pytest.raises(ValueError, match="desk or paper"):
        RunConfig(q=101, mode="fast").validate()
    with pytest.raises(ValueError, match="at least one theta"):
        RunConfig(q=101, theta=()).validate()
    with pytest.raises(ValueError, match="mc_samples"):
        RunConfig(q=101, mc_samples=10).validate()


def test_digest_tracks_every_field():
    base = RunConfig(q=101)
    assert base.digest() == RunConfig(q=101).digest()
    assert base.digest() != RunConfig(q=101, out="elsewhere").digest()
    assert base.digest() != RunConfig(q=101, seed=2).digest()


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


def test_degenerate_paper_mode_is_a_run_failure(tmp_path, capsys):
    # paper-regime parameters collapse at any desk-size modulus
    code = run("clt", "--q", "101", "--mode", "paper", "--out", str(tmp_path))
    assert code == EXIT_SUITE
    assert "run failed" in capsys.readouterr().err


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
    for suffix in ("_intervals.csv", "_charfn_weighted.csv", "_charfn_plain.csv"):
        assert (tmp_path / f"clt_q1009{suffix}").exists()


def test_second_moment_command(tmp_path, capsys):
    code = run("second-moment", "--q", "101", "--theta", "0.25", "--out", str(tmp_path))
    assert code == EXIT_OK
    capsys.readouterr()
    report = load_report(tmp_path / "second-moment_q101.json")
    assert report["passed"] is True


def test_random_command(tmp_path, capsys):
    code = run("random", "--q", "101", "--theta", "0.25", "--seed", "3",
               "--mc", "500", "--out", str(tmp_path))
    assert code == EXIT_OK
    capsys.readouterr()
    report = load_report(tmp_path / "random_q101.json")
    assert report["passed"] is True
    assert set(report["checks"]) >= {"moment_identity_k1", "moment_identity_k2", "cutoff"}


def test_no_temp_files_left_behind(tmp_path, capsys):
    run("characters", "--q", "101", "--out", str(tmp_path))
    capsys.readouterr()
    leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".tmp-")]
    assert leftovers == []


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
