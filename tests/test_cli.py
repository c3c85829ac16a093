import hashlib
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sprinkled_nls.cli import (DEFAULTS, SCHEMA, _parse_value, main,
                               resolve_config)
from sprinkled_nls.errors import ConfigError
from sprinkled_nls.field import _BIN_MAGIC, Grid
from sprinkled_nls.mollify import check_resolution


def run(*argv):
    return main(list(argv))


def test_resolve_config_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("intensity = 2.0\nseed = 11  # trailing comment\n"
                        "\n# full-line comment\nmeasure = bernoulli\n")
    cfg = resolve_config(str(cfg_file), ["intensity=3.5"], 7, "elsewhere")
    assert cfg["intensity"] == 3.5
    assert cfg["seed"] == 7
    assert cfg["out_dir"] == "elsewhere"
    assert cfg["measure"] == "bernoulli"
    assert cfg["n_points"] == DEFAULTS["n_points"]


def test_resolve_config_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigError):
        resolve_config(None, ["no_such_key=1"], None, None)
    with pytest.raises(ConfigError):
        resolve_config(None, ["dt=fast"], None, None)
    with pytest.raises(ConfigError):
        resolve_config(None, ["window_lo=5", "window_hi=-5"], None, None)
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        resolve_config(str(bad), [], None, None)


def test_sample_outputs_and_manifest(tmp_path):
    out = tmp_path / "s"
    assert run("sample", "--out", str(out), "--seed", "5") == 0
    for name in ("atoms.csv", "atoms.json", "profile.csv", "manifest.json"):
        assert (out / name).is_file()
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "sample"
    assert doc["config"]["seed"] == 5
    assert set(doc["outputs"]) == {"atoms.csv", "atoms.json", "profile.csv"}
    digest = hashlib.sha1((out / "atoms.csv").read_bytes()).hexdigest()
    assert doc["outputs"]["atoms.csv"] == digest
    assert "created_unix" in doc


def test_sample_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run("sample", "--out", str(a), "--seed", "9")
    run("sample", "--out", str(b), "--seed", "9")
    for name in ("atoms.csv", "atoms.json", "profile.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_sample_empty_measures(tmp_path):
    out = tmp_path / "e"
    assert run("sample", "--out", str(out), "--override", "measure=none") == 0
    assert (out / "atoms.csv").read_text() == "position,mass\n"
    out2 = tmp_path / "c0"
    assert run("sample", "--out", str(out2), "--override",
               "measure=canonical", "--override", "count=0") == 0
    assert (out2 / "atoms.csv").read_text() == "position,mass\n"


def test_solve_comb_mass_conserved(tmp_path, capsys):
    out = tmp_path / "run"
    code = run("solve", "--out", str(out), "--override", "half_length=8",
               "--override", "n_points=512", "--override", "window_lo=-8",
               "--override", "window_hi=8", "--override",
               "measure=kronig_penney", "--override", "eps=0.4",
               "--override", "dt=0.01", "--override", "t_final=0.1",
               "--override", "record_every=5")
    assert code == 0
    rows = np.genfromtxt(out / "diagnostics.csv", delimiter=",", names=True)
    assert abs(rows["mass"][-1] - rows["mass"][0]) < 1e-9
    assert "mass drift" in capsys.readouterr().out


def test_solve_no_measure_keeps_kinetic_energy(tmp_path):
    out = tmp_path / "free"
    assert run("solve", "--out", str(out), "--override", "half_length=8",
               "--override", "n_points=512", "--override", "measure=none",
               "--override", "eps=0.4", "--override", "dt=0.01",
               "--override", "t_final=0.1", "--override",
               "record_every=5") == 0
    rows = np.genfromtxt(out / "diagnostics.csv", delimiter=",", names=True)
    assert np.ptp(rows["energy"]) < 1e-10


def test_solve_snapshots_written(tmp_path):
    out = tmp_path / "snap"
    assert run("solve", "--out", str(out), "--override", "half_length=8",
               "--override", "n_points=512", "--override", "measure=none",
               "--override", "eps=0.4", "--override", "dt=0.01",
               "--override", "t_final=0.05", "--override", "record_every=5",
               "--override", "snapshots=true") == 0
    snaps = sorted((out / "snapshots").glob("state_*.bin"))
    assert len(snaps) == 2  # t = 0 and t = 0.05
    doc = json.loads((out / "manifest.json").read_text())
    assert "state_000000.bin" in doc["outputs"]


def test_solve_reruns_byte_identical(tmp_path):
    args = ["--override", "half_length=8", "--override", "n_points=512",
            "--override", "window_lo=-8", "--override", "window_hi=8",
            "--override", "initial=random", "--override", "eps=0.4",
            "--override", "dt=0.01", "--override", "t_final=0.05",
            "--override", "record_every=5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("solve", "--out", str(a), "--seed", "3", *args) == 0
    assert run("solve", "--out", str(b), "--seed", "3", *args) == 0
    assert (a / "diagnostics.csv").read_bytes() == \
        (b / "diagnostics.csv").read_bytes()


def test_exit_codes(tmp_path):
    assert run("sample", "--override", "measure=martian",
               "--out", str(tmp_path / "x")) == 2
    assert run("sample", "--override", "nope=1",
               "--out", str(tmp_path / "x")) == 2
    assert run("solve", "--out", str(tmp_path / "x"),
               "--override", "n_points=256") == 3  # dx > eps/2
    assert run("solve", "--out", str(tmp_path / "x"),
               "--override", "eps=0") == 2  # outside (0, 1], not a grid issue
    assert run("solve", "--out", str(tmp_path / "x"), "--override",
               "initial=file", "--override",
               f"field_file={tmp_path / 'missing.csv'}") == 2
    assert run("sample", "--out", str(tmp_path / "x"), "--override",
               "measure=file", "--override",
               f"atoms_file={tmp_path / 'missing.json'}") == 2


def test_atoms_file_without_atoms_exits_2(tmp_path):
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps({"window": [-8, 8]}))
    assert run("sample", "--out", str(tmp_path / "x"), "--override",
               "measure=file", "--override", f"atoms_file={atoms}") == 2


def test_field_bin_cut_in_header_exits_2(tmp_path):
    field = tmp_path / "psi.bin"
    field.write_bytes(_BIN_MAGIC + b"\0" * 12)
    assert run("solve", "--out", str(tmp_path / "x"), "--override",
               "initial=file", "--override", f"field_file={field}") == 2


def test_solve_accepts_every_width_the_library_accepts(tmp_path):
    """On the default grid dx = eps/6.4 at eps = 0.1, inside the dx <= eps/2
    rule, so the solve runs."""
    assert run("solve", "--out", str(tmp_path / "x"), "--override", "eps=0.1",
               "--override", "t_final=0.01") == 0


@pytest.mark.parametrize("rows", ["", "-1,0,0\n"], ids=["header_only", "one_row"])
def test_field_csv_too_short_exits_2(tmp_path, rows):
    field = tmp_path / "psi.csv"
    field.write_text("x,re,im\n" + rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("solve", "--out", str(tmp_path / "x"), "--override",
                   "initial=file", "--override", f"field_file={field}") == 2
    assert not [w for w in caught if issubclass(w.category, UserWarning)]


@pytest.mark.parametrize("text", [
    "{not json",
    '{"window": 5, "atoms": []}',
    '{"window": [-8, 8], "atoms": [[0, 1, 2]]}',
    '{"window": [-8, 8], "atoms": [[0.1, 1.0, 0.2, 2.0]]}',
    '{"window": [-8, 8], "atoms": [0.1, 1.0]}',
    '{"window": [-1, 1, 5], "atoms": []}',
])
def test_malformed_atoms_file_exits_2(tmp_path, capsys, text):
    atoms = tmp_path / "atoms.json"
    atoms.write_text(text)
    assert run("sample", "--out", str(tmp_path / "x"), "--override",
               "measure=file", "--override", f"atoms_file={atoms}") == 2
    assert "config error" in capsys.readouterr().err


def test_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch,
                                                    capsys):
    """A ValueError raised inside the computation is a bug: it propagates
    instead of being reported as bad configuration."""
    import sprinkled_nls.solver as solver

    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(solver, "sobolev_norm", broken)
    with pytest.raises(ValueError, match="internal failure"):
        run("solve", "--out", str(tmp_path / "x"), "--override",
            "half_length=8", "--override", "n_points=512", "--override",
            "measure=none", "--override", "eps=0.4", "--override",
            "t_final=0.01")
    assert "config error" not in capsys.readouterr().err


def test_default_study_config_passes_resolution_checks():
    """The bare eps study's finest solve (half the smallest rung) and the
    stability study's width clear the library rule on the default grid."""
    cfg = resolve_config(None, [], None, None)
    grid = Grid(cfg["half_length"], cfg["n_points"])
    check_resolution(grid, min(cfg["eps_ladder"]) / 2)
    check_resolution(grid, cfg["eps"])


def test_readme_config_table_matches_schema():
    """Every config key has a README row stating its default; keys whose
    default defers to the command (empty or 0) carry a plain-text note."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    table = readme.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    documented = {}
    for line in table.splitlines()[2:]:
        key_cell, default_cell = line.strip("|").split("|")[:2]
        keys = re.findall(r"`([^`]+)`", key_cell)
        defaults = re.findall(r"`([^`]*)`", default_cell) or [None] * len(keys)
        assert len(keys) == len(defaults), line
        documented.update(zip(keys, defaults))
    assert set(documented) == set(SCHEMA)
    for key, text in documented.items():
        if text is None:
            assert not DEFAULTS[key], key
        else:
            assert _parse_value(key, text) == DEFAULTS[key], key


def test_study_moments_pass_and_report(tmp_path, capsys):
    out = tmp_path / "m"
    code = run("study", "--out", str(out), "--seed", "0", "--override",
               "study=moments", "--override", "n_samples=1000")
    assert code == 0
    held = capsys.readouterr().out
    assert "n0_in_band: PASS" in held
    doc = json.loads((out / "study_moments.json").read_text())
    assert doc["passed"] is True
    assert (out / "study_moments.csv").is_file()
    assert (out / "manifest.json").is_file()


def test_study_flag_failure_exits_5(tmp_path):
    # seed 123 at 1000 samples leaves the half-vs-full estimate > 2% apart
    code = run("study", "--out", str(tmp_path / "f"), "--seed", "123",
               "--override", "study=moments", "--override", "n_samples=1000")
    assert code == 5
    doc = json.loads((tmp_path / "f" / "study_moments.json").read_text())
    assert doc["passed"] is False


def test_study_laplace_cli(tmp_path):
    out = tmp_path / "lap"
    assert run("study", "--out", str(out), "--seed", "3", "--override",
               "study=laplace", "--override", "n_samples=2000") == 0
    doc = json.loads((out / "study_laplace.json").read_text())
    assert doc["passed"] is True


def test_study_ladder_validation(tmp_path):
    assert run("study", "--out", str(tmp_path / "x"), "--override",
               "study=eps", "--override", "eps_ladder=0.4,0.3,0.2") == 2
    assert run("study", "--out", str(tmp_path / "x"), "--override",
               "study=stability", "--override", "deltas=1e-4,1e-3") == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sprinkled_nls.cli", "sample", "--out",
         str(tmp_path / "m"), "--override", "measure=kronig_penney",
         "--override", "window_lo=-4", "--override", "window_hi=4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "atoms" in proc.stdout
    assert (tmp_path / "m" / "atoms.csv").is_file()
