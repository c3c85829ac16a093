import hashlib
import inspect
import json
import os
import re
import resource
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sprinkled_nls import cli, solver
from sprinkled_nls.cli import (DEFAULTS, SCHEMA, _parse_value, main,
                               resolve_config)
from sprinkled_nls.errors import MAX_ENTRIES, MAX_STEPS, ConfigError
from sprinkled_nls.field import _BIN_MAGIC, Grid
from sprinkled_nls.mollify import VARIANTS, check_resolution
from sprinkled_nls.studies import StudyReport


def run(*argv):
    return main(list(argv))


def overrides(*pairs):
    return [arg for pair in pairs for arg in ("--override", pair)]


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
    assert run("sample", "--out", str(tmp_path / "x"),
               *overrides("window_lo=5", "window_hi=-5")) == 2
    with pytest.raises(ConfigError):
        resolve_config(None, ["variant=bogus"], None, None)
    bad =tmp_path / "bad.cfg"
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


def test_bernoulli_edge_site_sample_exits_0(tmp_path):
    """The top lattice site 3 * 0.1 rounds above window_hi = 0.3; it is
    clipped onto the edge, so the sample is written, not refused."""
    out = tmp_path / "b"
    assert run("sample", "--out", str(out),
               *overrides("measure=bernoulli", "spacing=0.1", "window_lo=-10",
                          "window_hi=0.3")) == 0
    rows = (out / "atoms.csv").read_text().splitlines()[1:]
    assert len(rows) == 104
    assert float(rows[-1].split(",")[0]) == 0.3


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


def test_exit_codes(tmp_path, capsys):
    assert run("sample", "--override", "measure=martian",
               "--out", str(tmp_path / "x")) == 2
    assert run("sample", "--override", "nope=1",
               "--out", str(tmp_path / "x")) == 2
    assert run("solve", "--out", str(tmp_path / "x"),
               "--override", "n_points=256") == 3  # dx > eps/2
    assert run("solve", "--out", str(tmp_path / "x"),
               "--override", "eps=0") == 2  # outside (0, 1], not a grid issue
    # non-finite or non-positive inputs are configuration problems
    for pairs in (["t_final=nan"], ["t_final=inf"], ["sigma=nan"],
                  ["center=inf"], ["amplitude=nan"],
                  ["initial=random", "spectral_width=0"],
                  ["initial=random", "spectral_width=nan"]):
        assert run("solve", "--out", str(tmp_path / "x"),
                   *overrides(*pairs)) == 2, pairs
    # a non-finite window or intensity, whether the measure is drawn or empty,
    # or a mean atom count too large to draw
    for command, pairs in (
            ("sample", ["measure=none", "window_lo=-inf"]),
            ("solve", ["measure=none", "window_lo=-inf"]),
            ("sample", ["intensity=1e300"]),
            ("study", ["study=moments", "intensity=1e300"]),
            ("study", ["study=moments", "intensity=inf"]),
            ("study", ["study=moments", "window_lo=-inf"]),
            ("study", ["study=moments", "window_hi=nan"]),
            # a finite window whose interval table does not fit int64
            ("sample", ["measure=none", "window_hi=1e300"]),
            # a step count, top grid frequency or lattice index past the
            # largest double
            ("solve", ["dt=1e-320"]),
            # a finite step count past the solver's ceiling
            ("solve", ["dt=1e-300"]),
            ("solve", ["half_length=1e-320"]),
            ("solve", ["half_length=1e-304"]),
            ("sample", ["measure=bernoulli", "spacing=1e-310"])):
        assert run(command, "--out", str(tmp_path / "x"),
                   *overrides(*pairs)) == 2, (command, pairs)
    assert run("solve", "--out", str(tmp_path / "x"), "--override",
               "initial=file", "--override",
               f"field_file={tmp_path / 'missing.csv'}") == 2
    assert run("sample", "--out", str(tmp_path / "x"), "--override",
               "measure=file", "--override",
               f"atoms_file={tmp_path / 'missing.json'}") == 2
    # a start whose state stays finite but whose recorded diagnostics do not
    capsys.readouterr()
    for amplitude in ("1e150", "1e80"):
        assert run("solve", "--out", str(tmp_path / "x"), "--override",
                   f"amplitude={amplitude}") == 4, amplitude
        assert "numerical failure" in capsys.readouterr().err, amplitude


def test_non_finite_start_record_exits_before_stepping(tmp_path, capsys,
                                                       monkeypatch):
    """A start whose |psi|^4 overflows fails on its own record 0: the run
    exits 4 before the first step, and the overflow raises no warning."""
    def no_run(*args, **kwargs):
        raise AssertionError("stepped a start whose record 0 is non-finite")

    monkeypatch.setattr(solver, "evolve_many", no_run)
    capsys.readouterr()
    for amplitude in ("1e150", "1e80"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("solve", "--out", str(tmp_path / "x"), "--override",
                       f"amplitude={amplitude}") == 4, amplitude
        assert ("numerical failure: non-finite recorded energy at step 0"
                in capsys.readouterr().err), amplitude


@pytest.mark.parametrize("command, pairs", [
    ("sample", ["measure=bernoulli", "window_lo=-inf"]),
    ("sample", ["measure=canonical", "window_hi=inf"]),
    ("sample", ["measure=kronig_penney", "window_hi=inf"]),
    ("solve", ["measure=none", "window_hi=1e300"]),
    ("study", ["study=eps", "measure=none", "window_hi=1e300"]),
    ("study", ["study=stability", "measure=none", "window_hi=1e300"]),
    ("study", ["study=moments", "window_hi=1e300", "intensity=1e-300"])])
def test_window_outside_rule_exits_2(tmp_path, capsys, command, pairs):
    """Every measure and every sampler checks the window before any work,
    whatever the measure kind or command."""
    assert run(command, "--out", str(tmp_path / "x"), *overrides(*pairs)) == 2
    assert "2**52" in capsys.readouterr().err


def test_heavy_atom_solve_exits_0(tmp_path):
    """An atom of mass 1e5 raises N_k^2 to about 1e10 but adds no table
    rows: the profile spans the window's intervals only."""
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps({"window": [-32, 32], "atoms": [[0.3, 1e5]]}))
    out = tmp_path / "x"
    assert run("solve", "--out", str(out), *overrides(
        "measure=file", f"atoms_file={atoms}", "t_final=0.01")) == 0
    with open(out / "diagnostics.csv") as fh:
        header = fh.readline().strip().split(",")
    l2mu = np.loadtxt(out / "diagnostics.csv", delimiter=",",
                      skiprows=1)[:, header.index("l2mu")]
    assert np.isfinite(l2mu).all() and (l2mu > 0).all()


def run_capped(tmp_path, command, *pairs):
    """``python3 -m sprinkled_nls.cli`` in a child process whose address
    space is capped at 2 GiB, so an oversize input that escapes the size
    rule fails its allocation there instead of in the test process."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "sprinkled_nls.cli", command,
         "--out", str(tmp_path / "x"), *overrides(*pairs)],
        capture_output=True, text=True, timeout=60, preexec_fn=cap,
        env={**os.environ, "PYTHONPATH": path})


def test_oversize_configs_exit_2(tmp_path):
    """Each size a config drives passes one rule against its ceiling before
    anything is allocated or stepped: grid points, interval-table cells,
    lattice sites, mean atom count, fixed atom count, study samples, held
    records and steps."""
    for command, pairs, ceiling in (
            ("sample", ["measure=none", "window_hi=1e15"], MAX_ENTRIES),
            ("solve", ["measure=none", "window_hi=1e15"], MAX_ENTRIES),
            ("sample", ["measure=bernoulli", "spacing=1e-10"], MAX_ENTRIES),
            ("sample", ["intensity=1e12"], MAX_ENTRIES),
            ("solve", ["dt=1e-6", "t_final=10", "record_every=1"],
             MAX_ENTRIES),
            ("solve", ["n_points=1099511627776"], MAX_ENTRIES),
            ("sample", ["measure=canonical", "count=1000000000000"],
             MAX_ENTRIES),
            ("study", ["study=moments", "n_samples=1000000000000"],
             MAX_ENTRIES),
            ("study", ["study=laplace", "n_samples=5000000000"], MAX_ENTRIES),
            ("solve", ["dt=1e-300"], MAX_STEPS)):
        proc = run_capped(tmp_path, command, *pairs)
        assert proc.returncode == 2, (command, pairs, proc.stderr)
        assert re.search(rf"^config error: .*ceiling \[0, {ceiling}\]$",
                         proc.stderr, re.MULTILINE), (command, pairs,
                                                      proc.stderr)


def test_heavy_atom_sample_writes_window_rows(tmp_path):
    """profile.csv holds the window's rows only, whatever an atom's mass."""
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps({"window": [-32, 32], "atoms": [[0.3, 1e5]]}))
    proc = run_capped(tmp_path, "sample", "measure=file",
                      f"atoms_file={atoms}")
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "x" / "profile.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == list(range(-32, 33))


@pytest.mark.parametrize("command, pairs", [
    ("sample", []), ("study", ["study=moments", "n_samples=1000"]),
    ("study", ["study=laplace", "n_samples=1000"])])
def test_negative_seed_exits_2(tmp_path, capsys, command, pairs):
    assert run(command, "--out", str(tmp_path / "x"), "--seed", "-1",
               *overrides(*pairs)) == 2
    assert "non-negative" in capsys.readouterr().err


def test_atoms_file_without_atoms_exits_2(tmp_path):
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps({"window": [-8, 8]}))
    assert run("sample", "--out", str(tmp_path / "x"), "--override",
               "measure=file", "--override", f"atoms_file={atoms}") == 2


def test_field_bin_cut_in_header_exits_2(tmp_path):
    """A header cut short, and a header whose N = 2^62 values the file does
    not hold (16 N bytes overflow a read size)."""
    field = tmp_path / "psi.bin"
    for data in (_BIN_MAGIC + b"\0" * 12,
                 _BIN_MAGIC + struct.pack("<dQ", 8.0, 1 << 62)):
        field.write_bytes(data)
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


def test_study_moments_reads_the_grid(tmp_path):
    """The moment study builds its Gaussians on the configured grid."""
    out = tmp_path / "m"
    assert run("study", "--out", str(out),
               *overrides("study=moments", "half_length=16", "n_points=1024",
                          "n_samples=1000")) == 0
    params = json.loads((out / "study_moments.json").read_text())["params"]
    assert (params["grid_n"], params["half_length"]) == (1024, 16.0)


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
               "study=eps", "--override", "eps_ladder=0.8,0.4,nan") == 2
    assert run("study", "--out", str(tmp_path / "x"), "--override",
               "study=stability", "--override", "deltas=1e-4,1e-3") == 2
    assert run("study", "--out", str(tmp_path / "x"), "--override",
               "study=stability", "--override", "deltas=nan") == 2
    assert run("study", "--out", str(tmp_path / "x"), "--override",
               "study=stability", "--override", "deltas=1e-2,0") == 2


@pytest.mark.parametrize("study, fn", [("eps", "eps_convergence_study"),
                                       ("stability", "stability_study")])
def test_unset_variant_is_the_study_default(tmp_path, study, fn):
    """An empty variant leaves the study's signature default in force; a set
    one is passed through.  Both land in the report's params."""
    default = inspect.signature(getattr(cli, fn)).parameters["variant"].default
    other = next(v for v in VARIANTS if v != default)
    small = overrides(f"study={study}", "half_length=8", "n_points=512",
                      "window_lo=-8", "window_hi=8", "t_final=0.05",
                      "eps_ladder=0.8,0.4,0.2")
    for variant, expected in (("", default), (other, other)):
        out = tmp_path / (variant or "unset")
        run("study", "--out", str(out), *small, *overrides(f"variant={variant}"))
        [report] = out.glob("study_*.json")
        assert json.loads(report.read_text())["params"]["variant"] == expected


@pytest.mark.parametrize("study, fn", [("moments", "moment_study"),
                                       ("laplace", "laplace_study")])
def test_unset_n_samples_is_the_study_default(tmp_path, monkeypatch, study, fn):
    """n_samples = 0 leaves the study's signature default in force; a set
    count is passed through.  A stub records the bound count instead of
    running the study."""
    signature = inspect.signature(getattr(cli, fn))
    seen = []

    def stub(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["n_samples"])
        return StudyReport(study, {}, {})

    monkeypatch.setattr(cli, fn, stub)
    for n in (0, 1234):
        assert run("study", "--out", str(tmp_path / str(n)),
                   *overrides(f"study={study}", f"n_samples={n}")) == 0
    assert seen == [signature.parameters["n_samples"].default, 1234]


def test_every_study_input_is_set_by_the_cli(tmp_path, monkeypatch):
    """With variant and n_samples set, the CLI binds every parameter of each
    study function, and none to None: no study input is left to a default
    that only a direct caller could change."""
    studies = {"eps": "eps_convergence_study", "stability": "stability_study",
               "moments": "moment_study", "laplace": "laplace_study"}
    signatures = {fn: inspect.signature(getattr(cli, fn))
                  for fn in studies.values()}
    bound = {}

    def stub_for(fn):
        def stub(*args, **kwargs):
            bound[fn] = signatures[fn].bind(*args, **kwargs).arguments
            return StudyReport(fn, {}, {})
        return stub

    for fn in signatures:
        monkeypatch.setattr(cli, fn, stub_for(fn))
    for study, fn in studies.items():
        assert run("study", "--out", str(tmp_path / study),
                   *overrides(f"study={study}", "variant=fully_truncated",
                              "n_samples=1234")) == 0
        assert list(bound[fn]) == list(signatures[fn].parameters), fn
        assert all(v is not None for v in bound[fn].values()), fn


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sprinkled_nls.cli", "sample", "--out",
         str(tmp_path / "m"), "--override", "measure=kronig_penney",
         "--override", "window_lo=-4", "--override", "window_hi=4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "atoms" in proc.stdout
    assert (tmp_path / "m" / "atoms.csv").is_file()
