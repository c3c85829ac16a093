"""Configuration-driven command line: sample / solve / study.

Config files are flat ``key = value`` text (``#`` starts a comment).  Every
key has a default, so a config file only states what it changes; ``--override
key=value`` applies on top of the file and ``--seed`` / ``--out`` on top of
that.  Runs are deterministic given (config, seed): rerunning writes
byte-identical CSV payloads.  Timestamps appear only in the JSON manifest.

Exit codes: 0 success (and all study flags pass), 2 configuration problem,
3 grid too coarse for a smoothing width (a ResolutionError),
4 numerical failure, 5 study flags failed.  A configuration problem is a
ConfigError: the CLI raises it for keys and values, converts the ValueError
of anything it builds from the config (grid, measure, initial field, step
parameters, input files), and the library raises it for a smoothing width
outside (0, 1], for a window outside -2**52 <= window_lo < window_hi <=
2**52 (checked only where a command reads the window), for a Poisson
intensity that is not finite and positive, for a size past its ceiling
(``errors.checked_size``, before anything is allocated or stepped), and for
study inputs.  Any other exception is a bug and propagates.  An empty
``variant`` or a zero ``n_samples`` is not passed on, so the called
function's own default applies.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import rng as _rng
from .errors import BlowUpError, ConfigError, ResolutionError
from .field import (Grid, gaussian_field, load_field_bin, load_field_csv,
                    random_field)
from .measure import save_profile_csv, weight_profile
from .mollify import VARIANTS
from .payload import write_json
from .point_process import (AtomicMeasure, load_atoms_json, sample_bernoulli_crystal,
                            sample_comb, sample_fixed_count, sample_poisson,
                            save_atoms_csv, save_atoms_json)
from .solver import SolverParams, evolve_regularized, save_snapshots, save_trajectory_csv
from .studies import (eps_convergence_study, laplace_study, moment_study,
                      save_report_csv, save_report_json, stability_study)

__all__ = ["main", "SCHEMA", "DEFAULTS", "resolve_config"]

MEASURES = ("poisson", "bernoulli", "canonical", "kronig_penney", "file", "none")
INITIALS = ("gaussian", "random", "file")
STUDIES = ("eps", "stability", "moments", "laplace")

# key -> (type tag, default, help); the single source for parsing and docs.
SCHEMA: dict[str, tuple[str, object, str]] = {
    "seed": ("int", 0, "master seed; substreams derive from it"),
    "out_dir": ("str", "out", "output directory, created if missing"),
    "half_length": ("float", 32.0, "domain is [-half_length, half_length)"),
    "n_points": ("int", 4096, "grid points, a power of two"),
    "window_lo": ("float", -32.0, "sampling window lower edge"),
    "window_hi": ("float", 32.0, "sampling window upper edge"),
    "measure": ("choice:" + ",".join(MEASURES), "poisson", "measure source"),
    "intensity": ("float", 1.0, "poisson intensity"),
    "spacing": ("float", 1.0, "bernoulli lattice spacing"),
    "prob": ("float", 1.0, "bernoulli site-occupation probability"),
    "count": ("int", 64, "canonical (fixed-count) atom count, >= 0"),
    "atoms_file": ("str", "", "atoms JSON path for measure = file"),
    "initial": ("choice:" + ",".join(INITIALS), "gaussian", "initial data kind"),
    "sigma": ("float", 1.0, "gaussian width"),
    "center": ("float", 0.0, "gaussian center"),
    "amplitude": ("float", 1.0, "gaussian amplitude"),
    "spectral_width": ("float", 3.0, "random-field spectral envelope width"),
    "field_file": ("str", "", "field CSV/BIN path for initial = file"),
    "eps": ("float", 0.2, "smoothing width for solve / stability"),
    "variant": ("choice:," + ",".join(VARIANTS), "",
                "potential variant; empty picks the per-command default"),
    "dt": ("float", 1e-3, "time step"),
    "t_final": ("float", 1.0, "final time"),
    "record_every": ("int", 10, "steps between diagnostic records"),
    "record_quartic": ("bool", True, "record the quartic measure integral (solve)"),
    "snapshots": ("bool", False, "write binary state snapshots (solve)"),
    "study": ("choice:" + ",".join(STUDIES), "eps", "which study to run"),
    "eps_ladder": ("floats", (1.0, 0.5, 0.25, 0.125),
                   "widths, each exactly half the one before"),
    "deltas": ("floats", (1e-2, 1e-3, 1e-4), "perturbation sizes (stability)"),
    "n_samples": ("int", 0, "study sample count; 0 = per-study default"),
}
DEFAULTS = {k: v for k, (_, v, _) in SCHEMA.items()}


def _parse_value(key: str, raw: str):
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key: {key}")
    tag = SCHEMA[key][0]
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if tag == "floats":
            return tuple(float(p) for p in raw.split(",") if p.strip())
        if tag.startswith("choice:"):
            choices = tag.split(":", 1)[1].split(",")
            if raw not in choices:
                raise ValueError(f"must be one of {choices}")
            return raw
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def _read_config_file(path: str) -> list[tuple[str, str]]:
    pairs = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, raw = line.partition("=")
        pairs.append((key.strip(), raw))
    return pairs


def resolve_config(config_path: str | None, overrides: list[str],
                   seed: int | None, out: str | None) -> dict:
    cfg = dict(DEFAULTS)
    if config_path:
        for key, raw in _read_config_file(config_path):
            cfg[key] = _parse_value(key, raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--override needs key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfg[key.strip()] = _parse_value(key.strip(), raw)
    if seed is not None:
        cfg["seed"] = seed
    if out is not None:
        cfg["out_dir"] = out
    return cfg


@contextmanager
def _configured(what: str):
    """Report a configured value or input file that the library rejects, or
    a file it cannot read, as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    with _configured("out_dir"):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _grid(cfg: dict) -> Grid:
    with _configured("grid"):
        return Grid(cfg["half_length"], cfg["n_points"])


def _build_measure(cfg: dict) -> AtomicMeasure:
    window = (cfg["window_lo"], cfg["window_hi"])
    kind = cfg["measure"]
    seed = _rng.substream_seed(cfg["seed"], 0)
    with _configured(f"measure {kind}"):
        if kind == "poisson":
            return sample_poisson(window, cfg["intensity"], seed)
        if kind == "bernoulli":
            return sample_bernoulli_crystal(window, cfg["spacing"], cfg["prob"], seed)
        if kind == "canonical":
            return sample_fixed_count(window, cfg["count"], seed)
        if kind == "kronig_penney":
            return sample_comb(window)
        if kind == "none":
            return AtomicMeasure(window, np.empty(0), np.empty(0))
        if not cfg["atoms_file"]:
            raise ConfigError("measure=file requires atoms_file=PATH")
        return load_atoms_json(cfg["atoms_file"])


def _build_initial(cfg: dict, grid: Grid):
    kind = cfg["initial"]
    with _configured(f"initial {kind}"):
        if kind == "gaussian":
            return gaussian_field(grid, sigma=cfg["sigma"], center=cfg["center"],
                                  amplitude=cfg["amplitude"])
        if kind == "random":
            gen = _rng.generator(_rng.substream_seed(cfg["seed"], 1))
            return random_field(grid, gen, spectral_width=cfg["spectral_width"])
        if not cfg["field_file"]:
            raise ConfigError("initial=file requires field_file=PATH")
        path = Path(cfg["field_file"])
        f = load_field_bin(path) if path.suffix == ".bin" else load_field_csv(path)
    if f.grid != grid:
        raise ConfigError("field_file grid does not match the configured grid")
    return f


def _if_set(cfg: dict, key: str) -> dict:
    """``{key: value}`` for a set key, else nothing: the callee's default."""
    return {key: cfg[key]} if cfg[key] else {}


def _solver_params(cfg: dict) -> SolverParams:
    with _configured("stepping"):
        return SolverParams(dt=cfg["dt"], t_final=cfg["t_final"],
                            record_every=cfg["record_every"],
                            record_quartic=cfg["record_quartic"])


def _write_manifest(out: Path, command: str, cfg: dict,
                    outputs: list[Path]) -> None:
    write_json(out / "manifest.json", {
        "command": command,
        "config": cfg,
        "outputs": {p.name: hashlib.sha1(p.read_bytes()).hexdigest()
                    for p in outputs},
        "created_unix": time.time(),
    })


def cmd_sample(cfg: dict) -> int:
    out = _out_dir(cfg)
    mu = _build_measure(cfg)
    profile = weight_profile(mu)
    save_atoms_csv(mu, out / "atoms.csv")
    save_atoms_json(mu, out / "atoms.json")
    save_profile_csv(profile, out / "profile.csv")
    _write_manifest(out, "sample", cfg,
                    [out / "atoms.csv", out / "atoms.json", out / "profile.csv"])
    print(f"wrote {mu.count} atoms -> {out / 'atoms.csv'}")
    return 0


def cmd_solve(cfg: dict) -> int:
    out = _out_dir(cfg)
    grid = _grid(cfg)
    mu = _build_measure(cfg)
    psi0 = _build_initial(cfg, grid)
    traj = evolve_regularized(psi0, mu, cfg["eps"], _solver_params(cfg),
                              **_if_set(cfg, "variant"))
    save_trajectory_csv(traj, out / "diagnostics.csv")
    outputs = [out / "diagnostics.csv"]
    if cfg["snapshots"]:
        snap_dir = out / "snapshots"
        outputs += [snap_dir / p for p in save_snapshots(traj, snap_dir)]
    _write_manifest(out, "solve", cfg, outputs)
    drift = abs(traj.diagnostics["mass"][-1] - traj.diagnostics["mass"][0])
    print(f"solved to t = {traj.diagnostics['t'][-1]:g} "
          f"({traj.params.n_steps} steps), "
          f"mass drift {drift:.3e} -> {out / 'diagnostics.csv'}")
    return 0


def cmd_study(cfg: dict) -> int:
    out = _out_dir(cfg)
    which = cfg["study"]
    if which == "eps":
        report = eps_convergence_study(
            _build_initial(cfg, _grid(cfg)), _build_measure(cfg),
            cfg["eps_ladder"], _solver_params(cfg), **_if_set(cfg, "variant"))
    elif which == "stability":
        report = stability_study(
            _build_initial(cfg, _grid(cfg)), _build_measure(cfg), cfg["eps"],
            cfg["deltas"], _solver_params(cfg),
            _rng.substream_seed(cfg["seed"], 2), **_if_set(cfg, "variant"))
    elif which == "moments":
        report = moment_study(_grid(cfg), seed=cfg["seed"],
                              window=(cfg["window_lo"], cfg["window_hi"]),
                              intensity=cfg["intensity"],
                              **_if_set(cfg, "n_samples"))
    else:
        report = laplace_study(cfg["seed"], **_if_set(cfg, "n_samples"))

    csv_path = out / f"study_{report.name}.csv"
    save_report_csv(report, csv_path)
    save_report_json(report, out / f"study_{report.name}.json")
    _write_manifest(out, f"study {which}", cfg,
                    [csv_path, out / f"study_{report.name}.json"])
    for flag, ok in report.flags.items():
        print(f"{flag}: {'PASS' if ok else 'FAIL'}")
    print(f"report -> {csv_path}")
    return 0 if report.passed() else 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="sprinkled-nls",
        description="sampling, solving and studies for NLS with a sprinkled "
                    "nonlinearity")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text in (("sample", "draw a measure and write its atoms"),
                            ("solve", "run one regularized evolution"),
                            ("study", "run a parameter study")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key = value text file")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="set one config key")
    args = ap.parse_args(argv)

    try:
        cfg = resolve_config(args.config, args.override, args.seed, args.out)
        if args.command == "sample":
            return cmd_sample(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        return cmd_study(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return 3
    except BlowUpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
