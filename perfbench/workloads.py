"""The benchmark workloads: inputs from a seed, one call, its checks.

Each workload drives the library only through a public entry point
(``cli.main``, ``studies.stability_study`` or ``studies.moment_study``),
looked up on its module at call time so that the traced run sees the same
call. The benchmark seed never reaches the program: it feeds the
benchmark's own generator, and the program receives what that generator
made (an atoms file, a measure, a study seed).

Every workload has two sizes. ``full`` is what the timed loop runs. ``short``
is the warm-up call, run on ``REFERENCE_SEED`` and compared with the values
in ``reference.json``; the smoke test runs it too.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Reference columns must match within these relative tolerances. They are
# wider than the current quadrature's own error (about 1.7e-7 relative for
# L2_mu at refinement 32 and 5.5e-6 at refinement 1), so an exact spectral
# pairing passes, and far narrower than any wrong weight or norm.
L2MU_RTOL = 1e-5
EXACT_RTOL = 1e-8        # trigonometric interpolation and spectral norms
# the stability ratio divides trajectory differences by delta >= 1e-4, which
# amplifies rounding in the states by up to 1e4
DIFFERENCE_RTOL = 1e-6
REFINEMENT1_RTOL = 1e-4  # moment study, weighted norms at refinement 1

MASS_DRIFT_MAX = 1e-9    # acceptance criterion 02's mass bound


@dataclass
class Outcome:
    """What one call produced: payload bytes, failed checks, extra numbers."""

    payload: bytes
    problems: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)


def _generator(seed: int, name: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [int(seed), key])))


def _canonical(obj) -> object:
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    return obj


def _report_payload(report) -> bytes:
    doc = {"name": report.name, "params": report.params,
           "columns": report.columns, "rates": report.rates,
           "flags": report.flags, "constants": report.constants}
    return json.dumps(_canonical(doc), sort_keys=True).encode()


def _compare(name: str, got, want, rtol: float, atol: float = 0.0) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    close = np.isclose(got, want, rtol=rtol, atol=atol)
    if close.all():
        return []
    i = int(np.argmin(close))
    return [f"{name}[{i}] = {float(got[i])!r}, expected {float(want[i])!r} "
            f"(rtol {rtol:g})"]


def _nonfinite(name: str, values) -> list[str]:
    values = np.asarray(values, dtype=float)
    return [] if np.all(np.isfinite(values)) else [f"{name} has non-finite values"]


class Workload:
    """A name, the parameters of its two sizes, and the reference columns.

    ``tolerances`` maps each column in ``reference.json`` to its relative
    tolerance. ``outcome`` stores the checked columns in ``values["columns"]``.
    """

    tolerances: dict[str, float] = {}

    def __init__(self, name: str, full: dict, short: dict):
        self.name = name
        self.sizes = {"full": full, "short": short}

    def reference_problems(self, out: Outcome, ref: dict) -> list[str]:
        cols = out.values["columns"]
        return [p for c, rtol in self.tolerances.items()
                for p in _compare(f"reference {c}", cols[c], ref[c], rtol)]


def _flag_problems(report) -> list[str]:
    return [f"flag {k} failed" for k, ok in report.flags.items() if not ok]


class Solve(Workload):
    """``cli.main(["solve", ...])`` on a generated config and atoms file.

    The measure is a unit-intensity Poisson sample on [-32, 32) conditioned
    on 71 atoms (the count of the CLI's default seed), which is 71 i.i.d.
    uniform positions, so every seed does the same amount of work.
    """

    ATOMS = 71
    WINDOW = (-32.0, 32.0)
    tolerances = {"l2mu": L2MU_RTOL, "quartic": EXACT_RTOL}

    def inputs(self, lib, seed: int, workdir: Path, size: str) -> dict:
        gen = _generator(seed, self.name)
        positions = np.sort(gen.uniform(*self.WINDOW, size=self.ATOMS))
        workdir.mkdir(parents=True, exist_ok=True)
        atoms_file = workdir / "atoms.json"
        atoms_file.write_text(json.dumps(
            {"window": list(self.WINDOW),
             "atoms": [[float(y), 1.0] for y in positions]}) + "\n")
        settings = {"measure": "file", "atoms_file": str(atoms_file),
                    **self.sizes[size]}
        config = workdir / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        out = workdir / "out"
        return {"argv": ["solve", "--config", str(config), "--out", str(out)],
                "out": out, "positions": positions}

    def call(self, lib, inp: dict):
        return lib.cli.main(inp["argv"])

    def outcome(self, inp: dict, rc) -> Outcome:
        csv = inp["out"] / "diagnostics.csv"
        payload = csv.read_bytes()
        out = Outcome(payload)
        if rc != 0:
            out.problems.append(f"cli exit code {rc}")
        manifest = json.loads((inp["out"] / "manifest.json").read_text())
        digest = hashlib.sha1(payload).hexdigest()
        if manifest["outputs"].get("diagnostics.csv") != digest:
            out.problems.append("manifest hash does not match diagnostics.csv")
        table = np.genfromtxt(csv, delimiter=",", names=True)
        cols = {name: np.atleast_1d(table[name]) for name in table.dtype.names}
        for c, values in cols.items():
            out.problems += _nonfinite(c, values)
        mass, energy = cols["mass"], cols["energy"]
        drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
        if not drift < MASS_DRIFT_MAX:
            out.problems.append(f"mass drift {drift:.3e} >= {MASS_DRIFT_MAX:g}")
        # w >= 4 everywhere, so ||f||_{L2_mu} >= 2 ||f||_{L2}
        if np.any(cols["l2mu"] < 2.0 * np.sqrt(mass) * (1.0 - 1e-12)):
            out.problems.append("l2mu below 2 sqrt(mass)")
        out.problems += self._initial_row(inp, cols)
        out.values["energy_drift_rel"] = float(
            np.max(np.abs(energy - energy[0])) / energy[0])
        out.values["columns"] = {"l2mu": cols["l2mu"].tolist(),
                                 "quartic": cols["quartic"].tolist()}
        return out

    def _initial_row(self, inp: dict, cols: dict) -> list[str]:
        """Row t = 0 against closed forms for psi0 = exp(-x^2) and the atoms.

        mass = sqrt(pi/2); quartic = sum_j exp(-4 y_j^2); l2mu^2 integrates
        exp(-2x^2) w(x) by 24-point Gauss-Legendre on each unit interval,
        where the weight is linear.
        """
        y = inp["positions"]
        problems = _compare("initial mass", cols["mass"][:1],
                            [math.sqrt(math.pi / 2)], EXACT_RTOL)
        # atol covers the roundoff of |psi|^4 when no atom is near the bump
        problems += _compare("initial quartic", cols["quartic"][:1],
                             [np.sum(np.exp(-4.0 * y * y))], EXACT_RTOL,
                             atol=1e-24)
        ls, counts = np.unique(np.floor(y + 0.5).astype(int), return_counts=True)
        lo, hi = self.WINDOW
        ks = np.arange(int(lo) - 1, int(hi) + 2)
        nk2 = 4.0 + np.maximum(0.0, np.max(
            counts[None, :] ** 2 - np.abs(ks[:, None] - ls[None, :]), axis=1))
        nodes, weights = np.polynomial.legendre.leggauss(24)
        total = 0.0
        for k, left, right in zip(ks[:-1], nk2[:-1], nk2[1:]):
            if not lo <= k < hi:
                continue
            x = k + 0.5 * (nodes + 1.0)
            w = left + (x - k) * (right - left)
            total += 0.5 * float(np.sum(weights * np.exp(-2.0 * x * x) * w))
        return problems + _compare("initial l2mu", cols["l2mu"][:1],
                                   [math.sqrt(total)], L2MU_RTOL)

class Stability(Workload):
    """``studies.stability_study`` at its acceptance-test size.

    The measure is one unit atom uniform on [-0.5, 0.5) (the Poisson sample
    of the acceptance test conditioned on one atom); the perturbation seed
    comes from the benchmark's generator.
    """

    tolerances = {"r": DIFFERENCE_RTOL, "k": L2MU_RTOL}

    def inputs(self, lib, seed: int, workdir: Path, size: str) -> dict:
        gen = _generator(seed, self.name)
        grid = lib.Grid(32.0, 2048)
        mu = lib.AtomicMeasure((-0.5, 0.5), np.array([gen.uniform(-0.5, 0.5)]),
                               np.ones(1))
        return {"args": (lib.gaussian_field(grid), mu, 0.1, (1e-2, 1e-3, 1e-4),
                         lib.SolverParams(dt=1e-3, record_quartic=False,
                                          **self.sizes[size]),
                         int(gen.integers(2**62)))}

    def call(self, lib, inp: dict):
        return lib.studies.stability_study(*inp["args"])

    def outcome(self, inp: dict, report) -> Outcome:
        out = Outcome(_report_payload(report), _flag_problems(report))
        for c in ("r", "k", "envelope"):
            out.problems += _nonfinite(c, report.columns[c])
        out.values["columns"] = {"r": list(report.columns["r"]),
                                 "k": list(report.columns["k"])}
        return out


class Moments(Workload):
    """``studies.moment_study`` on its three built-in Gaussian profiles."""

    tolerances = {"n0_squared_full": EXACT_RTOL,
                  "mean_weighted_squared": REFINEMENT1_RTOL,
                  "ratio": REFINEMENT1_RTOL, "ratio_p2": REFINEMENT1_RTOL}

    def inputs(self, lib, seed: int, workdir: Path, size: str) -> dict:
        gen = _generator(seed, self.name)
        return {"n_samples": self.sizes[size]["n_samples"],
                "seed": int(gen.integers(2**62))}

    def call(self, lib, inp: dict):
        return lib.studies.moment_study(None, inp["n_samples"], inp["seed"])

    def outcome(self, inp: dict, report) -> Outcome:
        out = Outcome(_report_payload(report), _flag_problems(report))
        cols = {c: report.columns[c] for c in
                ("mean_weighted_squared", "ratio", "ratio_p2")}
        for c, v in cols.items():
            out.problems += _nonfinite(c, v)
        # w >= 4 everywhere, so E ||f||_{L2_mu}^2 >= 4 ||f||_{L2}^2
        if np.any(np.asarray(cols["ratio"]) < 4.0 * (1.0 - 1e-12)):
            out.problems.append("weighted-mass ratio below 4")
        out.values["columns"] = {
            **cols, "n0_squared_full": [report.rates["n0_squared_full"]]}
        return out


WORKLOADS = {w.name: w for w in (
    Solve("solve-default", full={}, short={"t_final": 0.05}),
    Stability("study-stability", full={"t_final": 1.0, "record_every": 50},
              short={"t_final": 0.3, "record_every": 50}),
    Moments("study-moments", full={"n_samples": 10000},
            short={"n_samples": 1000}),
)}


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
