import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    """The benchmark's tracer wraps library functions by (module, attr); a
    renamed or deleted target would silently drop its layer from the
    benchmark, so each one must still name a callable."""
    tracer = _load_tracer()
    targets = [t for ts in tracer.LAYERS.values() for t in ts]
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(
                   f"{tracer.PACKAGE}.{module}"), attr, None))]
    assert not missing


def test_solver_targets_are_reached(monkeypatch):
    """A target that resolves can still go unseen: if the solver stops
    calling a function through the attribute the tracer wraps, that layer
    reads zero.  Wrap every solver target and the atom evaluation with a
    counter, run one small evolution with the quartic recorded against an
    atom, and check that each is reached as often as the run implies."""
    tracer = _load_tracer()
    from sprinkled_nls import solver
    from sprinkled_nls.field import Grid, gaussian_field
    from sprinkled_nls.point_process import AtomicMeasure

    targets = [t for ts in tracer.LAYERS.values() for t in ts
               if t[0] == "solver"] + [("diagnostics", "evaluate_at")]
    calls = Counter()
    for module_name, attr in targets:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")

        def counted(*args, _fn=getattr(module, attr), _key=attr, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)

    grid = Grid(16.0, 512)
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.5]), np.array([1.0]))
    traj = solver.evolve_regularized(
        gaussian_field(grid), mu, 0.2,
        solver.SolverParams(dt=1e-2, t_final=0.05, record_every=2,
                            record_quartic=True))
    records = len(traj.diagnostics["t"])
    assert records == 4
    for attr in ("mass", "energy", "sobolev_norm", "sup_norm",
                 "weighted_l2_norm", "quartic_measure_integral",
                 "evaluate_at"):
        assert calls[attr] == records, attr
    for attr in ("evolve", "truncated_potential", "weight_profile"):
        assert calls[attr] == 1, attr
    assert all(calls[attr] for _, attr in targets)


def test_stability_study_targets_are_reached(monkeypatch):
    """The tracer sees study-stability's record norms through the studies
    module: one weight profile, one weighted norm per stepped run and
    record, and per record the H^1 norm of each stepped run plus the H^-1
    norm of each forward and backward difference.  A real start steps its
    base run once, so it has one stepped run fewer than a complex one."""
    tracer = _load_tracer()
    from sprinkled_nls import studies
    from sprinkled_nls.field import Grid, WaveField, gaussian_field
    from sprinkled_nls.point_process import AtomicMeasure
    from sprinkled_nls.solver import SolverParams

    calls = Counter()
    for module_name, attr in (t for ts in tracer.LAYERS.values() for t in ts
                              if t[0] == "studies"):
        def counted(*args, _fn=getattr(studies, attr), _key=attr, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(studies, attr, counted)

    grid = Grid(16.0, 512)
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.5]), np.array([1.0]))
    deltas = (1e-2, 1e-3)
    params = SolverParams(dt=1e-2, t_final=0.05, record_every=2)
    real = gaussian_field(grid)
    complex_start = WaveField(grid, real.values * np.exp(1j * grid.x))
    records = 4  # records at steps 0, 2, 4, 5
    for psi0, runs in ((real, 2 * (1 + len(deltas)) - 1),
                       (complex_start, 2 * (1 + len(deltas)))):
        calls.clear()
        studies.stability_study(psi0, mu, 0.2, deltas, params, 0)
        assert calls["stability_study"] == 1
        assert calls["weight_profile"] == 1
        assert calls["weighted_l2_norm"] == runs * records
        assert calls["sobolev_norm"] == (runs + 2 * len(deltas)) * records
