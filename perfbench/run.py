"""Benchmark of the sprinkled-nls laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file, with no install step. Each workload runs in fresh
worker processes with ``SPRINKLED_NLS_THREADS`` unset:

* ``--trace 0`` runs ``SETUP_SAMPLES - 1`` set-up-only workers and one worker
  that sets up and then runs the timed loop for S seconds. It reports the
  end-to-end metrics: ``wall_ref_s`` (median wall time of one workload call,
  scaled by the host-speed probe of ``probe.py`` to its reference speed),
  ``setup_s`` (median over all workers of import + input generation +
  warm-up) and ``peak_rss_mb`` (peak resident memory of the loop worker).
  The unscaled median wall time is printed as ``wall_s``.
* ``--trace 1`` runs one worker that alternates untraced and traced calls
  and reports the per-layer metrics of ``tracer.py``; its spans are written
  to ``.bench_out/``.

Every call is checked (see ``workloads.py``); a call that raises, returns a
non-zero exit code or fails a check counts as failed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give quartiles, sample
counts, the failures and the environment.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import PROBE_REF_S
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g} q3 {q3:.6g} n={len(values)}"


def _worker(args, tag: str, seconds: float, deadline: float,
            env: dict) -> dict:
    workdir = OUT / f"{args.workload}-seed{args.seed}-{tag}-{os.getpid()}"
    result = workdir / "result.json"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir), "--result", str(result)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.json")]
    try:
        # the library prints progress lines; only the result file matters
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0 or not result.is_file():
            raise SystemExit(f"worker {tag} exited with {proc.returncode}")
        return json.loads(result.read_text())
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {tag} did not finish within the time limit")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "short"), default="full",
                    help="short runs the warm-up size (smoke test)")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "sprinkled_nls" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'sprinkled_nls'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.pop("SPRINKLED_NLS_THREADS", None)
    env.pop("PYTHONPATH", None)
    OUT.mkdir(exist_ok=True)

    runs = []
    if not args.trace:
        runs += [_worker(args, f"setup{i}", 0.0, deadline, env)
                 for i in range(SETUP_SAMPLES - 1)]
    main_run = _worker(args, "loop", args.seconds, deadline, env)
    runs.append(main_run)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    if len({r["reference_digest"] for r in runs}) != 1:
        problems.append("warm-up payloads differ between processes")
        failed += 1

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} size {args.size}")
    print("env " + json.dumps(main_run["env"], sort_keys=True))
    for name in main_run["absent"]:
        print(f"layer absent: {name}")
    for p in problems:
        print(f"FAILED {p}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        layers = main_run["layers"]
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
        for name, value in metrics.items():
            print(f"{name:45s} {value:.6g} {units[name]}")
        wall = layers["trace.wall_s"]
        attributed = sum(layers[f"{layer}_s"] for layer in LAYERS)
        record_total = layers["solver.record_s"] * layers["solver.records"]
        print(f"traced wall {wall:.6g} s = layer self times {attributed:.6g} s"
              f" + unattributed {layers['trace.unattributed_s']:.6g} s")
        print(f"shares of traced wall: stepping (solver.evolve self) "
              f"{layers['solver.evolve_s'] / wall:.3f}, per-record diagnostics "
              f"{record_total / wall:.3f}")
    else:
        walls, walls_ref = main_run["walls"], main_run["walls_ref"]
        probes = main_run["probes"]
        setups = [r["setup_s"] for r in runs]
        print(f"wall_ref_s  median {statistics.median(walls_ref):.6g} s  "
              f"{_quartiles(walls_ref)}")
        print(f"wall_s      median {statistics.median(walls):.6g} s  "
              f"{_quartiles(walls)}")
        print(f"probe slice median {statistics.median(probes):.6g} s  "
              f"{_quartiles(probes)} (reference {PROBE_REF_S:g} s)")
        print(f"setup_s     median {statistics.median(setups):.6g} s  "
              f"{_quartiles(setups)}")
        print(f"peak_rss_mb {main_run['peak_rss_mb']:.6g} MiB")
        print(f"energy_drift_rel {main_run['energy_drift_rel']:.6g}")
        metrics = {"wall_ref_s": statistics.median(walls_ref),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": main_run["peak_rss_mb"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
