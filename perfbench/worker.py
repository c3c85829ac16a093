"""One benchmark process: set up, then optionally run the timed loop.

Set-up is timed from the first line of this file: it covers importing numpy
and the package, generating the inputs from the seed, and the warm-up call,
which runs the workload's short size on the reference seed and checks it
against ``reference.json``. The loop then calls the workload back to back on
the same inputs (a closed loop with one client) until the next call would
end past ``--seconds``. With ``--trace 0`` a host-speed probe (``probe.py``)
runs before the first call and after every call, and each wall time is also
given scaled to the probe's reference speed. With ``--trace 1`` it alternates
untraced and traced calls, so the tracing overhead is measured in the same
process.

The result goes to ``--result`` as JSON; ``run.py`` aggregates it.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import probe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (REFERENCE_SEED, WORKLOADS, Outcome,  # noqa: E402
                       load_reference)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# after each untraced call, probe the host speed for this share of its wall
PROBE_SHARE = 0.1


def load_library():
    """Import the package from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import sprinkled_nls
    import sprinkled_nls.cli
    import sprinkled_nls.studies

    if SRC.resolve() not in Path(sprinkled_nls.__file__).resolve().parents:
        raise SystemExit(f"sprinkled_nls imported from {sprinkled_nls.__file__}, "
                         f"not from {SRC}")
    return sprinkled_nls


def run_once(workload, lib, inp, tracer=None):
    """One call; returns (wall seconds, Outcome). Never raises."""
    call = workload.call
    start = time.perf_counter()
    try:
        result = (tracer.call(call, lib, inp) if tracer is not None
                  else call(lib, inp))
    except Exception:  # a failed run is counted, not fatal
        wall = time.perf_counter() - start
        return wall, Outcome(b"", [traceback.format_exc(limit=4).strip()])
    wall = time.perf_counter() - start
    try:
        return wall, workload.outcome(inp, result)
    except Exception:
        return wall, Outcome(b"", ["checking the output raised: "
                                   + traceback.format_exc(limit=4).strip()])


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            fn = getattr(lib, "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "numpy.fft (pocketfft)",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "SPRINKLED_NLS_THREADS": os.environ.get("SPRINKLED_NLS_THREADS",
                                                "unset"),
        "git_commit": _git_commit(),
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="timed loop length; 0 sets up and exits")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "short"), default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    lib = load_library()
    inputs = workload.inputs(lib, args.seed, workdir / "run", args.size)
    ref_inputs = workload.inputs(lib, REFERENCE_SEED, workdir / "reference",
                                 "short")
    _, warm = run_once(workload, lib, ref_inputs)
    if not warm.problems:
        warm.problems += workload.reference_problems(
            warm, load_reference()[workload.name])
    setup_s = time.perf_counter() - T0

    problems = [f"warm-up: {p}" for p in warm.problems]
    attempted, failed = 1, int(bool(warm.problems))
    walls, traced_walls, layers = [], [], {}
    energy_drift = 0.0
    first_payload = None

    def account(outcome: Outcome, label: str) -> None:
        nonlocal attempted, failed, first_payload
        if first_payload is None:
            first_payload = outcome.payload
        elif outcome.payload != first_payload:
            outcome.problems.append("payload differs from the first call's")
        attempted += 1
        if outcome.problems:
            failed += 1
            problems.extend(f"{label}: {p}" for p in outcome.problems)

    tracer = Tracer() if args.trace else None
    bytes_written = 0
    probes = []
    start = time.perf_counter()
    if args.seconds > 0 and tracer is None:
        probe.slice_seconds()  # the first slice pays numpy's lazy set-up
        probes.append(probe.gap(0.0)[0])
    while args.seconds > 0:
        wall, outcome = run_once(workload, lib, inputs)
        walls.append(wall)
        account(outcome, f"call {len(walls)}")
        energy_drift = outcome.values.get("energy_drift_rel", 0.0)
        cycle = wall
        if tracer is not None:
            tracer.install()
            try:
                wall, outcome = run_once(workload, lib, inputs, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            account(outcome, f"traced call {len(traced_walls)}")
            if "out" in inputs:
                bytes_written = _dir_bytes(inputs["out"])
            cycle += wall
        else:
            speed, spent = probe.gap(PROBE_SHARE * wall)
            probes.append(speed)
            cycle += spent
        if time.perf_counter() - start + cycle > args.seconds:
            break

    if tracer is not None:
        layers = tracer.summary()
        layers["trace.overhead_s"] = (float(np.median(traced_walls))
                                      - float(np.median(walls)))
        layers["cli.bytes_written"] = bytes_written
        layers["solver.energy_drift_rel"] = energy_drift
        if args.spans:
            tracer.write(args.spans)

    # each call against the mean probe of the gaps before and after it
    walls_ref = [] if tracer is not None else [
        wall * probe.PROBE_REF_S / (0.5 * (probes[i] + probes[i + 1]))
        for i, wall in enumerate(walls)]

    doc = {
        "setup_s": setup_s,
        "walls": walls,
        "walls_ref": walls_ref,
        "probes": probes,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "absent": tracer.absent if tracer is not None else [],
        "reference_digest": hashlib.sha256(warm.payload).hexdigest(),
        "energy_drift_rel": energy_drift,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
        "env": environment(),
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


if __name__ == "__main__":
    main()
