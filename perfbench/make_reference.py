"""Regenerate ``reference.json`` from the program in this checkout.

    python3 perfbench/make_reference.py

Runs every workload's short size on ``REFERENCE_SEED`` and stores the
checked columns. Regenerate only when a change alters the numerics on
purpose, and say why in the change that does it.
"""
import json
import tempfile
from pathlib import Path

from worker import load_library, run_once
from workloads import REFERENCE_FILE, REFERENCE_SEED, WORKLOADS


def main() -> None:
    lib = load_library()
    doc = {}
    out = Path(__file__).resolve().parent.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for name, workload in WORKLOADS.items():
            inputs = workload.inputs(lib, REFERENCE_SEED, Path(tmp) / name,
                                     "short")
            _, outcome = run_once(workload, lib, inputs)
            if outcome.problems:
                raise SystemExit(f"{name}: {outcome.problems}")
            doc[name] = outcome.values["columns"]
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True,
                                         allow_nan=False) + "\n")


if __name__ == "__main__":
    main()
