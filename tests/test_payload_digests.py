"""Golden SHA-1 digests of every payload file of five short CLI runs.

The payloads are the hashed outputs a manifest lists; this pins their bytes
across code changes, so a change that moves any number a run writes fails
here.  The digests also depend on numpy's FFT, BLAS and float formatting,
so the failure names numpy's version: a toolchain change can then be told
apart from a code change.
"""
import hashlib
import platform

import numpy as np
import pytest

from sprinkled_nls.cli import main

# argv, {payload file: SHA-1}; each run exits 0
RUNS = {
    "sample": (["sample"], {
        "atoms.csv": "891c79d977d430a234c4669bffc7828b76662cb9",
        "atoms.json": "f36d148614f86613abbc9f938be7aa6c74fcae11",
        "profile.csv": "348c046a7c9ba84f759e818c047f298c91e3f805"}),
    "solve": (["solve", "--override", "t_final=0.05"], {
        "diagnostics.csv": "8840c0a496dc9b7fcb5c82d5aee240c385dd429e"}),
    "study-stability": (["study", "--override", "study=stability",
                         "--override", "t_final=0.25"], {
        "study_stability.csv": "4b0ffd784b990b3a7020d0de319312f04e69dffc",
        "study_stability.json": "7bf494324d75e281c7d3b7616a52a03f7afb68a6"}),
    "study-moments": (["study", "--override", "study=moments",
                       "--override", "n_samples=1000"], {
        "study_moments.csv": "05701904ee2ff74b6db06fa09a24fc2f24a687e1",
        "study_moments.json": "a73ff8c6bf2c2857f514058552799c8706182edf"}),
    # the default ladder (1, 0.5, 0.25, 0.125) fails its flags at this short
    # t_final and exits 5, so the run takes a finer one that passes
    "study-eps": (["study", "--override", "study=eps",
                   "--override", "eps_ladder=0.4,0.2,0.1",
                   "--override", "t_final=0.05"], {
        "study_eps_convergence.csv": "392cfd28606a9801ff5481fad0e04180107aae93",
        "study_eps_convergence.json":
            "dfbab57b3af54669fd7ffcff44c19f873dac779a"}),
}


@pytest.mark.parametrize("name", RUNS)
def test_payload_bytes_are_pinned(tmp_path, name):
    argv, want = RUNS[name]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha1(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir()) if p.name != "manifest.json"}
    assert got == want, (
        f"{name} payload digests moved, under numpy {np.__version__} on "
        f"{platform.machine()} (pinned under numpy 2.4.6 on x86_64); if only "
        "the toolchain changed, re-pin them, otherwise the code moved a "
        "payload")
