"""Span tracer for the traced benchmark run.

The tracer wraps library functions where their callers look them up: a
function is replaced by a timing wrapper on the attribute of the module that
calls it (``solver.mass`` wraps ``diagnostics.mass`` as the solver sees it).
Nothing inside the program changes, and the wrapped call returns the very
object the original returned, so payloads are byte-identical with and without
tracing. A target that no longer exists is reported as absent.

Spans ``[layer, start, end, parent]`` stay in memory and are written once, at
the end of a run. ``numpy.fft.fft``/``ifft`` calls are counted, not spanned,
and are attributed to the innermost open span. Spans nest on one stack, so
traced workloads must run single-threaded (``SPRINKLED_NLS_THREADS`` unset).
"""
from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

PACKAGE = "sprinkled_nls"
ROOT = "bench.call"

# layer -> the (module, attribute) pairs through which callers reach it
LAYERS: dict[str, list[tuple[str, str]]] = {
    "cli": [("cli", "main")],
    "studies": [("studies", "stability_study"), ("studies", "moment_study")],
    "mollify.truncated_potential": [("solver", "truncated_potential")],
    "solver.evolve": [("solver", "evolve")],
    "diagnostics.mass": [("solver", "mass")],
    "diagnostics.energy": [("solver", "energy")],
    "field.sobolev_norm": [("solver", "sobolev_norm"),
                           ("studies", "sobolev_norm")],
    "field.sup_norm": [("solver", "sup_norm")],
    "measure.weighted_l2_norm": [("solver", "weighted_l2_norm"),
                                 ("studies", "weighted_l2_norm")],
    "diagnostics.quartic_measure_integral": [
        ("solver", "quartic_measure_integral")],
    "field.evaluate_at": [("diagnostics", "evaluate_at")],
    "measure.weight_profile": [("solver", "weight_profile"),
                               ("studies", "weight_profile"),
                               ("measure", "weight_profile")],
    "point_process.sample_poisson": [("studies", "sample_poisson")],
    "cli.save_trajectory_csv": [("cli", "save_trajectory_csv")],
    "cli.write_manifest": [("cli", "_write_manifest")],
}
# per-record diagnostics: their spans directly under solver.evolve make up
# solver.record_s
DIAGNOSTICS = ("diagnostics.mass", "diagnostics.energy", "field.sobolev_norm",
               "field.sup_norm", "measure.weighted_l2_norm",
               "diagnostics.quartic_measure_integral")
IO = ("cli.save_trajectory_csv", "cli.write_manifest")
FFT_TARGETS = ("fft", "ifft")


class Tracer:
    """Installs wrappers, records spans and counts, and summarises them."""

    def __init__(self):
        self.layers = [ROOT, *LAYERS]
        self._index = {name: i for i, name in enumerate(self.layers)}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.errors = [0] * len(self.layers)
        self.fft_by_layer = [0] * len(self.layers)
        self.fft_calls = 0
        self.fft_points = 0
        self.steps = 0
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---

    def _open(self, layer: int) -> int:
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, layer_name: str, fn):
        layer = self._index[layer_name]
        counts_steps = layer_name == "solver.evolve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self._close(idx)
            if counts_steps:
                self.steps += result.params.n_steps
            return result
        return wrapper

    def _wrap_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.fft_calls += 1
            self.fft_points += np.size(a)
            if self._stack:
                self.fft_by_layer[self.spans[self._stack[-1]][0]] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    def call(self, fn, *args, **kwargs):
        """Run one workload call under a root span."""
        idx = self._open(0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # --- installation ---

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target that exists; remember the ones that do not."""
        self.absent = []
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                where = f"{PACKAGE}.{module_name}.{attr}"
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                except ImportError:
                    self.absent.append(f"{layer} ({where})")
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.absent.append(f"{layer} ({where})")
                    continue
                self._patch(module, attr, self._wrap(layer, fn))
        for attr in FFT_TARGETS:
            self._patch(np.fft, attr, self._wrap_fft(getattr(np.fft, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results ---

    def summary(self) -> dict[str, float]:
        """Per-call means over all root spans; self times add up to the wall.

        A span's self time is its duration minus its children's durations.
        The root span's self time is the unattributed remainder.
        """
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        n_layers = len(self.layers)
        self_s, calls = [0.0] * n_layers, [0] * n_layers
        evolve = self._index["solver.evolve"]
        mass = self._index["diagnostics.mass"]
        diag = {self._index[name] for name in DIAGNOSTICS}
        record_s, records = 0.0, 0
        for i, (layer, start, end, parent) in enumerate(self.spans):
            self_s[layer] += end - start - child[i]
            calls[layer] += 1
            if parent >= 0 and self.spans[parent][0] == evolve and layer in diag:
                record_s += end - start
                records += layer == mass
        roots = max(calls[0], 1)
        wall = sum(end - start for layer, start, end, _ in self.spans
                   if layer == 0)
        out: dict[str, float] = {}
        for name in LAYERS:
            i = self._index[name]
            out[f"{name}_s"] = self_s[i] / roots
            out[f"{name}.calls"] = calls[i] / roots
            out[f"{name}.errors"] = self.errors[i]
        steps = self.steps
        out.update({
            "solver.steps": steps / roots,
            "solver.step_s": self_s[evolve] / steps if steps else 0.0,
            "solver.records": records / roots,
            "solver.record_s": record_s / records if records else 0.0,
            "solver.fft_calls_per_step":
                self.fft_by_layer[evolve] / steps if steps else 0.0,
            "fft.calls": self.fft_calls / roots,
            "fft.points": self.fft_points / roots,
            "cli.io_s": sum(self_s[self._index[n]] for n in IO) / roots,
            "share.stepping": self_s[evolve] / wall if wall else 0.0,
            "share.diagnostics": record_s / wall if wall else 0.0,
            "trace.calls": calls[0],
            "trace.wall_s": wall / roots,
            "trace.unattributed_s": self_s[0] / roots,
            "trace.spans": len(self.spans) / roots,
            "trace.targets_absent": len(self.absent),
        })
        return out

    def write(self, path) -> None:
        """Write every span once; parents are indices into the span list."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layers, "absent": self.absent,
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")
