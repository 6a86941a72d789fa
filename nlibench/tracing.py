"""Traced in-process replay of a workload: per-layer metrics.

The replay walks the same steps as the workload's CLI sequence
(simulate, simulate --vacuum, retrieve) through the public API, plus
the linear-only and extrema retrievals.  While a `Tracer` is active
it wraps the entry point of each layer, in every `nlispec` module
that binds it, so a span is recorded around every call into a layer,
including calls one layer makes into another (`build_gas` into
`lineshape` and `kk`).  Nothing inside the package is edited.

A span is (id, parent id, name, start, end).  Spans stay in memory and
are written out with the run's report.  A span's self time is its
duration minus the time its child spans cover; the root span's self
time is the replay's time outside every layer.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from nlispec import config, interferometer, kk, lineshape, mapio, retrieval
from nlispec.mapio import IntensityMap

import workloads

KK_SWEEP_POINTS = (1648, 8001, 20001)

# (span name, module, function): the layer entry points that are wrapped
LAYER_ENTRY_POINTS = (
    ("config.load", config, "load_run_config"),
    ("config.geometry", config, "build_geometry"),
    ("gas.build", config, "build_gas"),
    ("lineshape.load_lines", lineshape, "load_line_csv"),
    ("lineshape.absorption", lineshape, "absorption_coefficient"),
    ("kk.index", kk, "index_change_from_absorption"),
    ("interferometer.simulate", interferometer, "simulate_map"),
    ("mapio.save", mapio, "save_map"),
    ("mapio.load", mapio, "load_map"),
    ("retrieval.retrieve", retrieval, "retrieve"),
    ("retrieval.result_io", retrieval, "save_result_csv"),
    ("retrieval.result_io", retrieval, "load_result_csv"),
)
MODULES = ("config", "gas", "lineshape", "kk", "interferometer", "mapio",
           "retrieval")


def _retrieve_span_name(kwargs) -> str:
    if kwargs.get("engine", "model") == "extrema":
        return "retrieval.extrema"
    return "retrieval.model" if kwargs.get("polish", True) else \
        "retrieval.linear"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = math.nan
    failed: bool = False
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans around layer calls while used as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), self._stack[-1] if self._stack else None,
                  name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(_retrieve_span_name(kwargs)
                           if name == "retrieval.retrieve" else name) as sp:
                out = fn(*args, **kwargs)
                if name == "lineshape.load_lines":
                    sp.attrs["lines"] = len(out)
            return out
        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "nlispec" or key.startswith("nlispec.")]
        for name, module, attr in LAYER_ENTRY_POINTS:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        return False


# ------------------------------------------------------------ replay

def replay(inputs: workloads.Inputs, workdir: str, rep: int) -> dict:
    """One in-process pass over the workload; returns counts and paths."""
    cfg_path = inputs.config_path
    sample_path = os.path.join(workdir, f"replay_sample{inputs.map_suffix}")
    ref_path = os.path.join(workdir, f"replay_reference{inputs.map_suffix}")
    result_path = os.path.join(workdir, "replay_result.csv")

    # nlispec simulate CONFIG
    cfg = config.load_run_config(cfg_path)
    geom = config.build_geometry(cfg)
    axes = config.build_axes(cfg)
    gas = config.build_gas(cfg)
    sample = interferometer.simulate_map(geom, gas, axes)
    # nlispec simulate CONFIG --vacuum
    cfg = config.load_run_config(cfg_path)
    geom = config.build_geometry(cfg)
    axes = config.build_axes(cfg)
    reference = interferometer.simulate_map(
        geom, config.build_vacuum(cfg), axes)
    if inputs.shot_counts is not None:
        sample, reference = workloads.shot_noise(
            sample, reference, inputs.shot_counts,
            np.random.default_rng([inputs.seed, rep]))
    mapio.save_map(sample_path, IntensityMap(axes, sample))
    mapio.save_map(ref_path, IntensityMap(axes, reference))
    # nlispec retrieve SAMPLE REFERENCE CONFIG
    cfg = config.load_run_config(cfg_path)
    geom = config.build_geometry(cfg)
    s_map = mapio.load_map(sample_path)
    r_map = mapio.load_map(ref_path)
    kwargs = dict(rows=inputs.rows, sample_visible_index=inputs.visible_index)
    res = retrieval.retrieve(s_map, r_map, geom, **kwargs)
    retrieval.save_result_csv(result_path, res)
    retrieval.load_result_csv(result_path)
    # the other two retrieval routes, on the same maps
    retrieval.retrieve(s_map, r_map, geom, polish=False, **kwargs)
    try:
        ext = retrieval.retrieve(s_map, r_map, geom, engine="extrema",
                                 **kwargs)
        extrema_failed = int(np.count_nonzero(~np.isfinite(ext.alpha_cm)))
    except ValueError:
        extrema_failed = int(inputs.rows.size)

    counts = {
        "mapio.bytes": (os.path.getsize(sample_path)
                        + os.path.getsize(ref_path)),
        "lineshape.grid_points": int(gas.idler_nu_cm.size),
        "retrieval.rows": int(res.rows.size),
        "retrieval.rows_failed": int(
            np.count_nonzero(~np.isfinite(res.alpha_cm))),
        "retrieval.extrema.rows_failed": extrema_failed,
    }
    return {"counts": counts, "result": result_path, "gas": gas}


def span_metrics(spans: list[Span]) -> dict:
    """Per-layer figures of one traced replay."""
    covered = {sp.id: 0.0 for sp in spans}
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.end - sp.start
    calls: dict[str, list[float]] = {}
    self_by_module = {m: 0.0 for m in MODULES}
    out = {}
    for sp in spans:
        dur = sp.end - sp.start
        self_time = dur - covered[sp.id]
        module = sp.name.split(".")[0]
        if sp.name == "replay":
            out["trace.replay_s"] = dur
            out["trace.unattributed_s"] = self_time
            continue
        if module in self_by_module:
            self_by_module[module] += self_time
        if not sp.failed:  # a call that raised reports no time
            calls.setdefault(sp.name, []).append(dur)
        if "lines" in sp.attrs:
            out["lineshape.lines"] = sp.attrs["lines"]
    for name, durations in calls.items():
        out[f"{name}_s"] = sum(durations) / len(durations)
    for module, total in self_by_module.items():
        out[f"{module}.self_s"] = total
    return out


def kk_sweep() -> dict:
    """KK transform time of a synthetic band at the roadmap's grid sizes."""
    out = {}
    for n in KK_SWEEP_POINTS:
        nu = np.linspace(2142.0, 2554.0, n)
        alpha = 0.45 / (1.0 + ((nu - 2349.0) / 0.5) ** 2)
        t0 = time.perf_counter()
        kk.index_change_from_absorption(alpha, nu)
        out[f"kk.index_s.n{n}"] = time.perf_counter() - t0
    return out


def kk_alloc_peak_mb(gas) -> float:
    """tracemalloc peak of one KK transform on the workload's own grid."""
    tracemalloc.start()
    try:
        kk.index_change_from_absorption(gas.idler_alpha_cm, gas.idler_nu_cm)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def measure(inputs: workloads.Inputs, seconds: float, workdir: str,
            import_times) -> dict:
    """Run untraced and traced replays for `seconds`; median each figure."""
    samples: dict[str, list[float]] = {}
    untraced, traced, all_spans = [], [], []
    attempted = failed = 0
    log = []
    gas = None
    start = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - start < seconds:
        for tracer in (None, Tracer()):
            attempted += 2  # the replay and its accuracy gate
            # fresh paths each pass, for the reason given in run.cli_rep
            repdir = os.path.join(workdir, f"rep{rep}-{tracer is not None}")
            os.makedirs(repdir)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = replay(inputs, repdir, rep)
                else:
                    with tracer, tracer.span("replay"):
                        out = replay(inputs, repdir, rep)
                wall = time.perf_counter() - t0
                gate = workloads.check_result(out["result"], inputs)
            except Exception as exc:  # a failed replay is a failed operation
                failed += 2
                log.append(f"replay raised {type(exc).__name__}: {exc}")
                continue
            finally:
                shutil.rmtree(repdir, ignore_errors=True)
            log.append(gate.detail)
            if not gate.ok:
                failed += 1
            gas = out["gas"]
            if tracer is not None:
                traced.append(wall)
                figures = dict(span_metrics(tracer.spans), **out["counts"])
                all_spans.append([vars(sp) for sp in tracer.spans])
            else:
                untraced.append(wall)
                figures = {}
            for key, value in figures.items():
                samples.setdefault(key, []).append(value)
        for key, value in kk_sweep().items():
            samples.setdefault(key, []).append(value)
        rep += 1

    metrics = {key: statistics.median(vals) for key, vals in samples.items()}
    if untraced and traced:
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(untraced))
    if gas is not None:
        metrics["kk.alloc_peak_mb"] = kk_alloc_peak_mb(gas)
    metrics["cli.import_s"] = statistics.median(import_times)
    return {"metrics": metrics, "samples": samples, "attempted": attempted,
            "failed": failed, "log": log, "spans": all_spans,
            "replay_untraced_s": untraced, "replay_traced_s": traced}
