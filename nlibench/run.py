"""nlispec benchmark: CLI time-to-spectrum per workload, per-layer traces.

    python3 nlibench/run.py --workload demo --seed 1 --seconds 30 --trace 0

With `--trace 0` every timed operation is a real CLI call, run as
`python -m nlispec.cli` in a child process with `PYTHONPATH` pointing
at this checkout's `src`, one child at a time.  With `--trace 1` the
workload is replayed in-process through the public API with a span
around every call into a layer (see tracing.py).  Either way each
result table must pass its accuracy gate.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0
only when every operation succeeded and every gate passed.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# numpy and nlispec are imported only once the child launcher runs, so
# that the launcher's own peak RSS stays small (see LAUNCHER).

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "nlibench", ".work")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60.0

# A fresh interpreter doing what every CLI call does before its command.
# It prints its own import time, the `cli.import_s` layer figure.
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import nlispec.cli\n"
    "t1 = time.perf_counter()\n"
    "from nlispec.config import load_run_config\n"
    "load_run_config(sys.argv[1])\n"
    "print(t1 - t0)\n"
)


class SetupError(RuntimeError):
    """The workload cannot be measured at all."""


# Runs each child for the benchmark and reports its wall time and peak
# RSS.  On Linux a child's ru_maxrss starts from the high-water mark of
# the process that forked it, so children are started from this small,
# stdlib-only process rather than from the benchmark, whose own peak
# (numpy, the truth gas build) would otherwise be reported.
LAUNCHER = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    req = json.loads(line)
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=out, stderr=err)
        watchdog = threading.Timer(req["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "returncode": proc.returncode,
                      "maxrss_kib": usage.ru_maxrss}), flush=True)
"""


class Launcher:
    """Owns the launcher process; closing it waits for it to exit."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.children = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def run(self, argv, cwd) -> "Child":
        self.children += 1  # fresh output files, see cli_rep
        out_path = os.path.join(cwd, f"child{self.children}.out")
        err_path = os.path.join(cwd, f"child{self.children}.err")
        self.proc.stdin.write(json.dumps({
            "argv": [sys.executable, *argv], "cwd": cwd, "env": self.env,
            "stdout": out_path, "stderr": err_path,
            "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SetupError("child launcher exited")
        return Child(argv, json.loads(reply), out_path, err_path)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class Child:
    """Outcome of one child interpreter: wall time, peak RSS, success."""

    def __init__(self, argv, reply, out_path, err_path):
        self.argv = argv
        self.wall_s = reply["wall_s"]
        self.returncode = reply["returncode"]
        self.peak_rss_mb = reply["maxrss_kib"] / 1024.0
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            self.stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()
        self.ok = self.returncode == 0 and "Traceback" not in self.stderr

    def summary(self) -> str:
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return (f"{' '.join(self.argv[2:4])}: exit {self.returncode}, "
                f"{self.wall_s:.3f} s {tail[0]}")


def setup_probe(launcher, config_path, cwd) -> list[tuple[float, float]]:
    """(wall, import) seconds of fresh interpreters loading the config."""
    out = []
    for _ in range(SETUP_REPEATS):
        child = launcher.run(["-c", SETUP_PROBE, config_path], cwd)
        if not child.ok:
            raise SetupError(f"set-up probe failed: {child.stderr.strip()}")
        out.append((child.wall_s, float(child.stdout.strip())))
    return out


def high_percentile(values):
    """Highest whole percentile above the median with >= 10 samples beyond."""
    n = len(values)
    p = math.floor(100 * (n - 10) / n) if n else 0
    if p <= 50:
        return None
    ordered = sorted(values)
    return p, ordered[math.ceil(p / 100 * n) - 1]


def timing_summary(values) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "samples": values}
    hi = high_percentile(values)
    if hi is not None:
        out[f"p{hi[0]}"] = hi[1]
    return out


# ------------------------------------------------------------ untraced

def cli_rep(launcher, inputs, repdir, rep) -> dict:
    """One pass of the workload's CLI sequence, writing only into `repdir`.

    Every pass writes to fresh paths, as a first run does: on ext4,
    renaming a new file over an existing one forces its data to disk,
    which would time the host's disk rather than the program.
    """
    import numpy as np

    import workloads
    from nlispec.mapio import IntensityMap, load_map, save_map

    cfg = inputs.config_path
    sample = os.path.join(repdir, "sample.nlm")
    reference = os.path.join(repdir, "reference.nlm")
    maps = [sample, reference]
    if inputs.shot_counts is not None:
        maps = [os.path.join(repdir, "sample_noisy.csv"),
                os.path.join(repdir, "reference_noisy.csv")]
    result = os.path.join(repdir, "result.csv")
    out = {"simulate": [], "retrieve": None, "gate": None, "attempted": 0,
           "failed": 0, "log": [], "rss": []}

    def call(*args):
        child = launcher.run(["-m", "nlispec.cli", *args], repdir)
        out["attempted"] += 1
        out["rss"].append(child.peak_rss_mb)
        if not child.ok:
            out["failed"] += 1
            out["log"].append(f"rep {rep}: {child.summary()}")
        return child

    for args in (["simulate", cfg, "-o", sample],
                 ["simulate", cfg, "--vacuum", "-o", reference]):
        child = call(*args)
        if not child.ok:
            return out
        out["simulate"].append(child.wall_s)
    if inputs.shot_counts is not None:
        try:
            s_map, r_map = load_map(sample), load_map(reference)
        except (OSError, ValueError) as exc:  # the CLI wrote a bad map
            out["attempted"] += 1  # the retrieve that cannot run
            out["failed"] += 1
            out["log"].append(f"rep {rep}: cannot read simulated maps: {exc}")
            return out
        frames = workloads.shot_noise(
            s_map.intensity, r_map.intensity, inputs.shot_counts,
            np.random.default_rng([inputs.seed, rep]))
        for path, frame in zip(maps, frames):
            save_map(path, IntensityMap(s_map.axes, frame))
    every = ["--every", str(inputs.every)] if inputs.every > 1 else []
    child = call("retrieve", *maps, cfg, "-o", result, *every)
    if not child.ok:
        return out
    out["retrieve"] = child.wall_s
    gate = out["gate"] = workloads.check_result(result, inputs)
    out["attempted"] += 1
    out["log"].append(f"rep {rep}: gate {'pass' if gate.ok else 'FAIL'}: "
                      f"{gate.detail}")
    if not gate.ok:
        out["failed"] += 1
    return out


def measure_cli(launcher, inputs, seconds, workdir, setup) -> dict:
    """Repeat the workload's CLI sequence for `seconds`; gate every result."""
    simulate_s, retrieve_s, pipeline_s, rows_per_s, rss = [], [], [], [], []
    attempted = failed = 0
    log = []
    start = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - start < seconds:
        rep += 1
        repdir = os.path.join(workdir, f"rep{rep}")
        os.makedirs(repdir)
        try:
            r = cli_rep(launcher, inputs, repdir, rep)
        finally:
            shutil.rmtree(repdir, ignore_errors=True)
        attempted += r["attempted"]
        failed += r["failed"]
        log += r["log"]
        rss += r["rss"]
        if len(r["simulate"]) == 2:
            simulate_s.append(sum(r["simulate"]) / 2)
        if r["retrieve"] is not None:
            retrieve_s.append(r["retrieve"])
        if r["gate"] is not None and r["gate"].ok:
            pipeline_s.append(sum(r["simulate"]) + r["retrieve"])
            rows_per_s.append(r["gate"].finite_rows / r["retrieve"])

    metrics, timings = {}, {}
    named = {"setup_s": [wall for wall, _ in setup], "simulate_s": simulate_s,
             "retrieve_s": retrieve_s, "pipeline_s": pipeline_s,
             "rows_per_s": rows_per_s}
    for name, values in named.items():
        if values:
            metrics[name] = statistics.median(values)
            timings[name] = timing_summary(values)
    if rss:
        metrics["peak_rss_mb"] = max(rss)
    return {"metrics": metrics, "timings": timings, "attempted": attempted,
            "failed": failed, "log": log}


# ------------------------------------------------------------ reporting

def provenance(inputs) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "nlispec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None  # a checkout without git metadata
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": inputs.name, "seed": inputs.seed,
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "sizes": inputs.sizes}


def declared_metrics(trace: bool) -> list[dict]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run(launcher, workload, seed, seconds, trace, small=False) -> dict:
    """Prepare, measure and gate one workload; returns the result object."""
    import tracing
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    try:
        inputs = workloads.prepare(workload, seed, workdir, small=small)
        setup = setup_probe(launcher, inputs.config_path, workdir)
        if trace:
            out = tracing.measure(inputs, seconds, workdir,
                                  [imp for _, imp in setup])
        else:
            out = measure_cli(launcher, inputs, seconds, workdir, setup)
        detail = dict(out, provenance=provenance(inputs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = declared_metrics(trace)
    metrics = {s["name"]: {"value": out["metrics"][s["name"]],
                           "unit": s["unit"]}
               for s in declared if s["name"] in out["metrics"]}
    missing = [s["name"] for s in declared if s["name"] not in metrics]
    correct = out["failed"] == 0 and not missing
    report = os.path.join(WORK, f"report-{workload}-trace{int(trace)}.json")
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(dict(detail, missing_metrics=missing), fh, indent=1,
                  default=str)
    return {"correct": correct, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics,
            "missing": missing, "detail": detail, "report": report}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("demo", "dense_band", "noisy"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nlispec", "cli.py")):
        print(f"nlibench: no nlispec sources under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    # started before numpy is imported here, see LAUNCHER
    with Launcher() as launcher:
        sys.path.insert(0, SRC)
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        try:
            res = run(launcher, args.workload, args.seed, args.seconds,
                      bool(args.trace))
        except SetupError as exc:
            print(f"nlibench: {exc}", file=sys.stderr)
            return 1
    prov = res["detail"]["provenance"]
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for line in res["detail"]["log"][-6:]:
        print(line)
    timings = res["detail"].get("timings", {})
    for name, m in res["metrics"].items():
        extra = timings.get(name)
        extra = ("  " + json.dumps({k: round(v, 6) for k, v in extra.items()
                                    if k != "samples"})
                 if extra else "")
        print(f"{name:28s} {m['value']:14.6g} {m['unit']}{extra}")
    if res["missing"]:
        print("missing metrics: " + ", ".join(res["missing"]))
    print(f"report: {os.path.relpath(res['report'], ROOT)}")
    print(json.dumps({k: res[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
