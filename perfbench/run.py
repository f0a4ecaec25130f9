"""Benchmark of the emlang study, run from the root of a source checkout.

    python3 perfbench/run.py --workload study --seed 0 --seconds 32 --trace 0

Every timed operation is one `emlang.cli.main` call, made in this process
on the package under ./src. A run repeats the workload's set-up and its
timed pass, the passes for `--seconds` in all, checks what every call
wrote, and prints two JSON lines: the environment and per-stage detail, then
the result with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics. `--trace 1` spends half the time
on untraced passes and half on traced repetitions of set-up plus pass, and
reports the per-layer metrics; its spans go to .perfbench_out/.

BLAS runs at the program's default threading; the effective thread count is
part of the environment record.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer  # siblings, found through this script's directory
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 7  # set-ups per untraced run; setup_s is their median
MIN_PASSES = 3  # timed passes per untraced run, whatever --seconds says
MIN_TRACED = 2  # passes in each half of a traced run


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "seed": seed,
    }


def import_seconds():
    """Wall time for a fresh interpreter to import the CLI, as a user pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import emlang.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


class Bench:
    """Runs one workload at one seed and keeps what every call did."""

    def __init__(self, workload, seed, work, cli_main):
        self.w = workload
        self.seed = seed
        self.work = work
        self.cli_main = cli_main
        self.tracer = None
        self.ops = []  # (stage, seconds, problems) per CLI call
        self.first_digest = {}
        self.mismatched = set()
        self._dirs = 0

    def _new_dir(self, kind):
        self._dirs += 1
        path = self.work / f"{kind}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def _call(self, stage, paths):
        argv = workloads.argv(self.w, stage, self.seed, paths)
        start = time.perf_counter()
        try:
            if self.tracer is None:
                code = self.cli_main(argv)
            else:
                self.tracer.op += 1
                code = self.tracer.call(f"cli.{stage}", self.cli_main, (argv,))
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code = repr(exc)
        return code, time.perf_counter() - start

    def _stages(self, stages, paths):
        times, codes = {}, {}
        start = time.perf_counter()
        for stage in stages:
            codes[stage], times[stage] = self._call(stage, paths)
        wall = time.perf_counter() - start
        for stage in stages:
            problems = [] if codes[stage] == 0 else [f"{stage}: exit {codes[stage]}"]
            problems += workloads.check(stage, paths)
            for p in problems:
                print(f"perfbench: {p}", file=sys.stderr)
            self.ops.append((stage, times[stage], problems))
        return wall, times

    def _compare(self, kind, paths, stages):
        digest = workloads.digest(paths, [workloads.OUTPUT[s] for s in stages])
        if self.first_digest.setdefault(kind, digest) != digest:
            self.mismatched.add(kind)

    def setup(self, timed_import=True):
        stages = workloads.STAGES[: self.w.setup_stages]
        paths = workloads.layout(self._new_dir("setup"))
        seconds = import_seconds() if timed_import else 0.0
        wall, times = self._stages(stages, paths)
        self._compare("setup", paths, stages)
        return paths, seconds + wall, times

    def one_pass(self, setup_paths):
        root = self._new_dir("pass")
        paths = workloads.pass_layout(self.w, setup_paths, root)
        wall, times = self._stages(self.w.pass_stages, paths)
        try:
            facts = workloads.facts(paths)
        except (OSError, ValueError, KeyError) as exc:
            print(f"perfbench: pass outputs unreadable: {exc!r}", file=sys.stderr)
            facts = None
        self._compare("pass", paths, self.w.pass_stages)
        shutil.rmtree(root)
        return wall, times, facts

    def passes(self, setup_paths, seconds, minimum):
        out = []
        start = time.perf_counter()
        while len(out) < minimum or time.perf_counter() - start < seconds:
            out.append(self.one_pass(setup_paths))
        return out


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(setups, passes):
    facts = passes[-1][2] or {}
    train = [t for _, _, t in setups] + [t for _, t, _ in passes]
    train_rates = [
        facts["train_sample_epochs"] / (t["train_baseline"] + t["train_el"])
        for t in train
        if "train_el" in t and facts
    ]
    attribute_rates = [
        facts["attributed"] / t["attribute"] for _, t, _ in passes if facts
    ]
    return {
        "setup_s": _median(s for _, s, _ in setups),
        "wall_s": _median(w for w, _, _ in passes),
        "train_samples_per_s": _median(train_rates),
        "attribute_samples_per_s": _median(attribute_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "el_accuracy": facts.get("el_accuracy"),
        "baseline_accuracy": facts.get("baseline_accuracy"),
        "dominant_share_min": facts.get("dominant_share_min"),
    }


def stage_seconds(bench):
    return {
        f"cli.{stage}_s": _median(s for st, s, _ in bench.ops if st == stage)
        for stage in workloads.STAGES
    }


def run_untraced(bench, seconds):
    """Set-ups alternate with timed passes, so that both, and the metrics
    taken from each, sample the whole run."""
    setups, passes = [bench.setup()], []
    while (
        len(setups) < SETUP_REPS
        or len(passes) < MIN_PASSES
        or sum(w for w, _, _ in passes) < seconds
    ):
        passes.append(bench.one_pass(setups[-1][0]))
        if len(setups) < SETUP_REPS:
            setups.append(bench.setup())
    detail = {
        "stage_s": stage_seconds(bench),
        "setup_s": [s for _, s, _ in setups],
        "pass_s": [w for w, _, _ in passes],
    }
    return end_to_end(setups, passes), detail, []


def run_traced(bench, seconds):
    """Untraced passes for half the time, then traced set-up plus pass."""
    setup_paths, _, _ = bench.setup()
    untraced = bench.passes(setup_paths, seconds / 2, MIN_TRACED)
    values = stage_seconds(bench)  # before tracing inflates the calls
    detail = {"stage_s": dict(values), "pass_s": [w for w, _, _ in untraced]}
    bench.tracer = tracer.Tracer()
    reps, walls = [], []
    start = time.perf_counter()
    with tracer.installed(bench.tracer):
        while len(reps) < MIN_TRACED or time.perf_counter() - start < seconds / 2:
            paths, _, _ = bench.setup(timed_import=False)
            wall, _, _ = bench.one_pass(paths)
            walls.append(wall)
            reps.append(bench.tracer.spans)
            bench.tracer.spans = []
    detail["traced_pass_s"] = walls
    layers, unsteady = tracer.layer_metrics(reps)
    values.update(layers)
    values["trace.overhead_s"] = statistics.median(walls) - statistics.median(
        detail["pass_s"]
    )
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{bench.w.name}-seed{bench.seed}.jsonl.gz", reps)
    return values, detail, unsteady


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "emlang" / "cli.py").is_file():
        print(f"perfbench: no emlang sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        reported = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    from emlang import cli

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(workloads.WORKLOADS[args.workload], args.seed, work, cli.main)
    try:
        run = run_traced if args.trace else run_untraced
        values, detail, unsteady = run(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for _, _, problems in bench.ops if problems)
    mismatched = sorted(bench.mismatched)
    for kind in mismatched:
        print(f"perfbench: {kind} outputs differ between repetitions", file=sys.stderr)
    for name in unsteady:
        print(f"perfbench: count {name} differs between repetitions", file=sys.stderr)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "operations": len(bench.ops),
        **detail,
        "outputs_differ": mismatched,
        "counts_differ": unsteady,
    }
    print(json.dumps(record))
    result = {
        "correct": failed == 0 and not mismatched and not unsteady,
        "attempted": len(bench.ops),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
