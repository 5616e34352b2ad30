"""Benchmark of comblab experiment throughput.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see ``workloads.py`` and the README) in this process,
repeating whole cycles of ``run_experiment`` calls for ``--seconds``
seconds, and checks every output against computations made apart from the
program.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: set-up
time (median of fresh interpreters), learner-rounds per second (over all
cycles but the first, a warm-up) and peak resident memory.
``--trace 1`` runs every operation twice, untraced and then traced, and
reports the per-layer metrics; the spans of the first traced cycle go to
``perfbench/out/<workload>.spans.jsonl``.  Each run also writes a record
with its environment to ``perfbench/out/<workload>.trace<0|1>.json``.

Exits 2 without a result when the checkout holds no ``src/comblab``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import srcpath
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BENCHMARK_JSON = srcpath.ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3          # fresh interpreters timed per run
SETUP_TIMEOUT_S = 120
MIN_CYCLES = 3             # untraced: the warm-up cycle plus two measured


class CpuRotation:
    """Pins the process to the usable CPUs in turn, one cycle on each.

    Each CPU of a shared virtual machine runs at its own, wandering speed
    (two probes pinned to the two CPUs of the reference machine, sampled
    every 0.5 s for a minute, varied by 10-13% each with a correlation of
    0.06), and the scheduler keeps a busy process on one CPU for the whole
    run.  Visiting every CPU makes a run report the machine's speed rather
    than one CPU's speed at that moment.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin(self, cycle):
        cpu = self.cpus[cycle % len(self.cpus)]
        os.sched_setaffinity(0, {cpu})
        return cpu

    def release(self):
        os.sched_setaffinity(0, self.cpus)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name, seed):
    """Seconds from spawning a fresh interpreter to its ``ready`` line, for
    each of :data:`SETUP_REPEATS` probes.  The run's own import of comblab
    has already written the bytecode caches, as any earlier use would."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=srcpath.ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err}")
        times.append(elapsed)
    return times


def run_untraced(comblab, workload, seconds):
    setup_times = measure_setup(workload.name, workload.seed)
    refs = workload.reference()
    tally = Tally()
    cycles = []
    first_csv = {}
    rotation = CpuRotation()
    start = time.perf_counter()
    cycle = 0
    while cycle < MIN_CYCLES or time.perf_counter() - start < seconds:
        cpu = rotation.pin(cycle)
        rounds, busy = 0, 0.0
        for i, cfg in enumerate(workload.configs):
            result, elapsed = tally.run(comblab, cfg)
            if result is None:
                continue
            rounds += workloads.learner_rounds(cfg)
            busy += elapsed
            tally.failures += workload.check_result(i, result, refs[i])
            if cfg.out:
                data = Path(cfg.out).read_bytes()
                if data != first_csv.setdefault(i, data):
                    tally.failures.append(f"{workload.name}[{i}]: CSV of cycle "
                                          f"{cycle} differs from cycle 0's")
        cycles.append({"cpu": cpu, "learner_rounds": rounds, "busy_s": busy})
        cycle += 1
    rotation.release()
    measured = cycles[1:]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "rounds_per_s": (sum(c["learner_rounds"] for c in measured)
                         / sum(c["busy_s"] for c in measured)),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"setup_s_samples": setup_times, "cycles": cycles}
    return tally, metrics, detail


def run_traced(comblab, workload, seconds):
    import tracer as tracing

    refs = workload.reference()
    tally = Tally()
    figures = tracing.LayerFigures()
    kept_spans = []
    rotation = CpuRotation()
    start = time.perf_counter()
    cycle = 0
    while cycle < 1 or time.perf_counter() - start < seconds:
        rotation.pin(cycle)
        for i, cfg in enumerate(workload.configs):
            plain, plain_s = tally.run(comblab, cfg)
            traced_cfg = cfg
            if cfg.out:
                traced_cfg = _replace_out(cfg, ".traced")
            tracer = tracing.Tracer()
            root = tracer.wrap(tracing.ROOT_SPAN, comblab.run_experiment)
            with tracing.installed(tracer, comblab):
                traced, traced_s = tally.run(comblab, traced_cfg, root)
            if plain is None or traced is None:
                continue
            figures.add(tracer, cfg, round(traced_s * 1e9), round(plain_s * 1e9),
                        workloads.learner_rounds(cfg) if cfg.out else 0)
            if cycle == 0:
                kept_spans.append((i, tracer.spans))
            tally.failures += workload.check_result(i, plain, refs[i])
            tally.failures += workload.check_result(i, traced, refs[i])
            tally.failures += workload.check_trace(i, traced, refs[i], tracer)
            tally.failures += same_csv(comblab, workload, i, cfg, traced_cfg,
                                       plain, traced)
        figures.end_cycle()
        cycle += 1
    rotation.release()
    tracing.write_jsonl(OUT / f"{workload.name}.spans.jsonl", kept_spans)
    detail = {"tails_us": figures.tails(), "calls": figures.call_counts(),
              "traced_cycles": cycle}
    return tally, figures.metrics(), detail


def same_csv(comblab, workload, index, cfg, traced_cfg, plain, traced):
    """The traced operation's CSV is byte-identical to the untraced one's."""
    if cfg.out:
        same = Path(cfg.out).read_bytes() == Path(traced_cfg.out).read_bytes()
    else:
        same = comblab.csv_text(plain) == comblab.csv_text(traced)
    return [] if same else [f"{workload.name}[{index}]: traced CSV differs "
                            f"from the untraced one"]


def _replace_out(cfg, suffix):
    path = Path(cfg.out)
    return replace(cfg, out=str(path.with_name(path.stem + suffix + path.suffix)))


class Tally:
    """Operations attempted and failed, and the failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.failures = []

    def run(self, comblab, cfg, runner=None):
        """One operation: ``(result, seconds)``, or ``(None, seconds)`` if the
        program raised one of its own errors."""
        runner = runner or comblab.run_experiment
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = runner(cfg)
        except comblab.ComblabError as err:
            self.failed += 1
            self.errors.append(f"{cfg.set_spec} {cfg.learner_specs}: "
                               f"{type(err).__name__}: {err}")
            result = None
        return result, time.perf_counter() - start


def environment(comblab):
    import numpy
    import scipy

    sha = None
    if (srcpath.ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=srcpath.ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    try:
        numba = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba = None
    compiled = comblab.proximal._mset_prox_compiled is not None
    return {"git_sha": sha, "backend": "numba" if compiled else "numpy",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numba": numba,
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0))}


def main(argv=None):
    args = parse_args(argv)
    try:
        comblab = srcpath.load_comblab()
    except srcpath.MissingSource as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workload = workloads.make(comblab, args.workload, args.seed, OUT)
    run = run_traced if args.trace else run_untraced
    tally, values, detail = run(comblab, workload, args.seconds)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, but BENCHMARK.json "
                           f"declares {sorted(units)}")

    summary = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(comblab), **summary,
              "check_failures": tally.failures, "errors": tally.errors,
              "configs": [vars(cfg) for cfg in workload.configs], **detail}
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")
    for line in tally.failures + tally.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
