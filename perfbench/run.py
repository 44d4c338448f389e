#!/usr/bin/env python3
"""Seeded benchmark for bplab. Run from the repository root:

    python3 perfbench/run.py --workload family-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own single-threaded process, so peak RSS
belongs to that workload. With --trace 0 the run repeats set-up several
times, then makes passes over the seeded inputs for --seconds seconds and
reports the end-to-end metrics named in BENCHMARK.json. With --trace 1 it
makes one untraced pass, then traced set-up-and-pass iterations for
--seconds seconds, reports the per-layer metrics and writes the spans to
perfbench/out/. Human-readable lines come first; the last line of stdout
is one JSON object. The exit code is non-zero when a correctness gate fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter, process_time

from speed import SpeedSampler
from spans import NullTracer, Recorder, Tracer, fingerprint, repeat_failures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
MIN_TRACED_ITERATIONS = 2


def load_library():
    """Import bplab from scratch, so that set-up time includes the import."""
    for name in [m for m in sys.modules if m == "bplab" or m.startswith("bplab.")]:
        del sys.modules[name]
    lib = importlib.import_module("bplab")
    importlib.import_module("bplab.fileio")
    importlib.import_module("bplab.cli")
    return lib


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of a few standard percentiles with at least ten samples beyond it."""
    xs = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(xs) * (100 - p) / 100 >= 10:
            return p, xs[math.ceil(p / 100 * len(xs)) - 1]
    return None


def describe(name: str, samples: list[float], unit: str) -> str:
    tail = tail_percentile(samples)
    text = f"  {name}: median {statistics.median(samples):.6g} {unit}, n={len(samples)}"
    if tail is None:
        return text + ", too few samples for a tail percentile"
    return text + f", p{tail[0]:g} {tail[1]:.6g} {unit}"


class Run:
    """One benchmark process: set-up, passes, gates and the result line."""

    def __init__(self, workload, seed: int, seconds: float) -> None:
        self.w, self.seed, self.seconds = workload, seed, seconds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def count(self, ops, bad) -> None:
        """Adds a pass's calls; a call fails once however many gates it fails."""
        self.attempted += len(ops)
        failed = {i for i, op in enumerate(ops) if op.error}
        failed.update(i for i, _ in bad if i is not None)
        self.failures.extend(f"{op.name} {op.key}: {op.error}" for op in ops if op.error)
        self.failures.extend(msg for _, msg in bad)
        self.failed += len(failed) + sum(i is None for i, _ in bad)

    def setup(self):
        """Set-up SETUP_REPEATS times: last inputs, wall times, and the machine speed."""
        times = []
        with SpeedSampler() as sampler:
            for _ in range(SETUP_REPEATS):
                rec = Recorder(NullTracer(), sampler.clock)
                t0 = sampler.clock()
                lib = load_library()
                inputs = self.w.make_inputs(lib, self.seed, rec)
                times.append(sampler.clock() - t0)
        self.count(rec.ops, [])
        return lib, inputs, times, sampler.speed()

    def untraced_pass(self, lib, inputs):
        """One pass: calls, result, wall, CPU, and wall at unloaded speed (seconds)."""
        with SpeedSampler() as sampler:
            rec = Recorder(NullTracer(), sampler.clock)
            c0, t0 = process_time(), sampler.clock()
            out = self.w.run_pass(lib, inputs, rec)
            wall = sampler.clock() - t0
            cpu = process_time() - c0 - sampler.seconds
        return rec.ops, out, wall, cpu, wall * sampler.speed()

    def end_to_end(self) -> dict[str, float]:
        lib, inputs, setup_times, setup_speed = self.setup()
        walls, cpus, norms, per_call = [], [], [], {}
        first = None
        deadline = perf_counter() + self.seconds
        while True:
            ops, out, wall, cpu, norm = self.untraced_pass(lib, inputs)
            walls.append(wall)
            cpus.append(cpu)
            norms.append(norm)
            for op in ops:
                per_call.setdefault(op.name, []).append(op.seconds)
            if first is None:
                first, reference = (ops, out), fingerprint(ops)
            else:
                self.count(ops, repeat_failures(ops, reference))
            if perf_counter() >= deadline:
                break
        self.count(first[0], self.w.check(lib, inputs, *first))
        print(f"{self.w.name} seed={self.seed}: {len(walls)} passes")
        print(describe("pass wall (wall_s)", walls, "s"))
        print(describe("pass cpu (cpu_s)", cpus, "s"))
        print(describe("pass at unloaded speed", norms, "s"))
        print(describe("setup wall", setup_times, "s"))
        print(f"  machine speed during set-up {setup_speed:.4g} of unloaded")
        for name, xs in sorted(per_call.items()):
            print(describe(f"call {name}", xs, "s"))
        return {
            "pass_s": statistics.median(norms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times) * setup_speed,
        }

    def per_layer(self, names: list[str]) -> dict[str, float]:
        """Per-layer times are span totals at unloaded speed, medians over iterations."""
        lib, inputs, _, _ = self.setup()
        ref_ops, ref_out, _, _, ref_pass = self.untraced_pass(lib, inputs)
        self.count(ref_ops, self.w.check(lib, inputs, ref_ops, ref_out))
        iterations, reference, first_counts = [], None, None
        deadline = perf_counter() + self.seconds
        while len(iterations) < MIN_TRACED_ITERATIONS or perf_counter() < deadline:
            with SpeedSampler() as sampler:
                tracer = Tracer(sampler.clock)
                srec, prec, xrec = (Recorder(tracer, sampler.clock) for _ in range(3))
                with tracer.span("iteration", str(len(iterations))):
                    with tracer.span("setup"):
                        traced_inputs = self.w.make_inputs(lib, self.seed, srec)
                    with tracer.span("pass"):
                        out = self.w.run_traced(lib, traced_inputs, prec)
                    with tracer.span("probe"):
                        self.w.probe(lib, traced_inputs, xrec)
            counts = self.w.counts(traced_inputs, srec.ops + prec.ops)
            if reference is None:
                bad = self.w.check_traced(lib, traced_inputs, prec.ops, out, ref_ops)
                reference, first_counts = fingerprint(prec.ops), counts
            else:
                bad = repeat_failures(prec.ops, reference)
                if counts != first_counts:
                    bad.append((None, f"pinned counts changed: {counts} vs {first_counts}"))
            self.count(srec.ops + xrec.ops, [])
            self.count(prec.ops, bad)
            rows = {s["id"] for s in tracer.spans if s["name"] == "cli.row"}
            iterations.append((tracer, sampler.speed(), sum(
                s["end"] - s["start"] for s in tracer.spans if s["parent"] in rows)))

        def unloaded(f) -> float:
            return statistics.median(f(tracer) * speed for tracer, speed, _ in iterations)

        metrics = {}
        for name in names:
            if name == "trace.overhead_s":
                metrics[name] = unloaded(lambda t: t.total("pass")) - ref_pass
            elif name == "cli.self_s":
                layers = statistics.median(rows_s * speed for _, speed, rows_s in iterations)
                metrics[name] = ref_pass - layers if self.w.wraps_cli else 0.0
            elif name in first_counts:
                metrics[name] = first_counts[name]
            elif name.endswith("_s"):
                metrics[name] = unloaded(lambda t: t.total(name[:-2]))
            else:
                metrics[name] = 0  # a count of a layer this workload never calls
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{self.w.name}-seed{self.seed}.json"
        path.write_text(json.dumps({
            "workload": self.w.name, "seed": self.seed,
            "iterations": [{"speed": speed, "spans": tracer.spans}
                           for tracer, speed, _ in iterations]}))
        print(f"{self.w.name} seed={self.seed}: {len(iterations)} traced iterations, "
              f"spans in {path.relative_to(ROOT)}")
        return metrics


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, one after another."""
    rc = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        rc |= subprocess.run(cmd, check=False).returncode
    return rc


def main(argv: list[str] | None = None) -> int:
    missing = [p for p in ("BENCHMARK.json", "src/bplab/__init__.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from a bplab checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    warnings.simplefilter("ignore", UserWarning)  # k < 50 is below the paper's regime
    from workloads import WORKLOADS

    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    if args.trace:
        values = run.per_layer([m["name"] for m in spec])
    else:
        values = run.end_to_end()
    failed = run.failed
    print(f"  calls attempted {run.attempted}, failed {failed}, "
          f"fail_rate {failed / max(run.attempted, 1):.6g}")
    for msg in run.failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": max(run.attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
