"""The skeincalc benchmark.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is grid_quotient, expansion, algebra, or all (every workload, passes
interleaved by the seed).  The benchmark is a closed loop with one client:
one ``python -m skeincalc`` command at a time, each in a fresh interpreter,
so start-up and cold caches count as users pay them.  Every command's exit
code and stdout are checked against bench/golden.json; so is, once per
invocation and untimed, every README command in all three formats.

Timings are host-corrected: a run of a fixed reference kernel
(bench/refkernel.py) sits before and after every command, and each
command's seconds are scaled by ref_baseline_s / ref_now_s, wall times by
the kernel's wall seconds and CPU times by its CPU seconds.  With
--trace 1 untraced passes alternate with passes under bench/trace_cmd.py,
which give the per-layer numbers; end-to-end metrics come from untraced
passes only.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full record
(environment, every raw sample) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from dataclasses import asdict, dataclass

import benchlib
from benchlib import WORKLOADS, CommandRun, RefSample, median

MIN_ROUNDS = 3
SETUP_RUNS = 9
MAX_METRICS = ("laurent.max_coeff_bits", "laurent.max_exp_span")
CPU_TIMES = ("skein.worker_cpu_s",)  # per-layer times taken on the CPU clock


@dataclass
class PassResult:
    workload: str
    traced: bool
    commands: list[CommandRun]

    @property
    def maxrss_mb(self) -> float:
        return max(c.maxrss_mb for c in self.commands)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.commands)

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "traced": self.traced,
            "raw_wall_s": sum(c.wall_s for c in self.commands),
            "raw_cpu_s": sum(c.cpu_s for c in self.commands),
            "commands": [c.to_json() for c in self.commands],
        }


def traced_run(workload: str, command: str, golden) -> CommandRun:
    """One command in a fresh interpreter under bench/trace_cmd.py."""
    trace_dir = benchlib.RESULTS / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    out = trace_dir / f"{workload}-{WORKLOADS[workload].index(command)}.json"
    out.unlink(missing_ok=True)
    p = benchlib.run_process(
        [sys.executable, str(benchlib.BENCH / "trace_cmd.py"), str(out), *command.split()]
    )
    record = None
    if p.exit_code == 0 and not p.timed_out and out.exists():
        with open(out) as fh:
            record = json.load(fh)
    ok = record is not None and benchlib.matches(golden, command, record["exit"], record["sha256"])
    return CommandRun(
        command, ok, p.exit_code, record["out_bytes"] if record else 0,
        p.wall_s, p.cpu_s, p.maxrss_mb, layers=command_layers(record) if record else {},
    )


def command_layers(record: dict) -> dict[str, float]:
    """One traced command's per-layer numbers, in raw seconds and counts."""
    selfs = benchlib.self_times(record["spans"])
    calls = benchlib.span_counts(record["spans"])
    out = {
        metric: sum(selfs.get(n, 0.0) for n in names)
        for metric, names in benchlib.SPAN_METRICS.items()
    }
    out |= {
        metric: sum(calls.get(n, 0) for n in names)
        for metric, names in benchlib.CALL_METRICS.items()
    }
    out |= record["counts"]
    out["cli.import_s"] = record["import_s"]
    out["cli.out_bytes"] = record["out_bytes"]
    out["skein.worker_cpu_s"] = record["worker_cpu_s"]
    out["laurent.max_coeff_bits"] = record["max_coeff_bits"]
    out["laurent.max_exp_span"] = record["max_exp_span"]
    return out


def pass_layers(p: PassResult, baseline: RefSample) -> dict[str, float]:
    """A traced pass's per-layer numbers: host-corrected times and counts
    summed over its commands, import time as their median, sizes as their
    maximum, and the rates derived from those."""
    per_command = [
        {
            k: c.corrected(v, "cpu_s" if k in CPU_TIMES else "wall_s", baseline)
            if k.endswith("_s")
            else v
            for k, v in c.layers.items()
        }
        for c in p.commands
        if c.layers
    ]
    out = {}
    for k in per_command[0]:
        values = [x[k] for x in per_command]
        if k in MAX_METRICS:
            out[k] = max(values)
        elif k == "cli.import_s":
            out[k] = median(values)
        else:
            out[k] = sum(values)
    states, resolve_s = out["skein.states"], out["skein.resolve_s"]
    out["skein.states_per_s"] = states / resolve_s if resolve_s else 0.0
    out["skein.terms_per_kstate"] = 1000 * out["skein.terms"] / states if states else 0.0
    return out


def measure_setup(golden, baseline: RefSample) -> tuple[dict, list[CommandRun]]:
    """setup_s: median host-corrected wall of `python -m skeincalc --help`.

    An untimed first run byte-compiles the sources, as an installed
    package would have them.
    """
    runs = [benchlib.run_cli(benchlib.SETUP_COMMAND, golden)]
    ref = benchlib.ref_sample()
    for _ in range(SETUP_RUNS):
        r = benchlib.run_cli(benchlib.SETUP_COMMAND, golden)
        r.ref_before = ref
        r.ref_after = ref = benchlib.ref_sample()
        runs.append(r)
    summary = {
        "setup_s": median([r.corrected(r.wall_s, "wall_s", baseline) for r in runs[1:]]),
        "raw_s": median([r.wall_s for r in runs[1:]]),
        "runs": [r.to_json() for r in runs],
    }
    return summary, runs


def measure(workloads: list[str], traced: bool, seconds: float, rng, golden) -> list[PassResult]:
    """Interleaved passes until the time budget is spent, at least
    MIN_ROUNDS of each kind, with a reference-kernel run between commands."""
    items = [(w, False) for w in workloads] + ([(w, True) for w in workloads] if traced else [])
    passes: list[PassResult] = []
    ref = benchlib.ref_sample()
    deadline = time.perf_counter() + seconds * len(workloads)
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        rng.shuffle(items)
        for workload, is_traced in items:
            order = list(WORKLOADS[workload])
            rng.shuffle(order)
            runs = []
            for command in order:
                if is_traced:
                    c = traced_run(workload, command, golden)
                else:
                    c = benchlib.run_cli(command, golden)
                c.ref_before = ref
                c.ref_after = ref = benchlib.ref_sample()
                runs.append(c)
            passes.append(PassResult(workload, is_traced, runs))
        rounds += 1
    return passes


def typical_pass_s(passes: list[PassResult], baseline: RefSample, clock: str) -> float:
    """Seconds of a typical pass on clock ("wall_s" or "cpu_s"): the sum,
    over the workload's commands, of each command's median host-corrected
    seconds across the passes."""
    per_command: dict[str, list[float]] = {}
    for p in passes:
        for c in p.commands:
            value = c.corrected(getattr(c, clock), clock, baseline)
            per_command.setdefault(c.command, []).append(value)
    return sum(median(v) for v in per_command.values())


def end_to_end(passes: list[PassResult], baseline: RefSample) -> dict[str, float]:
    return {
        "wall_s": typical_pass_s(passes, baseline, "wall_s"),
        "cpu_s": typical_pass_s(passes, baseline, "cpu_s"),
        "peak_rss_mb": median([p.maxrss_mb for p in passes]),
        "fail_frac": sum(p.failed for p in passes) / sum(len(p.commands) for p in passes),
    }


def per_layer(passes: list[PassResult], plain_wall_s: float, baseline: RefSample) -> dict[str, float]:
    layers = [pass_layers(p, baseline) for p in passes]
    out = {}
    for k, v in layers[0].items():
        values = [x[k] for x in layers]
        # Counts repeat exactly; median_low keeps them whole numbers.
        out[k] = median(values) if isinstance(v, float) else statistics.median_low(values)
    traced_wall = typical_pass_s(passes, baseline, "wall_s")
    out["trace.overhead_frac"] = traced_wall / plain_wall_s - 1
    return out


def run_gate(golden) -> list[dict]:
    """Every README command in every format, in one interpreter, untimed."""
    p = benchlib.run_process([sys.executable, str(benchlib.BENCH / "gate_cmd.py")])
    got = json.loads(p.stdout) if p.exit_code == 0 and not p.timed_out else {}
    out = []
    for command in benchlib.gate_commands():
        g = got.get(command)
        ok = g is not None and benchlib.matches(golden, command, g["exit"], g["sha256"])
        out.append({"command": command, "ok": ok, "exit": g["exit"] if g else None})
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (benchlib.SRC / "skeincalc" / "__init__.py").is_file():
        print(f"error: no skeincalc sources under {benchlib.SRC}", file=sys.stderr)
        return 2
    try:
        with open(benchlib.ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        golden = benchlib.load_golden()
        baseline = benchlib.load_baseline()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load the benchmark definition: {exc}", file=sys.stderr)
        return 2

    env = benchlib.environment()
    rng = random.Random(args.seed)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    gate = run_gate(golden)
    setup, setup_runs = measure_setup(golden, baseline)
    passes = measure(workloads, bool(args.trace), args.seconds, rng, golden)
    env["loadavg_end"] = os.getloadavg()

    results: dict[str, dict[str, float]] = {}
    for w in workloads:
        plain = [p for p in passes if p.workload == w and not p.traced]
        results[w] = end_to_end(plain, baseline) | {"setup_s": setup["setup_s"]}
        traced = [p for p in passes if p.workload == w and p.traced]
        if traced:
            results[w] |= per_layer(traced, results[w]["wall_s"], baseline)

    timed = setup_runs + [c for p in passes for c in p.commands]
    attempted = len(gate) + len(timed)
    failed = sum(not g["ok"] for g in gate) + sum(not c.ok for c in timed)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    shown = {**units, "fail_frac": "1"}
    gate_ok = sum(g["ok"] for g in gate)
    print(f"gate: {gate_ok}/{len(gate)} README commands match their goldens (text, json, tsv)")
    for g in gate:
        if not g["ok"]:
            print(f"  MISMATCH {g['command']!r}: exit {g['exit']}")
    for w in workloads:
        counts = [sum(1 for p in passes if p.workload == w and p.traced == t) for t in (False, True)]
        print(f"{w}: {counts[0]} untraced and {counts[1]} traced passes, seed {args.seed}")
        for name, unit in shown.items():
            print(f"  {name:<34} {results[w][name]:>14.6g} {unit}")

    metrics = {
        (name if len(workloads) == 1 else f"{w}.{name}"): {"value": results[w][name], "unit": unit}
        for w in workloads
        for name, unit in units.items()
    }
    record = {
        "args": vars(args),
        "environment": env,
        "ref_baseline": asdict(baseline),
        "setup": setup,
        "gate": gate,
        "passes": [p.to_json() for p in passes],
        "results": results,
    }
    benchlib.RESULTS.mkdir(parents=True, exist_ok=True)
    out = benchlib.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
