"""Shared pieces of the skeincalc benchmark.

Workload definitions, the command runner (one fresh interpreter per
command, rusage read with os.wait4), golden-output checks, host
correction against the reference kernel, summary statistics, and the
table that maps traced spans onto per-layer metrics.

Nothing here imports skeincalc: the code under test only ever runs in
child processes started from the checkout's own ``src`` tree.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
GOLDEN_FILE = BENCH / "golden.json"
BASELINE_FILE = BENCH / "baseline.json"

COMMAND_TIMEOUT_S = 60.0

# Inputs are fixed so the golden digests hold; the seed only orders them.
WORKLOADS: dict[str, tuple[str, ...]] = {
    # Disk diagrams under boundary-arc ideals: almost every state is
    # discarded.  Pruning and frontier resolution help most here, and it
    # is the only workload that starts the process pool (--jobs 2).
    "grid_quotient": (
        "verify-zkn --k 4 --n 4 --jobs 2",
        "arc-constraints --seq power --n 4 --diagram-check",
        "resolve xkyn:3,5 --ideal grid",
        "verify-d1",
    ),
    # No ideal, so every state contributes: accumulation, rendering,
    # marked-annulus reduction and SkeinVector arithmetic carry the load.
    "expansion": (
        "resolve xkyn:4,4 --format json",
        "resolve xkyn:3,5 --format json",
        "verify-theta --n 14",
    ),
    # No resolver call at all: Laurent arithmetic, basis conversion and
    # start-up.  Resolver changes should leave it unchanged.
    "algebra": (
        "audit --seq chebyshev --max-n 40",
        "minimality --seq chebyshev --n 30 --format json",
        "arc-constraints --seq chebyshev --n 30",
    ),
}

SETUP_COMMAND = "--help"

# Every command of the README "Command line" section, run in each format.
README_COMMANDS = (
    "verify-theta --n 10",
    "verify-zkn --k 2 --n 3",
    "verify-d1",
    "audit --seq chebyshev --max-n 10",
    "minimality --seq chebyshev --n 5",
    "minimality --seq bench/myseq.json --n 2 --q1",
    "arc-constraints --seq power --n 3 --diagram-check",
    "resolve kink:+",
    "resolve xkyn:2,2 --ideal grid",
)
FORMATS = ("", "--format json", "--format tsv")


def gate_commands() -> list[str]:
    return [f"{c} {f}".strip() for c in README_COMMANDS for f in FORMATS]


# -- traced layers ------------------------------------------------------------

# Per-layer time metric -> public functions ("module.name") whose spans'
# self time it sums.  Both the defining module's attribute and every
# other skeincalc module's binding of the same object are wrapped.
SPAN_METRICS: dict[str, tuple[str, ...]] = {
    "cli.render_s": ("cli.emit_report",),
    "skein.resolve_s": ("skein.resolve_all", "skein.resolve_all_mod"),
    "skein.theta_bullet_s": ("skein.theta_bullet",),
    "skein.normal_form_s": ("skein.normal_form",),
    "diagram.build_s": (
        "diagram.build_core_stack",
        "diagram.build_theta_over_cores",
        "diagram.build_xk_yn",
        "diagram.build_zkn",
        "diagram.build_d1_xy",
        "diagram.build_kink",
    ),
    "sequences.to_basis_s": ("sequences.to_basis",),
    "sequences.product_in_basis_s": ("sequences.product_in_basis",),
    "sequences.chebyshev_s": ("sequences.chebyshev",),
    "positivity.audit_s": ("positivity.structure_constant_audit",),
    "positivity.constraints_s": (
        "positivity.minimality_constraints",
        "positivity.q_constraints",
    ),
}
RESOLVE_SPANS = SPAN_METRICS["skein.resolve_s"]
# Results of these spans are not inspected for Laurent coefficient sizes.
UNINSPECTED_SPANS = SPAN_METRICS["diagram.build_s"] + SPAN_METRICS["cli.render_s"]

# Call-count metric -> the spans it counts.
CALL_METRICS = {
    "skein.resolve_calls": RESOLVE_SPANS,
    "sequences.to_basis_calls": SPAN_METRICS["sequences.to_basis_s"],
    "sequences.product_in_basis_calls": SPAN_METRICS["sequences.product_in_basis_s"],
}

# Counters the traced child keeps besides its spans.
COUNTERS = ("skein.states", "skein.terms", "laurent.mul_calls", "laurent.add_calls",
            "laurent.init_calls")

# LaurentPoly dunder -> counter it increments.
LAURENT_COUNTERS = {
    "__mul__": "laurent.mul_calls",
    "__rmul__": "laurent.mul_calls",
    "__add__": "laurent.add_calls",
    "__radd__": "laurent.add_calls",
    "__init__": "laurent.init_calls",
}


# -- statistics and host correction ---------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def host_corrected(measured: float, ref_baseline_s: float, ref_now_s: float) -> float:
    """measured * ref_baseline_s / ref_now_s: seconds on a host as fast as
    the one that recorded the baseline."""
    return measured * ref_baseline_s / ref_now_s


@dataclass(frozen=True)
class RefSample:
    """One reference-kernel loop, timed on both clocks."""

    wall_s: float
    cpu_s: float


def load_baseline() -> RefSample:
    with open(BASELINE_FILE) as fh:
        return RefSample(**json.load(fh)["ref_baseline"])


# -- running commands -------------------------------------------------------------


@dataclass
class ProcessRun:
    exit_code: int
    stdout: bytes
    wall_s: float
    cpu_s: float  # user + sys of the child and every descendant it reaped
    maxrss_mb: float
    timed_out: bool


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_process(argv: list[str], timeout: float = COMMAND_TIMEOUT_S) -> ProcessRun:
    """Run argv from the repository root; stdout is captured, stderr dropped."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(
        exit_code=proc.returncode,
        stdout=out,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024,
        timed_out=killed.is_set(),
    )


def cli_argv(command: str) -> list[str]:
    return [sys.executable, "-m", "skeincalc", *command.split()]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict[str, dict]:
    with open(GOLDEN_FILE) as fh:
        return json.load(fh)["commands"]


def matches(golden: dict[str, dict], command: str, exit_code: int, sha256: str) -> bool:
    want = golden.get(command)
    return want is not None and want["exit"] == exit_code and want["sha256"] == sha256


@dataclass
class CommandRun:
    """One checked command, with the reference-kernel samples around it."""

    command: str
    ok: bool
    exit_code: int
    out_bytes: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    ref_before: RefSample | None = None
    ref_after: RefSample | None = None
    layers: dict[str, float] = field(default_factory=dict)  # traced runs only

    def ref_now_s(self, clock: str) -> float:
        """Mean of the kernel samples around the command on one clock,
        "wall_s" or "cpu_s"."""
        return (getattr(self.ref_before, clock) + getattr(self.ref_after, clock)) / 2

    def corrected(self, value: float, clock: str, baseline: RefSample) -> float:
        """value, measured on clock, in host-corrected seconds."""
        return host_corrected(value, getattr(baseline, clock), self.ref_now_s(clock))

    def to_json(self) -> dict:
        return asdict(self)


def run_cli(command: str, golden: dict[str, dict]) -> CommandRun:
    """One CLI command in a fresh interpreter, checked against its golden."""
    p = run_process(cli_argv(command))
    ok = not p.timed_out and matches(golden, command, p.exit_code, digest(p.stdout))
    return CommandRun(command, ok, p.exit_code, len(p.stdout), p.wall_s, p.cpu_s, p.maxrss_mb)


def ref_sample() -> RefSample:
    """One reference-kernel loop, in its own interpreter."""
    p = run_process([sys.executable, str(BENCH / "refkernel.py")])
    if p.exit_code != 0:
        raise RuntimeError(f"reference kernel failed with exit code {p.exit_code}")
    out = json.loads(p.stdout)
    return RefSample(out["wall_s"], out["cpu_s"])


# -- traced spans -----------------------------------------------------------------


def self_times(spans: list[list]) -> dict[str, float]:
    """Sum, per span name, of duration minus the time direct children cover.

    spans are [name, start, end, parent index or -1], in start order.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), child in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - child
    return out


def span_counts(spans: list[list]) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out


# -- environment ------------------------------------------------------------------


def git_state() -> dict:
    """HEAD and a dirty flag, or nulls outside a git checkout."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git": git_state(),
        "loadavg_start": os.getloadavg(),
    }
