"""Run one skeincalc CLI command in-process, with spans around each layer.

Usage: python bench/trace_cmd.py OUT_JSON ARG...

Times the import of skeincalc.cli, wraps the public functions named in
benchlib.SPAN_METRICS (and counts calls of the LaurentPoly dunders), runs
skeincalc.cli.main(ARGS) with stdout captured, and writes the spans,
counts and the stdout digest to OUT_JSON once the command has ended.
Work done inside pool worker processes is not seen by the wrappers; its
CPU time is read from os.times() around each resolve call.
"""

import sys
import time

_t0 = time.perf_counter()
import skeincalc.cli  # noqa: E402  (its import time is the measurement)

IMPORT_S = time.perf_counter() - _t0

import dataclasses  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import benchlib  # noqa: E402
from gate_cmd import run  # noqa: E402
from skeincalc.laurent import LaurentPoly  # noqa: E402
from skeincalc.sequences import UniPoly  # noqa: E402
from skeincalc.skein import SkeinVector  # noqa: E402


def _children_cpu() -> float:
    t = os.times()
    return t.children_user + t.children_system


class Tracer:
    """Spans and counters kept in memory until the command ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.results: list = []
        self.counts = dict.fromkeys(benchlib.COUNTERS, 0)
        self.worker_cpu_s = 0.0

    def wrap(self, name: str, fn):
        spans, stack, results, counts = self.spans, self._stack, self.results, self.counts
        clock = time.perf_counter
        resolve = name in benchlib.RESOLVE_SPANS
        keep = name not in benchlib.UNINSPECTED_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if resolve:
                cpu0 = _children_cpu()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if resolve:
                self.worker_cpu_s += _children_cpu() - cpu0
                counts["skein.states"] += 1 << args[0].crossing_count
                counts["skein.terms"] += len(result)
            if keep:
                results.append(result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "skeincalc"]
        for targets in benchlib.SPAN_METRICS.values():
            for target in targets:
                mod_name, attr = target.split(".")
                orig = getattr(sys.modules[f"skeincalc.{mod_name}"], attr)
                wrapped = self.wrap(target, orig)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapped)
        for dunder, key in benchlib.LAURENT_COUNTERS.items():
            setattr(LaurentPoly, dunder, self.counter(key, getattr(LaurentPoly, dunder)))

    def laurent_sizes(self) -> tuple[int, int]:
        """Largest coefficient bit length and exponent span over every
        LaurentPoly reachable from the kept results."""
        bits = span = 0
        seen: set[int] = set()
        todo = list(self.results)
        while todo:
            x = todo.pop()
            if isinstance(x, LaurentPoly):
                if id(x) in seen:
                    continue
                seen.add(id(x))
                items = x.items()
                if items:
                    span = max(span, items[-1][0] - items[0][0])
                    bits = max(bits, max(abs(c).bit_length() for _, c in items))
            elif isinstance(x, UniPoly):
                todo.extend(x.coeffs)
            elif isinstance(x, SkeinVector):
                todo.extend(c for _, c in x.items())
            elif isinstance(x, (list, tuple)):
                todo.extend(x)
            elif dataclasses.is_dataclass(x) and not isinstance(x, type):
                todo.extend(getattr(x, f.name) for f in dataclasses.fields(x))
        return bits, span


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    code, out = run(argv)
    run_s = time.perf_counter() - t0
    bits, span = tracer.laurent_sizes()
    record = {
        "argv": argv,
        "exit": code,
        "sha256": benchlib.digest(out),
        "out_bytes": len(out),
        "import_s": IMPORT_S,
        "run_s": run_s,
        "worker_cpu_s": tracer.worker_cpu_s,
        "counts": tracer.counts,
        "max_coeff_bits": bits,
        "max_exp_span": span,
        "spans": tracer.spans,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
