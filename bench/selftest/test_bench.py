"""Self-tests of the benchmark harness.

Run with: python3 -m pytest -q bench/selftest
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchlib  # noqa: E402
import run  # noqa: E402


def test_median_and_quartiles_on_fixed_inputs():
    assert benchlib.median([3.0, 1.0, 2.0]) == 2.0
    assert benchlib.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert benchlib.quartiles([float(x) for x in range(1, 11)]) == (2.75, 5.5, 8.25)
    assert benchlib.spread([float(x) for x in range(1, 11)]) == pytest.approx(1.0)
    assert benchlib.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert benchlib.spread([5.0] * 4) == 0.0


def test_host_correction_arithmetic():
    # A host 25 % slower than the baseline's makes 2.0 s read as 1.6 s.
    assert benchlib.host_corrected(2.0, 0.5, 0.625) == pytest.approx(1.6)
    assert benchlib.host_corrected(2.0, 0.5, 0.5) == 2.0
    # Wall times follow the kernel's wall clock, CPU times its CPU clock.
    c = benchlib.CommandRun(
        "verify-d1", True, 0, 0, 2.0, 1.0, 20.0,
        ref_before=benchlib.RefSample(0.4, 0.2), ref_after=benchlib.RefSample(0.6, 0.2),
    )
    assert c.ref_now_s("wall_s") == pytest.approx(0.5)
    baseline = benchlib.RefSample(0.25, 0.1)
    assert c.corrected(c.wall_s, "wall_s", baseline) == pytest.approx(1.0)
    assert c.corrected(c.cpu_s, "cpu_s", baseline) == pytest.approx(0.5)
    # A typical pass sums each command's median corrected time.
    d = benchlib.CommandRun("verify-d1", True, 0, 0, 4.0, 1.0, 20.0, c.ref_before, c.ref_after)
    e = benchlib.CommandRun("audit", True, 0, 0, 1.0, 1.0, 20.0, c.ref_before, c.ref_after)
    passes = [run.PassResult("algebra", False, [c, e]), run.PassResult("algebra", False, [d, e])]
    assert run.typical_pass_s(passes, baseline, "wall_s") == pytest.approx(1.5 + 0.5)


def test_self_times_subtract_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert benchlib.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert benchlib.span_counts(spans) == {"a": 1, "b": 2, "c": 1}


@pytest.fixture(scope="module")
def golden():
    return benchlib.load_golden()


@pytest.mark.parametrize("field, wrong", [("sha256", "0" * 64), ("exit", 1)])
def test_wrong_golden_fails_the_check(golden, field, wrong):
    bad = dict(golden)
    bad["verify-d1"] = dict(golden["verify-d1"], **{field: wrong})
    c = benchlib.run_cli("verify-d1", bad)
    assert not c.ok
    c.ref_before = c.ref_after = benchlib.RefSample(1.0, 1.0)
    p = run.PassResult("grid_quotient", False, [c])
    assert run.end_to_end([p], benchlib.RefSample(1.0, 1.0))["fail_frac"] > 0


def test_smoke_pass_of_verify_d1(golden):
    plain = benchlib.run_cli("verify-d1", golden)
    assert plain.ok and plain.exit_code == 0
    assert plain.wall_s > 0 and plain.maxrss_mb > 0
    traced = run.traced_run("grid_quotient", "verify-d1", golden)
    assert traced.ok
    assert traced.layers["skein.resolve_calls"] == 1
    assert traced.layers["skein.states"] == 2
    assert traced.layers["cli.import_s"] > 0
    assert benchlib.ref_sample().wall_s > 0
