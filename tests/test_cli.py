"""Command-line surface: exit codes, formats, determinism."""

import argparse
import ast
import collections
import concurrent.futures
import contextlib
import gc
import hashlib
import importlib
import io
import json
import multiprocessing.process
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import skeincalc
from skeincalc import _parser, _run, cli, diagram, skein
from skeincalc.cli import main
from skeincalc.laurent import q_power

SPAN = cli.MAX_SEQUENCE_SPAN


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theta", "--n", "3")
        assert code == 0
        assert "RESULT: PASS" in out

    def test_verification_failure_is_one(self, capsys, tmp_path):
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({"base": "chebyshev", "polys": {"1": [1, 1]}}))
        code, out, _ = run_cli(capsys, "minimality", "--seq", str(seq), "--n", "1")
        assert code == 1
        assert "contradiction" in out

    def test_bad_bounds_is_two(self, capsys):
        code, _, err = run_cli(capsys, "verify-zkn", "--k", "3", "--n", "2")
        assert code == 2
        assert "error" in err

    def test_cap_refusal_is_two(self, capsys):
        code, _, err = run_cli(capsys, "verify-zkn", "--k", "4", "--n", "4", "--cap", "10")
        assert code == 2
        assert "refusing to expand" in err

    def test_library_cap_refusal_message(self, capsys):
        # verify-d1 leaves the cap to the library, which words it as the
        # command line does for a spec.
        code, out, err = run_cli(capsys, "verify-d1", "--cap", "0")
        assert (code, out) == (2, "")
        assert err == "refusing to expand: diagram has 1 crossings; the expansion cap is 0\n"

    @pytest.mark.parametrize(
        "argv, words",
        [
            (["--n", "25"], "theta:25 has 25 crossings; the expansion cap is 24"),
            (["--n", "5", "--cap", "3"], "theta:5 has 5 crossings; the expansion cap is 3"),
        ],
    )
    def test_verify_theta_refuses_over_cap_before_building(self, capsys, monkeypatch, argv, words):
        def refuse(*args):
            raise AssertionError("an arc over the cap was built")

        monkeypatch.setattr(diagram, "build_theta_over_cores", refuse)
        code, out, err = run_cli(capsys, "verify-theta", *argv)
        assert (code, out) == (2, "")
        assert err == f"refusing to expand: {words}\n"

    def test_frontier_budget_refusal_is_two(self, capsys, monkeypatch):
        # xkyn:1,N holds 2^j partial states after j crossings.
        monkeypatch.setattr(skein, "MAX_FRONTIER_STATES", 1000)
        code, out, err = run_cli(capsys, "resolve", "xkyn:1,12")
        assert (code, out) == (2, "")
        assert err == (
            "refusing to expand: diagram holds more than 1000 partial states at crossing 10 "
            "of 12; the frontier budget is 1000\n"
        )

    def test_default_cap_grid_ends_under_an_address_space_limit(self):
        # The default cap admits its 24 crossings, and its answer has 2^24
        # basis terms; the frontier budget refuses it within crossing 17.
        gib = 1 << 30
        src = str(Path(skeincalc.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "skeincalc", "resolve", "xkyn:1,24"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=10,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gib, gib)),
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "refusing to expand: diagram holds more than 65536 partial states at crossing 17 "
            "of 24; the frontier budget is 65536\n"
        )

    def test_jobs_below_one_is_two(self, capsys):
        code, _, err = run_cli(capsys, "verify-theta", "--n", "1", "--jobs", "0")
        assert code == 2
        assert "--jobs must be >= 1" in err

    @pytest.mark.parametrize(
        "spec, words",
        [
            ("torus:1", "unknown diagram"),
            ("d1:foo", "bad diagram spec"),
            ("theta:1_0", "bad diagram spec"),
            ("core:\u0663", "bad diagram spec"),  # an Arabic-Indic digit three
            ("theta:+2", "bad diagram spec"),
            ("core:00", "bad diagram spec"),
            ("xkyn: 2, 2", "bad diagram spec"),
        ],
        ids=["unknown", "d1-argument", "underscore", "arabic-indic", "plus", "zero-pad", "spaces"],
    )
    def test_unknown_diagram_is_two(self, capsys, spec, words):
        code, out, err = run_cli(capsys, "resolve", spec)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {words} ")

    @pytest.mark.parametrize("spec", ["theta:200000", "xkyn:300,300", "zkn:5,5"])
    def test_resolve_refuses_over_cap_before_building(self, capsys, monkeypatch, spec):
        def refuse(*args):
            raise AssertionError("a diagram over the cap was built")

        for name in ("build_theta_over_cores", "build_xk_yn", "build_zkn"):
            monkeypatch.setattr(diagram, name, refuse)
        code, _, err = run_cli(capsys, "resolve", spec)
        assert code == 2
        assert "refusing to expand" in err

    def test_grid_ideal_off_the_grid_disk_is_two(self, capsys):
        # The kink lies on the unmarked disk, which no grid ideal fits; it
        # used to print the unreduced q + q^5 and exit 0.
        code, out, err = run_cli(capsys, "resolve", "kink:+", "--ideal", "grid")
        assert (code, out) == (2, "")
        assert err == "error: --ideal grid needs a grid disk, p0..p{n+1}, q{n}..q1 with n >= 1\n"

    @pytest.mark.parametrize("spec", ["theta:2", "core:2"])
    def test_ideal_off_a_disk_is_two(self, capsys, spec):
        code, out, err = run_cli(capsys, "resolve", spec, "--ideal", "boundary")
        assert (code, out) == (2, "")
        assert err == "error: ideals only apply to disk diagrams\n"

    def test_resolve_refuses_large_core_before_building(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a core stack over the limit was built")

        monkeypatch.setattr(diagram, "build_core_stack", refuse)
        code, _, err = run_cli(capsys, "resolve", f"core:{_run.MAX_CORE_LOOPS + 1}")
        assert code == 2
        assert f"K <= {_run.MAX_CORE_LOOPS}" in err

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_k_max_below_one_is_two(self, capsys, k_max):
        code, out, err = run_cli(capsys, "arc-constraints", "--n", "3", "--k-max", k_max)
        assert (code, out) == (2, "")
        assert "--k-max >= 1" in err

    @pytest.mark.parametrize(
        "argv, limit, work",
        [
            (["minimality", "--n"], "MAX_MINIMALITY_N", "minimality_constraints"),
            (["arc-constraints", "--n"], "MAX_ARC_N", "q_constraints"),
            (["audit", "--max-n"], "MAX_AUDIT_N", "structure_constant_audit"),
        ],
        ids=["minimality", "arc-constraints", "audit"],
    )
    def test_size_limits(self, capsys, monkeypatch, argv, limit, work):
        # The work runs at size 1 so that the limit itself stays cheap to accept.
        real, calls, limit = getattr(cli, work), [], getattr(cli, limit)

        def small(seq, size, *args, **kwargs):
            calls.append(size)
            return real(seq, 1, *args, **kwargs)

        monkeypatch.setattr(cli, work, small)
        code, out, err = run_cli(capsys, *argv, str(limit + 1))
        assert (code, out, calls) == (2, "", [])
        assert f"<= {limit}, got {limit + 1}" in err
        code, _, _ = run_cli(capsys, *argv, str(limit))
        assert (code, calls) == (0, [limit])

    @pytest.mark.parametrize(
        "command, limit, code, conclusion",
        [
            ("minimality", "MAX_MINIMALITY_N", 0, "consistent"),
            ("arc-constraints", "MAX_ARC_N", 1, "contradiction"),
        ],
        ids=["minimality", "arc-constraints"],
    )
    def test_sequence_size_limits_run_in_full(self, capsys, command, limit, code, conclusion):
        n = str(getattr(cli, limit))
        got, out, err = run_cli(capsys, command, "--seq", "chebyshev", "--n", n)
        assert (got, err) == (code, "")
        assert out.endswith(f"conclusion: {conclusion}\n")

    def test_argparse_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-theta"])  # missing --n
        assert exc.value.code == 2


class TestVerifyCommands:
    def test_theta_text_shows_both_sides(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theta", "--n", "2")
        assert code == 0
        assert "q·theta_1 + q^-1·theta_-1" in out
        assert "q^2·theta_2 + q^-2·theta_-2" in out

    def test_zkn_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify-zkn", "--k", "2", "--n", "3")
        assert code == 0
        assert "q^-6" in out
        assert "RESULT: PASS" in out

    def test_d1(self, capsys):
        code, out, _ = run_cli(capsys, "verify-d1")
        assert code == 0
        assert "rhs = 0" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theta", "--n", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["cases"][0]["lhs"] == [
            {"basis": "theta_1", "coeff": {"1": 1}},
            {"basis": "theta_-1", "coeff": {"-1": 1}},
        ]

    def test_tsv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify-theta", "--n", "2", "--format", "tsv")
        assert code == 0
        assert out.strip().splitlines()[-1] == "RESULT\tPASS"


class TestReports:
    def test_minimality_chebyshev(self, capsys):
        code, out, _ = run_cli(capsys, "minimality", "--seq", "chebyshev", "--n", "4")
        assert code == 0
        assert "conclusion: consistent" in out

    def test_minimality_q1_shows_minus_two(self, capsys, tmp_path):
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps({"base": "chebyshev", "polys": {"1": [1, 1]}}))
        code, out, _ = run_cli(
            capsys, "minimality", "--seq", str(seq), "--n", "2", "--q1"
        )
        assert code == 1
        assert "d              in Z_+:  -2   -> FAIL" in out
        assert "conclusion: contradiction" in out

    def test_arc_constraints_chebyshev_fails(self, capsys):
        code, out, _ = run_cli(capsys, "arc-constraints", "--seq", "chebyshev", "--n", "2")
        assert code == 1
        assert "conclusion: contradiction" in out

    def test_arc_constraints_power_with_diagrams(self, capsys):
        code, out, _ = run_cli(
            capsys, "arc-constraints", "--seq", "power", "--n", "2", "--diagram-check"
        )
        assert code == 0
        assert "mod I" in out

    @pytest.mark.parametrize(
        "argv, largest",
        [
            (["--n", "5", "--k-max", "4"], "x^4 y_5 == q^-20 z_(4,5) mod I"),
            (["--n", "8", "--cap", "64"], "x^8 y_8 == q^-64 z_(8,8) mod I"),
        ],
        ids=["k-max-4", "cap-64"],
    )
    def test_diagram_check_is_bounded_by_the_cap(self, capsys, argv, largest):
        code, out, _ = run_cli(
            capsys, "arc-constraints", "--seq", "power", *argv, "--diagram-check"
        )
        assert code == 0
        assert largest in out

    @pytest.mark.parametrize("q1", [[], ["--q1"]], ids=["exact", "q1"])
    @pytest.mark.parametrize("fmt", ["text", "tsv", "json"])
    def test_failed_diagram_check_is_a_contradiction(self, capsys, monkeypatch, fmt, q1):
        # The rhs scaled by q^2 differs from the lhs over Z[q, q^-1], yet
        # agrees with it at q = 1, where an identity is never judged.
        grid_identity = skein.grid_identity

        def scaled(k, n, cap):
            lhs, rhs = grid_identity(k, n, cap)
            return lhs, rhs.scaled(q_power(2))

        monkeypatch.setattr(skein, "grid_identity", scaled)
        argv = ["arc-constraints", "--seq", "power", "--n", "2", "--diagram-check", "--format", fmt]
        code, out, _ = run_cli(capsys, *argv, *q1)
        assert code == 1
        if fmt == "json":
            data = json.loads(out)
            rows = [r for r in data["constraints"] if r["required"] == "identity"]
            assert [(r["value"], r["ok"]) for r in rows] == [(0 if q1 else {}, False)] * 2
            assert data["conclusion"] == "contradiction"
            return
        rows = [line for line in out.splitlines() if "mod I" in line]
        assert len(rows) == 2 and all(line.endswith("FAIL") for line in rows)
        assert all("exact" in line and "identity" in line for line in rows)
        assert out.splitlines()[-1] in ("conclusion: contradiction", "conclusion\tcontradiction")

    def test_diagram_check_over_cap_refuses_before_building(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a grid over the cap was built")

        for name in ("build_xk_yn", "build_zkn"):
            monkeypatch.setattr(skein, name, refuse)
        code, out, err = run_cli(capsys, "arc-constraints", "--n", "5", "--diagram-check")
        assert (code, out) == (2, "")
        assert "refusing to expand: xkyn:5,5 has 25 crossings" in err

    def test_audit(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--seq", "power", "--max-n", "4")
        assert code == 0
        assert "RESULT: PASS" in out

    def test_audit_tsv(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--seq", "chebyshev", "--max-n", "2", "--format", "tsv"
        )
        assert code == 0
        assert out.startswith("0\t0\tPASS")

    @pytest.mark.parametrize(
        "q1, code, verdict", [([], 1, "FAIL"), (["--q1"], 0, "PASS")], ids=["R_+", "q1"]
    )
    def test_audit_honours_q1(self, capsys, tmp_path, q1, code, verdict):
        # T_1 * T_1 = t^2 = P_2 + (q^-1 - q) P_1 + 2: the constant q^-1 - q
        # is outside R_+ but is 0 at q = 1.
        seq = tmp_path / "seq.json"
        polys = {"2": [-2, {"1": 1, "-1": -1}, 1]}
        seq.write_text(json.dumps({"base": "chebyshev", "polys": polys}))
        argv = ["audit", "--seq", str(seq), "--max-n", "1", *q1]
        got, out, _ = run_cli(capsys, *argv)
        assert got == code
        assert out.endswith(f"1\t1\t{verdict}\nRESULT: {verdict}\n")
        got, out, _ = run_cli(capsys, *argv, "--format", "json")
        report = json.loads(out)
        assert got == code
        assert [r["all_positive"] for r in report["rows"]] == [True, True, code == 0]
        assert report["ok"] is (code == 0)

    def test_bad_sequence_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"base": "chebyshev", "polys": {"2": [1, 1]}}))
        code, _, err = run_cli(capsys, "minimality", "--seq", str(bad), "--n", "2")
        assert code == 2
        assert "monic" in err

    def test_float_coefficient_is_rejected(self, capsys, tmp_path):
        seq = tmp_path / "f.json"
        seq.write_text(json.dumps({"base": "chebyshev", "polys": {"1": [{"0": 0.7}, 1]}}))
        code, out, err = run_cli(capsys, "minimality", "--seq", str(seq), "--n", "2")
        assert code == 2
        assert out == ""
        assert "not an integer" in err

    def test_exponent_span_at_the_limit_runs(self, capsys, tmp_path):
        # q^top in one entry and q^(top - SPAN) in another span exactly SPAN.
        top = SPAN // 2
        polys = {"1": [{str(top): 1}, 1], "2": [{str(top - SPAN): 1}, 0, 1]}
        seq = tmp_path / "span.json"
        seq.write_text(json.dumps({"base": "chebyshev", "polys": polys}))
        for command, flag in (
            ("audit", "--max-n"),
            ("minimality", "--n"),
            ("arc-constraints", "--n"),
        ):
            code, out, err = run_cli(capsys, command, "--seq", str(seq), flag, "3")
            assert code in (0, 1) and out and err == ""

    @pytest.mark.parametrize(
        "data",
        [
            {"base": "chebyshev", "polys": {"1": [{"1000000000": 1}, 1]}},
            {"base": "power", "polys": {"2": [{"-1000000000": 1}, 0, 1]}},
            [[1], [{str(SPAN + 1): 1}, 1]],
            [[1], [{"1": 1}, 1], [{str(-SPAN): 1}, 0, 1]],
        ],
    )
    @pytest.mark.parametrize(
        "command, flag", [("audit", "--max-n"), ("minimality", "--n"), ("arc-constraints", "--n")]
    )
    def test_exponent_span_over_the_limit_is_two(self, capsys, tmp_path, data, command, flag):
        seq = tmp_path / "wide.json"
        seq.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, command, "--seq", str(seq), flag, "2")
        assert (code, out) == (2, "")
        assert f"at most {SPAN} apart" in err

    @pytest.mark.parametrize("data", [3, "x", None], ids=["int", "str", "null"])
    def test_sequence_file_of_a_scalar_is_two(self, capsys, tmp_path, data):
        seq = tmp_path / "scalar.json"
        seq.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "minimality", "--seq", str(seq), "--n", "1")
        assert (code, out) == (2, "")
        assert err == f"error: sequence file {str(seq)!r} must hold a list or an object\n"

    def test_entry_zero_other_than_one_is_two(self, capsys, tmp_path):
        seq = tmp_path / "zero.json"
        seq.write_text(json.dumps({"polys": {"0": [2]}}))
        code, out, err = run_cli(capsys, "minimality", "--seq", str(seq), "--n", "1")
        assert (code, out) == (2, "")
        assert "entry 0 must be monic of degree 0" in err

    def test_bool_coefficient_is_rejected(self, capsys, tmp_path):
        seq = tmp_path / "b.json"
        seq.write_text(json.dumps([[1], [True, 1]]))
        code, _, err = run_cli(capsys, "minimality", "--seq", str(seq), "--n", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_list_shorter_than_n_is_two(self, capsys, tmp_path):
        seq = tmp_path / "short.json"
        seq.write_text(json.dumps([[1], [0, 1]]))
        code, out, err = run_cli(capsys, "minimality", "--seq", str(seq), "--n", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "index 2" in err

    @pytest.mark.parametrize(
        "argv, index",
        [
            (["minimality", "--n", "3"], 3),
            (["audit", "--max-n", "2"], 2),
            (["arc-constraints", "--n", "2"], 2),
        ],
        ids=["minimality", "audit", "arc-constraints"],
    )
    def test_missing_entry_is_a_usage_error(self, capsys, tmp_path, argv, index):
        # The library raises MissingEntry deep in a report; every report
        # command maps it to exit 2 with the library's message.
        seq = tmp_path / "short.json"
        seq.write_text(json.dumps([[1], [0, 1]]))
        code, out, err = run_cli(capsys, *argv, "--seq", str(seq))
        assert (code, out) == (2, "")
        assert err == f"error: custom sequence has no entry for index {index}\n"

    @pytest.mark.parametrize(
        "polys",
        [
            {" 1": [0, 1], "1": [5, 1]},
            {"01": [0, 1]},
            {"+1": [0, 1]},
            {"1 ": [0, 1]},
            {"": [1]},
            [[1], [0, 1]],
        ],
    )
    def test_non_canonical_polys_keys_are_two(self, capsys, tmp_path, polys):
        seq = tmp_path / "keys.json"
        seq.write_text(json.dumps({"base": "chebyshev", "polys": polys}))
        code, out, err = run_cli(capsys, "minimality", "--seq", str(seq), "--n", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("key", ["poly", "Polys", "bsae"])
    def test_unknown_key_is_two(self, capsys, tmp_path, key):
        # With "poly" read as absent, P_1 would fall back to plain Chebyshev
        # and the file would pass as consistent; the intended file fails.
        seq = tmp_path / "typo.json"
        seq.write_text(json.dumps({"base": "chebyshev", "polys": {"1": [1, 1]}}))
        assert run_cli(capsys, "minimality", "--seq", str(seq), "--n", "3")[0] == 1
        seq.write_text(json.dumps({"base": "chebyshev", key: {"1": [1, 1]}}))
        code, out, err = run_cli(capsys, "minimality", "--seq", str(seq), "--n", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"base": "chebyshev", "polys": {"1": [1, 1], "1": [0, 1]}}',
            '{"2": [{"1": 1, "1": -1}, 0, 1]}',
            '{"base": "chebyshev", "polys": {"2": [{"1": 1, "1": -1}, 0, 1]}}',
            '[[1], [0, 1], [{"0": 1, "0": -1}, 0, 1]]',
            '{"base": "power", "base": "chebyshev"}',
        ],
    )
    def test_repeated_key_is_two(self, capsys, tmp_path, text):
        seq = tmp_path / "twice.json"
        seq.write_text(text)
        code, out, err = run_cli(capsys, "minimality", "--seq", str(seq), "--n", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "repeats the key" in err

    @pytest.mark.parametrize(
        "data",
        [b'[[1], [0, 1], [\xff, 0, 1]]', b"[[1], [" + b"7" * 4301 + b", 1]]", b"[" * 100_000],
        ids=["not-utf8", "int-over-4300-digits", "nested-100000-deep"],
    )
    def test_undecodable_sequence_file_is_two(self, capsys, tmp_path, data):
        # json.load raises UnicodeDecodeError, ValueError and RecursionError
        # here, none of them a JSONDecodeError.
        seq = tmp_path / "bad.json"
        seq.write_bytes(data)
        code, out, err = run_cli(capsys, "minimality", "--seq", str(seq), "--n", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error: sequence file") and "Traceback" not in err

    def test_sequence_file_is_read_as_utf8_whatever_the_locale(self, tmp_path):
        # JSON is UTF-8 (RFC 8259).  A file opened with the locale's encoding
        # raises this warning, which the flags turn into a traceback, exit 1.
        strict = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
        good, bad = tmp_path / "ok.json", tmp_path / "bad.json"
        good.write_text('{"base": "chebyshev", "polys": {"2": [-2, 0, 1]}}')
        bad.write_bytes(b"[[1], [0, 1], [\xff, 0, 1]]")
        done = run_fresh(*strict, "-m", "skeincalc", "minimality", "--seq", str(good), "--n", "2")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.endswith("conclusion: consistent\n")
        done = run_fresh(*strict, "-m", "skeincalc", "minimality", "--seq", str(bad), "--n", "2")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: sequence file {str(bad)!r} is not valid JSON: 'utf-8' codec can't decode "
            "byte 0xff in position 15: invalid start byte\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_report_prints_integers_over_the_str_limit(self, capsys, tmp_path, fmt):
        # A 4,300-digit literal N is the longest the loader accepts, and
        # P_4 = t^4 + N t^2 has Chebyshev constant c_0 = 2N + 6, 4,301 digits.
        # CPython has the limit from 3.10.7 on; the run must give it back.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        seq = tmp_path / "big.json"
        seq.write_text('{"base": "chebyshev", "polys": {"4": [0, 0, 9%s, 0, 1]}}' % ("0" * 4299))
        argv = ("minimality", "--seq", str(seq), "--n", "4", "--format", fmt)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and "Traceback" not in err
        last = {"text": "conclusion: consistent", "json": '"conclusion": "consistent"'}[fmt]
        assert out.splitlines()[-1 if fmt == "text" else -2].strip() == last
        assert "18" + "0" * 4298 + "6" in out
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_bare_list_sequence_with_laurent_coefficients(self, capsys, tmp_path):
        # P_2 = t^2 + (q + q^-1) has Chebyshev coordinates (2 + q + q^-1, 0, 1),
        # a nonnegative mix, so the loop condition is consistent.
        seq = tmp_path / "seq.json"
        seq.write_text(json.dumps([[1], [0, 1], [{"1": 1, "-1": 1}, 0, 1]]))
        code, out, _ = run_cli(capsys, "minimality", "--seq", str(seq), "--n", "2")
        assert code == 0
        assert "q^-1 + 2 + q" in out
        assert "conclusion: consistent" in out


class TestResolve:
    def test_kink(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "kink:+")
        assert code == 0
        assert out.strip() == "q + q^5"

    def test_core(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "core:3")
        assert code == 0
        assert out.strip() == "z^3"

    def test_zkn_resolve_mod_grid(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "xkyn:1,1", "--ideal", "grid")
        assert code == 0
        assert out.strip() == "q^-1·chords[(p0,q1),(p1,p2)]"

    def test_empty_vector_renders_zero(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "d1", "--ideal", "boundary")
        assert code == 0
        assert out.strip() == "0"

    def test_every_command_has_one_row(self):
        # The parser's commands are the command table's keys, and every
        # row's module, function and renderer resolve; a command with no
        # row has no renderer.
        parser = _parser.build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(_run._COMMANDS)
        for module, *names in _run._COMMANDS.values():
            code = importlib.import_module(f"skeincalc.{module}")
            assert all(callable(getattr(code, name)) for name in names)
        with pytest.raises(KeyError):
            _run.emit_report("no-such-command", skein.SkeinVector(), "text")

    def test_one_renderer_for_every_report(self):
        # The traced render span wraps cli.emit_report, and with it the
        # runner's binding: both names hold one function, which renders a
        # report with the renderer of its command's row.
        assert cli.emit_report is _run.emit_report
        v = skein.resolve_all(diagram.build_kink(1))
        for fmt in ("text", "json", "tsv"):
            assert _run.emit_report("resolve", v, fmt) == _run._emit_vector(v, fmt, False)

    @pytest.mark.parametrize(
        "argv", [["verify-d1"], ["audit", "--max-n", "2"]], ids=["verify-d1", "audit"]
    )
    def test_every_report_renders_through_emit_report_once(self, argv, capsys, monkeypatch):
        # bench/trace_cmd.py times rendering by rebinding emit_report in every
        # skeincalc module; a runner that rendered around it would time 0.
        original, rendered = _run.emit_report, []

        def counting(*args):
            rendered.append(original(*args))
            return rendered[-1]

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "skeincalc":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(rendered) == 1
        assert out == rendered[0] + "\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "theta:1", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"basis": "theta_1", "coeff": {"1": 1}},
            {"basis": "theta_-1", "coeff": {"-1": 1}},
        ]

    def test_q1_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "resolve", "kink:+", "--q1")
        assert code == 0
        assert out.strip() == "2"


ROOT = Path(__file__).resolve().parents[1]
# Each golden command's exit code and stdout digest: --help, every README
# command in each format and every benchmark workload command.
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text())["commands"]


class TestDeterminism:
    @pytest.mark.parametrize("command", GOLDEN)
    def test_matches_the_golden(self, command, capsys, monkeypatch):
        # As the benchmark runs them: from the repository root (sequence
        # files are named relative to it), with help wrapped at 80 columns.
        monkeypatch.chdir(ROOT)
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = _parser.main(command.split())
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out.encode("utf-8")
        want = GOLDEN[command]
        assert (code, hashlib.sha256(out).hexdigest()) == (want["exit"], want["sha256"])

    def test_byte_identical_across_jobs(self, capsys):
        outputs = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(
                capsys, "verify-zkn", "--k", "2", "--n", "5", "--jobs", jobs
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_jobs_starts_no_process(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(
            "skeincalc.skein.ProcessPoolExecutor", refuse, raising=False
        )
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        outputs = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(
                capsys, "verify-zkn", "--k", "4", "--n", "4", "--jobs", jobs
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_byte_identical_across_runs(self, capsys):
        a = run_cli(capsys, "minimality", "--seq", "chebyshev", "--n", "5", "--format", "json")
        b = run_cli(capsys, "minimality", "--seq", "chebyshev", "--n", "5", "--format", "json")
        assert a == b


def run_fresh(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this skeincalc, with text output."""
    src = str(Path(skeincalc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
    )


def run_python(code: str) -> str:
    """The stdout of code run in a fresh interpreter that imports this skeincalc."""
    done = run_fresh("-c", code)
    done.check_returncode()
    return done.stdout


def loaded_after(code: str) -> list[str]:
    """The skeincalc submodules a fresh interpreter holds once code has run."""
    probe = "\nimport sys; print(sorted(m for m in sys.modules if m.startswith('skeincalc.')))"
    return ast.literal_eval(run_python(code + probe).splitlines()[-1])


def loaded_by_command(*argv: str) -> list[str]:
    return loaded_after(
        "import contextlib, io, skeincalc.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        f"    skeincalc.cli.main({list(argv)!r})"
    )


def run_entry(argv: list[str]) -> tuple[int, list[str], int]:
    """Run the package as __main__, as python -m skeincalc runs it, in a
    fresh interpreter: its exit code, the skeincalc submodules loaded and
    the number of objects frozen out of the collector's reach."""
    probe = (
        "import contextlib, gc, io, runpy, sys\n"
        f"sys.argv = ['skeincalc', *{argv!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        runpy.run_module('skeincalc', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print((code, sorted(m for m in sys.modules if m.startswith('skeincalc.')), "
        "gc.get_freeze_count()))"
    )
    return ast.literal_eval(run_python(probe))


RESOLVER = {"skeincalc.diagram", "skeincalc.skein"}
RUNNER = {"skeincalc._cap", "skeincalc._parser", "skeincalc._record", "skeincalc._run"}


class TestStartup:
    def test_import_loads_no_dataclasses(self):
        # dataclasses pulls in inspect and ast: tens of milliseconds on every
        # command, measured with python -X importtime.  Every source line is
        # compiled on every command too, so the test-only oracles stay out.
        # Only the modules the import adds count: site may load inspect and
        # ast before skeincalc (a .pth file importing importlib.resources).
        code = (
            "import sys; before = set(sys.modules); import skeincalc.cli, skeincalc.skein; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & (set(sys.modules) - before)), "
            "sorted({'_scan_range', '_Scanner', 'classify_components', 'check_jobs'} "
            "& set(vars(sys.modules['skeincalc.skein']))), "
            "sorted({'RunConfig', 'config_from_args'} & set(vars(sys.modules['skeincalc.cli']))"
            " | {'CurveSymbol'} & set(vars(sys.modules['skeincalc.positivity']))))"
        )
        assert run_python(code).strip() == "[] [] []"

    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import skeincalc") == []
        # A public name loads its own module: the cap rule, not the resolver.
        assert loaded_after("import skeincalc; skeincalc.CrossingCapExceeded") == [
            "skeincalc._cap"
        ]
        assert not RESOLVER & set(loaded_after("import skeincalc.cli"))

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["audit", "--help"], 0), (["audit"], 2)],
        ids=["help", "audit-help", "usage-error"],
    )
    def test_entry_exits_before_the_library(self, argv, code):
        # The package run as __main__, as python -m skeincalc runs it: help
        # and usage errors end in the parser, before cli or the library loads.
        exited, loaded, _ = run_entry(argv)
        assert exited == code
        assert loaded == ["skeincalc._cap", "skeincalc._parser"]

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["resolve", "xkyn:2,2", "--ideal", "grid"], []),
            (["verify-d1"], []),
            (["verify-zkn", "--k", "1", "--n", "1"], []),
            (["verify-theta", "--n", "2"], ["skeincalc.sequences"]),
        ],
        ids=["resolve", "verify-d1", "verify-zkn", "verify-theta"],
    )
    def test_resolver_commands_skip_the_report_stack(self, argv, extra):
        # cli, positivity and sequences serve the report commands; the
        # runner and the resolver alone answer these (verify-theta reads
        # chebyshev from sequences).
        exited, loaded, _ = run_entry(argv)
        assert exited == 0
        assert loaded == sorted(RUNNER | RESOLVER | {"skeincalc.laurent", *extra})

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify-d1"], 0),
            (["arc-constraints", "--seq", "chebyshev", "--n", "30"], 1),
            (["verify-zkn", "--k", "4", "--n", "4", "--cap", "10"], 2),
            (["audit"], 2),
            (["--help"], 0),
        ],
        ids=["pass", "fail", "refusal", "usage-error", "help"],
    )
    def test_process_entry_freezes_the_heap_on_every_exit(self, argv, code):
        # The interpreter's final collections would walk every live object;
        # frozen objects are skipped, whichever way the command leaves.
        exited, _, frozen = run_entry(argv)
        assert exited == code
        assert frozen > 0

    @pytest.mark.parametrize(
        "argv",
        [["verify-d1"], ["audit", "--max-n", "3"], ["audit"], ["--help"]],
        ids=["verify-d1", "audit", "usage-error", "help"],
    )
    def test_in_process_main_leaves_the_collector_alone(self, argv, capsys):
        before = gc.get_freeze_count()
        with contextlib.suppress(SystemExit):
            _parser.main(argv)
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    def test_picking_a_renderer_loads_no_library_module(self):
        # A resolver command's renderer is the runner's own; a report
        # command's row loads cli, which loads no resolver module.
        loaded = loaded_after(
            "import skeincalc._run as r\n"
            "r.emit_report('verify-d1', r.IdentityReport('x', 'y', ()), 'text')"
        )
        assert set(loaded) == RUNNER - {"skeincalc._parser"}
        loaded = set(
            loaded_after(
                "import skeincalc._run as r\nfrom skeincalc.positivity import AuditReport\n"
                "r.emit_report('audit', AuditReport(()), 'text')"
            )
        )
        assert "skeincalc.cli" in loaded
        assert not RESOLVER & loaded

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--help"], id="help"),
            *(pytest.param([c, "--help"], id=f"{c}-help") for c in _run._COMMANDS),
            pytest.param(["audit"], id="missing-flag"),
            pytest.param(["audit", "--max-n", "3", "--format", "xml"], id="bad-format"),
        ],
    )
    def test_module_entry_matches_cli_main(self, argv, capsys, monkeypatch):
        # Help wraps at the terminal width, which COLUMNS fixes on both sides.
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        done = run_fresh("-m", "skeincalc", *argv, COLUMNS="80")
        assert (done.returncode, done.stdout, done.stderr) == (
            exc.value.code,
            captured.out,
            captured.err,
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "--max-n", "3"],
            ["minimality", "--n", "3"],
            ["arc-constraints", "--n", "3"],
        ],
        ids=["audit", "minimality", "arc-constraints"],
    )
    def test_report_commands_skip_the_resolver(self, argv):
        loaded = set(loaded_by_command(*argv))
        assert "skeincalc.positivity" in loaded
        assert not RESOLVER & loaded

    def test_json_loads_only_for_a_json_document(self):
        run = "import contextlib, io, sys, skeincalc.cli\n" + "\n".join(
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    skeincalc.cli.main({argv!r})\n"
            "print('json' in sys.modules)"
            for argv in (
                ["audit", "--max-n", "3"],
                ["minimality", "--n", "3", "--format", "tsv"],
                ["audit", "--max-n", "3", "--format", "json"],
            )
        )
        assert run_python(run).split() == ["False", "False", "True"]

    @pytest.mark.parametrize(
        "argv",
        [["verify-d1"], ["resolve", "kink:+"], ["arc-constraints", "--n", "2", "--diagram-check"]],
        ids=["verify-d1", "resolve", "diagram-check"],
    )
    def test_resolving_commands_load_the_resolver(self, argv):
        assert RESOLVER <= set(loaded_by_command(*argv))

    def test_traced_spans_find_their_modules(self):
        # bench/trace_cmd.py looks each span's module up in sys.modules after
        # its own imports, before the command runs; a module loaded only by
        # the command would fail every traced run.
        bench = Path(__file__).resolve().parents[1] / "bench"
        tree = ast.parse((bench / "trace_cmd.py").read_text())
        imports = [
            ast.unparse(node)
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "skeincalc" in ast.unparse(node)
        ]
        probe = "\n".join(imports) + (
            "\nimport sys\nloaded = {m.removeprefix('skeincalc.') for m in sys.modules}\n"
            f"sys.path.insert(0, {str(bench)!r})\nimport benchlib\n"
            "spans = {t.split('.')[0] for ts in benchlib.SPAN_METRICS.values() for t in ts}\n"
            "print((sorted(spans), sorted(spans - loaded)))"
        )
        spans, missing = ast.literal_eval(run_python(probe).strip())
        assert imports and spans
        assert missing == []


# -- exit-code fuzz ---------------------------------------------------------------
#
# Values stay small, so every command that runs at all runs in milliseconds;
# the junk spellings reach the parser's and the runner's refusals.

JUNK = ["", "x", "1.5", "+2", "07", "-0", "1e3", "\u0663", "--", "-n"]
SMALL = ["-1", "0", "1", "2", "2", "3", "3", "4", "5", "5", "x", "1.5"]
# Each command's options beyond the common ones, with their values; None
# marks a flag with no value, and "--seq" takes a name or a file.
OPTIONS = {
    "verify-theta": {"--n": SMALL},
    "verify-zkn": {"--k": SMALL, "--n": SMALL},
    "verify-d1": {},
    "audit": {"--max-n": SMALL, "--seq": []},
    "minimality": {"--n": SMALL, "--seq": []},
    "arc-constraints": {"--n": SMALL, "--seq": [], "--k-max": SMALL, "--diagram-check": None},
    "resolve": {"--ideal": ["none", "boundary", "grid", "all"]},
}
ALWAYS = {"--n", "--k", "--max-n", "--seq"}
COMMON = {
    "--format": ["text", "json", "tsv", "xml"],
    "--cap": ["-1", "0", "4", "24", "24", "30"],
    "--jobs": ["0", "1", "1", "2"],
    "--q1": None,
}
SPECS = ["core:2", "theta:0", "theta:3", "xkyn:2,2", "xkyn:5,5", "xkyn:1,3", "zkn:2,3",
         "zkn:3,2", "d1", "kink:+", "kink:-", "kink:0", "theta:-1", "xkyn:2", "core:", "torus:2"]
BAD_JSON = ["", "{", "[1,", "[[1]]x", '{"polys": {"1": [1], "1": [2]}}']


def random_command_line(rng, seq_file: str) -> list[str]:
    """A command (now and then an unknown one), the resolve spec, its
    required options and --seq, up to three others, all in random order,
    and now and then a stray token."""
    command = rng.choice([*OPTIONS, *OPTIONS, "bogus"])
    options = {**OPTIONS.get(command, {}), **COMMON}
    options["--seq"] = ["chebyshev", "chebyshev", "power", seq_file, seq_file, seq_file + ".x"]
    flags = [f for f in OPTIONS.get(command, {}) if f in ALWAYS]
    flags += rng.sample(sorted(options.keys() - ALWAYS), rng.randint(0, 3))
    rng.shuffle(flags)
    argv = [command, rng.choice(SPECS + JUNK[:3])] if command == "resolve" else [command]
    for flag in flags:
        argv += [flag] if options[flag] is None else [flag, rng.choice(options[flag])]
    if rng.random() < 0.05:
        argv.insert(rng.randint(1, len(argv)), rng.choice([*JUNK, "--help"]))
    return argv


def random_coefficient(rng):
    r = rng.random()
    if r < 0.6:
        return rng.randint(-3, 3)
    if r < 0.95:
        exponents = ["0", "1", "-1", "2", "-4", "9", "x"]
        return {rng.choice(exponents): rng.randint(-3, 3) for _ in range(rng.randint(0, 2))}
    return rng.choice([10**30, 1.5, True, None, "1", [1]])


def random_sequence_file(rng) -> str:
    """The text of a sequence file: mostly JSON of the accepted shapes,
    entry k mostly monic of degree k, with bad entries mixed in, and now
    and then not JSON or repeating a key."""

    def poly(degree: int):
        r = rng.random()
        if r < 0.6:
            return [random_coefficient(rng) for _ in range(degree)] + [1]
        if r < 0.9:
            return [random_coefficient(rng) for _ in range(rng.randint(0, 4))]
        return random_coefficient(rng)

    r = rng.random()
    if r < 0.45:
        return json.dumps([poly(k) for k in range(rng.randint(0, 6))])
    if r < 0.9:
        keys = [rng.choice(["0", "1", "1", "2", "2", "3", "01", "-1", "x"]) for _ in range(4)]
        polys = {k: poly(int(k) if k.isdigit() else 1) for k in keys[: rng.randint(0, 4)]}
        data = {"polys": polys}
        if rng.random() < 0.5:
            data["base"] = rng.choice(["chebyshev", "power", "other", 3])
        if rng.random() < 0.1:
            data["x"] = 1
        return json.dumps(data)
    return rng.choice([*BAD_JSON, "7"])


def negative_sequence_file(rng) -> str:
    """The text of a sequence file that loads, with entries up to degree
    10 (so audit --max-n 5 finds every product's terms) and a negative
    constant term in one of the entries 1..5, which the report commands
    refuse to call positive."""
    entries = [[1]] + [[rng.randint(-3, 3) for _ in range(k)] + [1] for k in range(1, 11)]
    entries[rng.randint(1, 5)][0] = -rng.randint(1, 3)
    return json.dumps(entries)


def failing_command_line(rng, seq_file: str) -> list[str]:
    """A report command drawn to fail: audit or minimality on a file from
    negative_sequence_file, or arc-constraints on it or on chebyshev,
    whose T_n has a negative power-basis coefficient from n = 2 on."""
    command = rng.choice(["arc-constraints", "minimality", "audit"])
    seq = rng.choice(["chebyshev", seq_file]) if command == "arc-constraints" else seq_file
    size = "--max-n" if command == "audit" else "--n"
    argv = [command, "--seq", seq, size, str(rng.randint(2, 5))]
    argv += ["--format", rng.choice(["text", "json", "tsv"])]
    return argv + ["--q1"] if rng.random() < 0.3 else argv


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    """_parser.main(argv) with its exit code, stdout and stderr; argparse's
    exits (--help, usage errors) count as the exit they carry."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _parser.main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code)
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestExitCodeFuzz:
    def test_every_exit_is_zero_one_or_two(self, rng, tmp_path):
        # Any other exception escapes and fails the test; in the process
        # entry it would exit 1 with a traceback.
        # The last 100 cases are drawn to fail, so exit 1 after a report
        # is sampled often, not only by the few failures random lines hit.
        seq = tmp_path / "seq.json"
        codes = collections.Counter()
        draws = [(random_sequence_file, random_command_line)] * 300
        draws += [(negative_sequence_file, failing_command_line)] * 100
        for sequence_file, command_line in draws:
            seq.write_text(sequence_file(rng))
            argv = command_line(rng, str(seq))
            code, out, err = run_in_process(argv)
            case = (argv, seq.read_text(), code)
            assert code in (0, 1, 2), case
            assert "Traceback" not in err, case
            assert code != 1 or out.strip(), case  # exit 1 only after a report
            assert code != 2 or out == "", case  # a refusal prints no report
            codes[code] += 1
        assert set(codes) == {0, 1, 2}, codes  # the net reaches every exit
        assert codes[1] >= 30, codes
