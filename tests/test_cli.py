"""Command-line surface: exit codes, formats, determinism."""

import ast
import concurrent.futures
import json
import multiprocessing.process
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skeincalc
from skeincalc import cli, diagram
from skeincalc.cli import main

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

    def test_jobs_below_one_is_two(self, capsys):
        code, _, err = run_cli(capsys, "verify-theta", "--n", "1", "--jobs", "0")
        assert code == 2
        assert "--jobs must be >= 1" in err

    def test_unknown_diagram_is_two(self, capsys):
        code, _, err = run_cli(capsys, "resolve", "torus:1")
        assert code == 2

    @pytest.mark.parametrize("spec", ["theta:200000", "xkyn:300,300", "zkn:5,5"])
    def test_resolve_refuses_over_cap_before_building(self, capsys, monkeypatch, spec):
        def refuse(*args):
            raise AssertionError("a diagram over the cap was built")

        for name in ("build_theta_over_cores", "build_xk_yn", "build_zkn"):
            monkeypatch.setattr(diagram, name, refuse)
        code, _, err = run_cli(capsys, "resolve", spec)
        assert code == 2
        assert "refusing to expand" in err

    def test_resolve_refuses_large_core_before_building(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a core stack over the limit was built")

        monkeypatch.setattr(diagram, "build_core_stack", refuse)
        code, _, err = run_cli(capsys, "resolve", f"core:{cli.MAX_CORE_LOOPS + 1}")
        assert code == 2
        assert f"K <= {cli.MAX_CORE_LOOPS}" in err

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

    def test_diagram_check_over_cap_refuses_before_building(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a grid over the cap was built")

        for name in ("build_xk_yn", "build_zkn"):
            monkeypatch.setattr(diagram, name, refuse)
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

    def test_unknown_report_type_raises(self):
        with pytest.raises(TypeError, match="no renderer for dict"):
            cli.emit_report({}, "json")

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


class TestDeterminism:
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


def run_python(code: str) -> str:
    """The stdout of code run in a fresh interpreter that imports this skeincalc."""
    src = str(Path(skeincalc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout


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


RESOLVER = {"skeincalc.diagram", "skeincalc.skein"}


class TestStartup:
    def test_import_loads_no_dataclasses(self):
        # dataclasses pulls in inspect and ast: tens of milliseconds on every
        # command, measured with python -X importtime.  Every source line is
        # compiled on every command too, so the test-only oracles stay out.
        code = (
            "import skeincalc.cli, skeincalc.skein, sys; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)), "
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
        "argv",
        [
            ["--help"],
            ["audit", "--max-n", "3"],
            ["minimality", "--n", "3"],
            ["arc-constraints", "--n", "3"],
        ],
        ids=["help", "audit", "minimality", "arc-constraints"],
    )
    def test_report_commands_skip_the_resolver(self, argv):
        loaded = set(loaded_by_command(*argv))
        assert "skeincalc.positivity" in loaded
        assert not RESOLVER & loaded

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
