"""The benchmark counts a planted fault as a failed request.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import workloads  # noqa: E402
from workloads import Runner, expect_exact, run_process  # noqa: E402


def _classify(values):
    import charid

    return charid.classify(charid.TorusSamples(values.shape, values))


def test_correct_request_is_not_a_failure():
    runner = Runner()
    values = inputs.character((3,), (64,))
    runner.request("torus", lambda: _classify(values), workloads._report_check(expect_exact((3,)), values))
    assert runner.failures == [] and len(runner.latencies) == 1


def test_planted_wrong_frequency_fails():
    runner = Runner()
    values = inputs.character((4,), (64,))
    runner.request("torus", lambda: _classify(values), workloads._report_check(expect_exact((3,))))
    assert [kind for kind, _ in runner.failures] == ["wrong"]


def test_planted_wrong_verdict_fails():
    runner = Runner()
    values = inputs.random_phases((64,), np.random.default_rng(0))
    runner.request("torus", lambda: _classify(values), workloads._report_check(expect_exact((3,))))
    assert [kind for kind, _ in runner.failures] == ["wrong"]


def test_request_that_raises_fails():
    runner = Runner()
    runner.request("torus", lambda: _classify(np.ones((3, 3, 0))), lambda out: None)
    assert [kind for kind, _ in runner.failures] == ["error"]


def _cli(tmp_path, code: str, check):
    runner = Runner()
    cmd = [sys.executable, "-c", code]
    runner.request("cli", lambda: run_process(cmd, {}, tmp_path), check)
    return runner.failures


REPORT = json.dumps({"verdict": "ExactCharacter", "frequency": [3]})


def test_cli_report_passes(tmp_path):
    check = workloads.report_check(expect_exact((3,)), {}, "f")
    assert _cli(tmp_path, f"print({REPORT!r})", check) == []


def test_cli_wrong_frequency_fails(tmp_path):
    check = workloads.report_check(expect_exact((4,)), {}, "f")
    assert [k for k, _ in _cli(tmp_path, f"print({REPORT!r})", check)] == ["wrong"]


def test_cli_nonzero_exit_fails(tmp_path):
    check = workloads.report_check(expect_exact((3,)), {}, "f")
    code = f"import sys; print({REPORT!r}); sys.exit(3)"
    failures = _cli(tmp_path, code, check)
    assert [k for k, _ in failures] == ["error"] and "exit code 3" in failures[0][1]


def test_cli_traceback_on_stderr_fails(tmp_path):
    check = workloads.report_check(expect_exact((3,)), {}, "f")
    code = f"import sys; print({REPORT!r}); sys.stderr.write('Traceback (most recent call last):\\n')"
    failures = _cli(tmp_path, code, check)
    assert [k for k, _ in failures] == ["error"] and "Traceback" in failures[0][1]


def test_cli_uncaught_exception_fails(tmp_path):
    check = workloads.report_check(expect_exact((3,)), {}, "f")
    assert [k for k, _ in _cli(tmp_path, "raise ValueError('boom')", check)] == ["error"]


def test_cli_changed_stdout_on_same_file_fails(tmp_path):
    outputs = {}
    first = workloads.report_check(expect_exact((3,)), outputs, "f")
    assert _cli(tmp_path, f"print({REPORT!r})", first) == []
    again = workloads.report_check(expect_exact((3,)), outputs, "f")
    assert [k for k, _ in _cli(tmp_path, f"print({REPORT!r}, end=' \\n')", again)] == ["wrong"]


def test_generated_fixture_off_the_exact_values_fails(tmp_path):
    own = inputs.character((3,), (64,))
    path = tmp_path / "f.csv"
    planted = own.copy()
    planted[5] += 2e-15
    inputs.write_csv(path, planted)
    runner = Runner()
    cmd = [sys.executable, "-c", "pass"]
    runner.request("cli", lambda: run_process(cmd, {}, tmp_path),
                   workloads.fixture_check(path, own, 0.0))
    assert [k for k, _ in runner.failures] == ["wrong"]
