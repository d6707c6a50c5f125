"""Record every finite check and every report, to compare two trees bit for bit.

    PYTHONPATH=src python tests/record_exhaustive.py OUT

wraps ``is_homomorphism_exhaustive``, ``classify`` and ``charid.cli._finite_report``
wherever charid holds them, then runs tests/test_finite.py,
tests/test_acceptance.py, tests/test_identify.py and tests/test_cli.py in this
process, and two lib-finite and two lib-torus rounds of ``bench/workloads.py``
on each of seeds 101 and 102.  OUT gets one line per call, sorted.  Each line
names the call and its input: the input's type, shape and a hash of its
values' bytes (the endpoints' too, for line samples).  A check's line goes on
with ``passes`` and ``worst.hex()``.  A report's line goes on with the
verdict, the frequency, ``hom_residual.hex()``, ``spectral_peak.hex()``, the
peaks with hex magnitudes and beta in hex.  A call that raises records the
exception's type instead.  Hypothesis runs derandomized, so two trees draw the
same inputs, and two recordings compare with ``cmp``.  The exit code is 1 when
a test or a benchmark request fails.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import charid
import charid.cli

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (101, 102)
TESTS = ("test_finite.py", "test_acceptance.py", "test_identify.py", "test_cli.py")


def _key(obj) -> str:
    if isinstance(obj, charid.LineSamples):
        arrays = (obj.base.values, obj.endpoint_values)
    else:
        arrays = (getattr(obj, "values", obj),)
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return f"{type(obj).__name__} {np.shape(arrays[0])} {digest.hexdigest()[:16]}"


def _hex(x) -> str:
    """``x`` with every float in hex, so that equal text means equal bits."""
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(map(_hex, x)) + ")"
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return str(x)


def _check_line(t, result) -> str:
    passes, worst = result
    return f"check {_key(t)} {passes} {_hex(worst)}"


def _report_line(obj, rep) -> str:
    fields = (rep.frequency, rep.hom_residual, rep.spectral_peak, rep.peaks, rep.beta)
    return f"report {_key(obj)} {rep.verdict} " + " ".join(map(_hex, fields))


def _recording(real, kind: str, line, lines: list):
    """``real``, appending ``line(input, result)`` to ``lines`` on each call."""

    def recorded(obj, *args, **kwargs):
        try:
            result = real(obj, *args, **kwargs)
        except Exception as err:
            lines.append(f"{kind} {_key(obj)} raises {type(err).__name__}")
            raise
        lines.append(line(obj, result))
        return result

    return recorded


def _wrap(lines: list) -> None:
    """Replace each recorded function by a recording one in every charid module."""
    targets = (
        ("is_homomorphism_exhaustive", charid.is_homomorphism_exhaustive, "check", _check_line),
        ("classify", charid.classify, "report", _report_line),
        ("_finite_report", charid.cli._finite_report, "report", _report_line),
    )
    for name, real, kind, line in targets:
        recorded = _recording(real, kind, line, lines)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "charid" and getattr(module, name, None) is real:
                setattr(module, name, recorded)


def _bench_rounds() -> int:
    """The failed requests of two lib-finite and two lib-torus rounds on each seed."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    failed = 0
    for workload in (workloads.lib_finite, workloads.lib_torus):
        for seed in SEEDS:
            runner = workloads.Runner()
            workload(runner, workloads.library_api(), rounds=2, seed=seed)
            for kind, message in runner.failures:
                print(f"{workload.__name__} seed {seed}: {kind}: {message}", file=sys.stderr)
            failed += len(runner.failures)
    return failed


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    lines: list[str] = []
    _wrap(lines)
    settings.register_profile("record", derandomize=True, database=None)
    settings.load_profile("record")
    code = pytest.main(["-q", "-p", "no:cacheprovider", *(str(ROOT / "tests" / t) for t in TESTS)])
    failed = _bench_rounds()
    Path(argv[0]).write_text("".join(line + "\n" for line in sorted(lines)))
    print(f"{len(lines)} calls recorded in {argv[0]}")
    return 1 if code or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
