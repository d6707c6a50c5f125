"""Record every ``is_homomorphism_exhaustive`` result, to compare two trees bit for bit.

    PYTHONPATH=src python tests/record_exhaustive.py OUT

wraps ``charid.is_homomorphism_exhaustive`` wherever charid holds it, then
runs tests/test_finite.py and tests/test_acceptance.py in this process, and
two lib-finite rounds of ``bench/workloads.py`` on each of seeds 101 and 102.
OUT gets one line per call, sorted: the group orders, a hash of the table's
bytes, ``passes`` and ``worst.hex()`` (or the exception the call raised).
Hypothesis runs derandomized, so two trees draw the same tables, and two
recordings compare with ``cmp``.  The exit code is 1 when a test or a
lib-finite request fails.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import charid
import charid.cli  # noqa: F401 - so that its name for the check is wrapped too
from charid import finite

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (101, 102)


def _key(t) -> str:
    data = np.ascontiguousarray(t.values).tobytes()
    return f"{t.group.orders} {hashlib.sha256(data).hexdigest()[:16]}"


def _wrap(lines: list):
    """Replace the check by a recording one in every charid module."""
    real = finite.is_homomorphism_exhaustive

    def recorded(t, *args, **kwargs):
        try:
            passes, worst = result = real(t, *args, **kwargs)
        except Exception as err:
            lines.append(f"{_key(t)} raises {type(err).__name__}")
            raise
        lines.append(f"{_key(t)} {passes} {float(worst).hex()}")
        return result

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "charid" and getattr(module, "is_homomorphism_exhaustive", None) is real:
            module.is_homomorphism_exhaustive = recorded


def _lib_finite() -> int:
    """The failed requests of two lib-finite rounds on each seed."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    failed = 0
    for seed in SEEDS:
        runner = workloads.Runner()
        workloads.lib_finite(runner, workloads.library_api(), rounds=2, seed=seed)
        for kind, message in runner.failures:
            print(f"lib-finite seed {seed}: {kind}: {message}", file=sys.stderr)
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
    tests = [str(ROOT / "tests" / name) for name in ("test_finite.py", "test_acceptance.py")]
    code = pytest.main(["-q", "-p", "no:cacheprovider", *tests])
    failed = _lib_finite()
    Path(argv[0]).write_text("".join(line + "\n" for line in sorted(lines)))
    print(f"{len(lines)} calls recorded in {argv[0]}")
    return 1 if code or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
