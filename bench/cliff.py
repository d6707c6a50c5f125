"""One-off measurement of the latency cliff at ALL_PAIRS_CAP.

    python3 bench/cliff.py

Z_65536 is the largest group checked over all pairs, Z_65537 the smallest
checked on sampled pairs.  For each, this times ``is_homomorphism_exhaustive``
in process and ``charid analyze`` end to end on a character table written by
the benchmark's own writer.  No workload runs it: the all-pairs side alone
takes several seconds.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC)]

import inputs  # noqa: E402


def main() -> None:
    import charid

    env = dict(os.environ, PYTHONPATH=str(SRC))
    print(f"ALL_PAIRS_CAP = {charid.finite.ALL_PAIRS_CAP}")
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for n in (charid.finite.ALL_PAIRS_CAP, charid.finite.ALL_PAIRS_CAP + 1):
            values = inputs.character((5,), (n,))
            table = charid.CharacterTable(charid.FiniteGroupSpec((n,)), values)
            t0 = time.perf_counter()
            passes, defect = charid.is_homomorphism_exhaustive(table)
            check = time.perf_counter() - t0
            path = Path(tmp) / f"z{n}.json"
            inputs.write_json(path, "finite", values)
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "charid.cli", "analyze", "--input", str(path),
                            "--mode", "finite"], env=env, check=True, stdout=subprocess.DEVNULL)
            wall = time.perf_counter() - t0
            print(f"Z_{n}: is_homomorphism_exhaustive {check:.3f} s (passes={passes}), "
                  f"charid analyze {wall:.3f} s")


if __name__ == "__main__":
    main()
