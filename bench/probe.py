"""One fresh start of a workload, timed from outside for ``setup_s``.

    python3 bench/probe.py lib-torus|lib-finite
    python3 bench/probe.py cli-files WORKDIR

It imports the package (``charid.cli`` for cli-files) and makes the first
call of each public function the workload uses, on its smallest input; for
cli-files, ``main`` on the workload's 64-sample files, one per mode, and one
small ``generate``.  It imports nothing of the benchmark.
"""

import sys


def main() -> None:
    workload = sys.argv[1]
    if workload == "cli-files":
        import charid.cli

        work = sys.argv[2]
        for name, mode in (("torus-64", "torus"), ("line-64", "line"), ("finite-64", "finite")):
            charid.cli.main(["analyze", "--input", f"{work}/{name}.json", "--mode", mode])
        charid.cli.main(["generate", "--mode", "torus", "--freq", "1", "--grid", "64",
                         "--output", f"{work}/probe.json"])
        return
    import charid
    import numpy as np

    if workload == "lib-torus":
        base = charid.TorusSamples((64,), np.ones(64))
        charid.classify(base)
        charid.classify(charid.LineSamples(base, np.ones(1)))
    else:
        group = charid.FiniteGroupSpec((1,))
        table = charid.CharacterTable(group, np.ones(1))
        charid.is_homomorphism_exhaustive(table)
        charid.identify_finite(table)
        charid.enumerate_characters(group)


if __name__ == "__main__":
    main()
