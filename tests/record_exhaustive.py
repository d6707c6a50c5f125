"""Record every finite check, identification and enumeration, report,
translation residual and parse, to compare two trees bit for bit.

    PYTHONPATH=src python tests/record_exhaustive.py OUT [PYTEST_ARGS...]
    PYTHONPATH=src python tests/record_exhaustive.py --base DIR OUT [PYTEST_ARGS...]

wraps ``is_homomorphism_exhaustive``, ``identify_finite``,
``enumerate_characters``, ``classify``, ``charid.cli._finite_report``,
``translation_identity_residual``, ``charid.cli.parse_input``,
``charid.cli.generate`` and ``validate`` wherever charid holds them, then
runs tests/test_finite.py, tests/test_acceptance.py, tests/test_identify.py,
tests/test_fourier.py, tests/test_cli.py, tests/test_cli_golden.py and
tests/test_samples.py in this process, two lib-finite and two lib-torus rounds
of ``bench/workloads.py`` on each of seeds 101 and 102, parses every analyze
input of one cli-files round (seed 101), written into a temporary directory,
parses a CSV table of CSV_ROWS rows and its copies with each fault of
CSV_FAULTS planted, checks and walks the tables of MULTI_BLOCK, checks those
of SAMPLED on their sampled pairs, checks those of CONSTANT and reports those
of BAND as torus samples and as finite tables.  OUT gets one line per call,
sorted.  Each line names the call and its input: the input's type,
shape and a hash of its values' bytes (the endpoints' too, for line
samples).  A check's line goes on with
``passes`` and ``worst.hex()``, an identification's with the index found or
None, a residual's with k, the offset and the residual in hex, a walk's, one
per window, with the walk's worst defect in hex, and a sampled check's with
``passes`` and ``worst.hex()``.  An enumeration's line names the
group by its orders and goes on with the table count and one hash over every
table's shape and bytes.  A report's line goes on with the
verdict, the frequency, ``hom_residual.hex()``,
``spectral_peak.hex()``, the peaks with hex magnitudes and beta in hex.  A
validate line goes on with each violation's ``where``, index and deviation in
hex; a call made inside another call of the same function is not recorded, so a
function that recurses records as one that loops.  A parse line starts with a
hash of the file's bytes and the requested mode and endpoint, and ends with the
parsed input or, for a refused one, the exit code and message, with the path
written as ``{path}``.  A generate line holds the arguments, the output by
its file name only, and a hash of the written file's bytes.  A constant
table's line goes on with ``passes`` and ``worst.hex()``.  A call that
raises records the exception's type instead.  Hypothesis runs derandomized,
so two trees draw the same inputs, and two recordings compare with ``cmp``.
Arguments after OUT go to ``pytest.main`` after the test files, so two trees
can deselect the same tests, say ones a change adds that the other tree
fails, with ``-k 'not name'`` or ``--deselect``.  The exit code is 1 when a
test or a benchmark request fails.

With ``--base DIR``, where DIR is a ``git worktree`` of another tree or a
copy of its ``src/``, DIR's ``src/`` is recorded into OUT.base and then this
tree's into OUT, each in a fresh child process that runs this file, so both
sides run this tree's tests and recorder with the same PYTEST_ARGS.  The two
children never run at the same time, so the acceptance gate's timed
criteria never share the host with a second recording.  It then prints each
side's line count per kind (a line's first word) and the number of lines
of each kind that one side has and the other lacks.  The exit code is 1
when a child fails or the two recordings differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import charid
import charid.cli

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (101, 102)
#: Groups of 3 to 11 factors, order-1 ones among them, whose all-pairs walk
#: makes its rolled copies box by box: a character, it with one entry
#: negated and random phases are checked and walked on each.
MULTI_BLOCK = ((16, 8, 8), (6, 5, 4, 3), (5, 1, 9, 1, 8), (3, 4, 3, 4, 3), (3,) * 6, (4,) * 5,
               (2, 3, 2, 3, 2, 3, 2), (2,) * 9, (2,) * 10, (2,) * 11)
#: Groups above ALL_PAIRS_CAP, from one factor to seventeen: a character, it
#: with one entry negated and random phases are checked on the sampled route.
SAMPLED = ((65537,), (256, 257), (5, 7, 11, 13, 17), (3,) * 11, (2,) * 17)
#: Constant tables, c at every entry, each checked at every value of
#: CONSTANT_VALUES: composite and prime longest axes, up to Z_65521.
CONSTANT = ((367,), (363,), (2, 367), (5, 7, 11), (65521,))
CONSTANT_VALUES = (1.0, -1.0, complex(0.9953287307855897, -0.09654386398289214))
#: Characters jittered by at most each of BAND_JITTER radians per entry, the
#: band whose worst defect lies between HOM_TOL and tau_exact: each is
#: classified as torus samples and reported as a finite table.
BAND = ((64,), (8, 8), (16384,), (128, 128))
BAND_JITTER = (1e-12, 1e-11, 1e-10, 3e-10)
#: Rows of the CSV tables: a torus character, signed zeros among its first
#: entries, shuffled and written with \r\n endings after a header.  One
#: table is clean; each other has the faults of one (index, row) of
#: CSV_FAULTS planted, as the property test on the CSV reader plants them:
#: row 10's index made a duplicate, past the end, negative or above 2^63, a
#: row of the wrong arity or not numeric put in the middle, or both.
CSV_ROWS = 1 << 17
CSV_FAULTS = ((5, None), (CSV_ROWS, None), (-1, None), (2**63 + 1, None),
              *((None, r) for r in ("1,0", "1,0,0,0", "x", ",,", "1,one,0", "0,1,0x1",
                                    "\u0661,1,0", "1_0,1,0", "1,1,\u0660")),
              (5, "1,0"))
TESTS = ("test_finite.py", "test_acceptance.py", "test_identify.py", "test_fourier.py",
         "test_cli.py", "test_cli_golden.py", "test_samples.py")


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


def _group_key(g) -> str:
    return f"FiniteGroupSpec {g.orders}"


def _enumerate_line(g, tables, *_) -> str:
    digest = hashlib.sha256()
    for t in tables:
        digest.update(str(t.values.shape).encode())
        digest.update(np.ascontiguousarray(t.values))
    return f"enumerate {_group_key(g)} {len(tables)} {digest.hexdigest()[:16]}"


def _check_line(t, result, *_) -> str:
    passes, worst = result
    return f"check {_key(t)} {passes} {_hex(worst)}"


def _identify_line(t, k, *_) -> str:
    return f"identify {_key(t)} {k}"


def _residual_line(s, residual, k, offset) -> str:
    return f"residual {_key(s)} {_hex(k)} {_hex(offset)} {_hex(residual)}"


def _report_line(obj, rep, *_) -> str:
    fields = (rep.frequency, rep.hom_residual, rep.spectral_peak, rep.peaks, rep.beta)
    return f"report {_key(obj)} {rep.verdict} " + " ".join(map(_hex, fields))


def _validate_line(s, violations, *_) -> str:
    return f"validate {_key(s)} " + " ".join(
        f"{v.where} {_hex(v.index)} {_hex(v.deviation)}" for v in violations
    )


def _file_hash(path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]
    except (OSError, ValueError):
        return "unreadable"


def _parse_recording(real, lines: list):
    """``parse_input``, appending one ``parse`` line to ``lines`` on each call."""

    def recorded(path, mode=None, endpoint=None):
        head = f"parse {_file_hash(path)} {mode} {_hex(endpoint)}"
        try:
            obj = real(path, mode, endpoint)
        except charid.cli.InputError as err:
            lines.append(f"{head} exit {err.code} {str(err).replace(str(path), '{path}')}")
            raise
        lines.append(f"{head} {_key(obj)}")
        return obj

    return recorded


def _generate_recording(real, lines: list):
    """``generate``, appending one ``generate`` line to ``lines`` on each call."""

    def recorded(mode, freqs, grid, output, noise=0.0, seed=0):
        head = f"generate {mode} {_hex(freqs)} {grid} {Path(output).name!r} {_hex(noise)} {seed}"
        try:
            real(mode, freqs, grid, output, noise=noise, seed=seed)
        except Exception as err:
            lines.append(f"{head} raises {type(err).__name__}")
            raise
        lines.append(f"{head} {_file_hash(output)}")

    return recorded


def _recording(real, kind: str, line, lines: list, key=_key):
    """``real``, appending ``line(input, result, *args)`` to ``lines`` on each
    call that no other call of ``real`` encloses, or the exception's type
    after ``key(input)`` on a call that raises."""
    depth = [0]

    def recorded(obj, *args, **kwargs):
        depth[0] += 1
        try:
            result = real(obj, *args, **kwargs)
        except Exception as err:
            if depth[0] == 1:
                lines.append(f"{kind} {key(obj)} raises {type(err).__name__}")
            raise
        finally:
            depth[0] -= 1
        if not depth[0]:
            lines.append(line(obj, result, *args, *kwargs.values()))
        return result

    return recorded


def _wrap(lines: list) -> None:
    """Replace each recorded function by a recording one in every charid module."""
    targets = (
        ("is_homomorphism_exhaustive", charid.is_homomorphism_exhaustive, "check", _check_line),
        ("identify_finite", charid.identify_finite, "identify", _identify_line),
        ("enumerate_characters", charid.enumerate_characters, "enumerate", _enumerate_line,
         _group_key),
        ("classify", charid.classify, "report", _report_line),
        ("_finite_report", charid.cli._finite_report, "report", _report_line),
        ("translation_identity_residual", charid.translation_identity_residual, "residual",
         _residual_line),
        ("validate", charid.validate, "validate", _validate_line),
    )
    wrapped = [(name, real, _recording(real, kind, line, lines, *key))
               for name, real, kind, line, *key in targets]
    parse, generate = charid.cli.parse_input, charid.cli.generate
    wrapped.append(("parse_input", parse, _parse_recording(parse, lines)))
    wrapped.append(("generate", generate, _generate_recording(generate, lines)))
    for name, real, recorded in wrapped:
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "charid" and getattr(module, name, None) is real:
                setattr(module, name, recorded)


def _workloads():
    """``bench/workloads.py``, imported as it stands."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    return workloads


def _bench_rounds() -> int:
    """The failed requests of two lib-finite and two lib-torus rounds on each seed."""
    workloads = _workloads()
    failed = 0
    for workload in (workloads.lib_finite, workloads.lib_torus):
        for seed in SEEDS:
            runner = workloads.Runner()
            workload(runner, workloads.library_api(), rounds=2, seed=seed)
            for kind, message in runner.failures:
                print(f"{workload.__name__} seed {seed}: {kind}: {message}", file=sys.stderr)
            failed += len(runner.failures)
    return failed


def _cli_round() -> None:
    """Parse every analyze input of one cli-files round, in this process."""
    workloads = _workloads()
    with tempfile.TemporaryDirectory() as tmp:
        _, analysed = workloads.cli_plan(np.random.default_rng(SEEDS[0]), Path(tmp))
        for argv in analysed:
            args = charid.cli.build_parser().parse_args(argv)
            charid.cli.parse_input(args.input, args.mode, charid.cli._parse_endpoint(args.endpoint))


def _csv_reads() -> None:
    """Parse the clean CSV table and each faulty copy once, as torus samples,
    in this process."""
    values = charid.sample_character_torus([5], [CSV_ROWS]).values
    fields = [[repr(v.real), repr(v.imag)] for v in values.tolist()]
    fields[:4] = [["1", "-0.0"], ["-0.0", "1"], ["-1", "0.0"], ["0.0", "-1.0"]]
    order = np.random.default_rng(CSV_ROWS).permutation(CSV_ROWS).tolist()
    clean = [f"{i},{fields[i][0]},{fields[i][1]}" for i in order]
    with tempfile.TemporaryDirectory() as tmp:
        for n, (index, row) in enumerate(((None, None), *CSV_FAULTS)):
            rows = list(clean)
            if index is not None:
                rows[10] = f"{index},{rows[10].split(',', 1)[1]}"
            if row is not None:
                rows.insert(CSV_ROWS // 2, row)
            path = Path(tmp) / f"t{n}.csv"
            path.write_bytes("\r\n".join(["index,re,im", *rows, ""]).encode("utf-8"))
            with contextlib.suppress(charid.cli.InputError):
                charid.cli.parse_input(str(path), "torus")


def _tables(orders: tuple[int, ...]):
    """A character on ``orders``, it with one entry negated and random phases."""
    g = charid.FiniteGroupSpec(orders)
    chi = charid.character_table(g, tuple(min(1, n - 1) for n in orders))
    negated = chi.values.copy()
    negated.flat[chi.values.size // 3] *= -1
    rng = np.random.default_rng(g.size + len(orders))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=orders))
    return g, (chi.values, negated, phases)


def _multi_block_walks(lines: list) -> None:
    """Check and walk, on both windows, the tables of MULTI_BLOCK."""
    for orders in MULTI_BLOCK:
        g, tables = _tables(orders)
        for values in tables:
            charid.is_homomorphism_exhaustive(charid.CharacterTable(g, values))
            for full in (False, True):
                worst = charid.finite._worst_defect_all_pairs(values, full_window=full)
                lines.append(f"walk {_key(values)} {full} {_hex(worst)}")


def _sampled_checks(lines: list) -> None:
    """Check the tables of SAMPLED on their sampled pairs."""
    for orders in SAMPLED:
        g, tables = _tables(orders)
        for values in tables:
            passes, worst = charid.is_homomorphism_exhaustive(charid.CharacterTable(g, values))
            lines.append(f"sampled {_key(values)} {passes} {_hex(worst)}")


def _constant_checks(lines: list) -> None:
    """Check the tables of CONSTANT at each of CONSTANT_VALUES."""
    for orders in CONSTANT:
        g = charid.FiniteGroupSpec(orders)
        for c in CONSTANT_VALUES:
            values = np.full(orders, c, dtype=np.complex128)
            passes, worst = charid.is_homomorphism_exhaustive(charid.CharacterTable(g, values))
            lines.append(f"constant {_key(values)} {passes} {_hex(worst)}")


def _band_reports() -> None:
    """Report the tables of BAND at each of BAND_JITTER on both domains."""
    for orders in BAND:
        g, (chi, *_) = _tables(orders)
        for eps in BAND_JITTER:
            rng = np.random.default_rng(g.size)
            values = chi * np.exp(1j * rng.uniform(-eps, eps, orders))
            charid.classify(charid.TorusSamples(orders, values))
            charid.cli._finite_report(charid.CharacterTable(g, values), charid.IdentifyConfig())


def _kinds(lines) -> Counter:
    return Counter(line.split(" ", 1)[0] for line in lines)


def compare(base: str, out: str, pytest_args: list[str]) -> int:
    """Record ``base``'s src/ into OUT.base, then this tree's into OUT, one
    child after the other, and print the line counts per kind of each side
    and of the lines that differ."""
    base_src = Path(base) / "src" if (Path(base) / "src" / "charid").is_dir() else Path(base)
    sides = ((base_src, Path(f"{out}.base")), (ROOT / "src", Path(out)))
    failed = False
    for src, path in sides:
        path.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src.resolve()), os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, __file__, str(path), *pytest_args], env=env)
        failed |= child.returncode != 0
    texts = [path.read_text() if path.exists() else None for _, path in sides]
    recorded = [Counter((text or "").splitlines()) for text in texts]
    base_kinds, kinds = (_kinds(r.elements()) for r in recorded)
    differing = _kinds((recorded[0] - recorded[1]).elements())
    differing.update(_kinds((recorded[1] - recorded[0]).elements()))
    print(f"{'kind':<10} {'base':>9} {'this':>9} {'differing':>9}")
    for kind in sorted(base_kinds | kinds):
        print(f"{kind:<10} {base_kinds[kind]:>9} {kinds[kind]:>9} {differing[kind]:>9}")
    same = None not in texts and texts[0] == texts[1]
    print(f"{sides[0][1]} and {sides[1][1]} are {'identical' if same else 'different'}")
    return 1 if failed or not same else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--base"] and len(argv) >= 3:
        return compare(argv[1], argv[2], argv[3:])
    if not argv or argv[0] == "--base":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 1
    lines: list[str] = []
    _wrap(lines)
    settings.register_profile("record", derandomize=True, database=None)
    settings.load_profile("record")
    tests = (str(ROOT / "tests" / t) for t in TESTS)
    code = pytest.main(["-q", "-p", "no:cacheprovider", *tests, *argv[1:]])
    failed = _bench_rounds()
    _cli_round()
    _csv_reads()
    _multi_block_walks(lines)
    _sampled_checks(lines)
    _constant_checks(lines)
    _band_reports()
    Path(argv[0]).write_text("".join(line + "\n" for line in sorted(lines)))
    print(f"{len(lines)} calls of charid in {Path(charid.__file__).parent} recorded in {argv[0]}")
    return 1 if code or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
