"""Record every finite check, identification and enumeration, report,
translation residual and parse, to compare two trees bit for bit.

    PYTHONPATH=src python tests/record_exhaustive.py OUT

wraps ``is_homomorphism_exhaustive``, ``identify_finite``,
``enumerate_characters``, ``classify``, ``charid.cli._finite_report``,
``translation_identity_residual``, ``charid.cli.parse_input`` and
``validate`` wherever charid holds them, then
runs tests/test_finite.py, tests/test_acceptance.py, tests/test_identify.py,
tests/test_fourier.py, tests/test_cli.py, tests/test_cli_golden.py and
tests/test_samples.py in this process, two lib-finite and two lib-torus rounds
of ``bench/workloads.py`` on each of seeds 101 and 102, parses every analyze
input of one cli-files round (seed 101), written into a temporary directory,
checks and walks the tables of MULTI_BLOCK, and checks those of SAMPLED on
their sampled pairs.  OUT gets one line per call, sorted.  Each line names
the call and its input: the input's type, shape and a hash of its values'
bytes (the endpoints' too, for line samples).  A check's line goes on with
``passes`` and ``worst.hex()``, an identification's with the index found or
None, a residual's with k, the offset and the residual in hex, a walk's, one
per window, with the walk's worst defect in hex, and a sampled check's with
its seed, ``passes`` and ``worst.hex()``.  An enumeration's line names the
group by its orders and goes on with the table count and one hash over every
table's shape and bytes.  A report's line goes on with the
verdict, the frequency, ``hom_residual.hex()``,
``spectral_peak.hex()``, the peaks with hex magnitudes and beta in hex.  A
validate line goes on with each violation's ``where``, index and deviation in
hex; a call made inside another call of the same function is not recorded, so a
function that recurses records as one that loops.  A parse line starts with a
hash of the file's bytes and the requested mode and endpoint, and ends with the
parsed input or, for a refused one, the exit code and message, with the path
written as ``{path}``.  A call that raises records the exception's type
instead.  Hypothesis runs derandomized, so two trees draw the same inputs, and
two recordings compare with ``cmp``.  The exit code is 1 when a test or a
benchmark request fails.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
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
#: with one entry negated and random phases are checked on the sampled
#: route at each of SAMPLED_SEEDS.
SAMPLED = ((65537,), (256, 257), (5, 7, 11, 13, 17), (3,) * 11, (2,) * 17)
SAMPLED_SEEDS = (0, 7)
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
    parse = charid.cli.parse_input
    wrapped.append(("parse_input", parse, _parse_recording(parse, lines)))
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
    """Check the tables of SAMPLED on their sampled pairs at each seed."""
    for orders in SAMPLED:
        g, tables = _tables(orders)
        for values in tables:
            for seed in SAMPLED_SEEDS:
                t = charid.CharacterTable(g, values)
                passes, worst = charid.is_homomorphism_exhaustive(t, seed)
                lines.append(f"sampled {_key(values)} {seed} {passes} {_hex(worst)}")


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
    _cli_round()
    _multi_block_walks(lines)
    _sampled_checks(lines)
    Path(argv[0]).write_text("".join(line + "\n" for line in sorted(lines)))
    print(f"{len(lines)} calls recorded in {argv[0]}")
    return 1 if code or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
