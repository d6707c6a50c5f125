"""Batch front door: ingest sampled functions, classify, emit reports.

One request per invocation.  Input is a JSON document (any mode, any
dimension) or a CSV table (1-D only); the report goes to standard output as
JSON or a fixed text template, diagnostics to standard error.  Exit codes
are part of the contract: 0 success (any verdict), 1 usage, 2 a file or
output that cannot be read or written, or too little memory, 3 malformed
syntax or shape, 4 invariant violation (non-unit samples).

Every floating value is serialized with 17 significant digits, so a report
parsed back from disk reproduces the in-memory numbers exactly and repeated
runs of the same request are byte-identical.

The ``generate`` subcommand writes character fixtures in the same input
formats, optionally with seeded uniform phase jitter, so round trips
(generate, parse, analyze) exercise the full pipeline from files.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import gc
import itertools
import json
import math
import os
import re
import sys
from typing import Callable

import numpy as np

from . import __version__
from .circle import UNIT_TOL, unit_deviation
from .finite import (
    CharacterTable,
    FiniteGroupSpec,
    character_table,
    identify_finite,
    is_homomorphism_exhaustive,
)
from .fourier import _dft, _peaks
from .identify import CharacterReport, IdentifyConfig, _report, classify
from .samples import (
    BLOCK_PAIRS,
    LineSamples,
    TorusSamples,
    _as_grid,
    sample_character_line,
    sample_character_torus,
)

MODES = ("torus", "line", "finite")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISSING_FILE = 2
EXIT_MALFORMED = 3
EXIT_INVARIANT = 4

_DEFAULTS = IdentifyConfig()

#: Most samples ``generate`` writes, 64 MiB of complex values, larger grids refused
#: before any allocation.  Written a block at a time, a fresh process peaks at 109 MB
#: at the cap, 125 as CSV (714 to analyze), 195 jittered (Python 3.11, numpy 2.4, x86-64).
GENERATE_CAP = 1 << 22

#: Longest error message printed after "charid: error: ".
ERROR_CHARS = 200


class InputError(Exception):
    """A diagnosable input problem carrying its contractual exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# deterministic JSON: 17 significant digits, fixed key order, no whitespace

def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite value in serialized output")
    return format(x, ".17g")


def _write_rows(fh, row: str, sep: str, *columns) -> None:
    """Write to ``fh`` the rows of ``columns`` through the %-template ``row``,
    joined by ``sep``, in one format operation per BLOCK_PAIRS rows (%.17g
    writes a float as :func:`_fmt_float` does); a non-finite value raises
    ValueError before its block is written."""
    for lo in range(0, len(columns[0]), BLOCK_PAIRS):
        table = np.column_stack([c[lo : lo + BLOCK_PAIRS] for c in columns])
        if not np.isfinite(table).all():
            raise ValueError("non-finite value in serialized output")
        text = sep.join([row] * len(table)) % tuple(table.ravel().tolist())
        fh.write(sep + text if lo else text)


def _to_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_to_json(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_text(report: dict) -> str:
    lines = []
    for key, value in report.items():
        if key == "peaks":
            lines.append("peaks:")
            for entry in value:
                lines.append(f"  {_to_json(entry[0])}: {_to_json(entry[1])}")
        else:
            lines.append(f"{key}: {_to_json(value)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parsing

def _ascii_number(kind: type) -> Callable[[str], int | float]:
    """``kind`` (int or float) of ASCII text without "_" only: int() and
    float() also read Unicode digits and "1_0", which JSON does not."""
    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        return kind(text)
    parse.__name__ = kind.__name__  # argparse names the type in its error line
    return parse


_int, _float = _ascii_number(int), _ascii_number(float)


def _load_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise InputError(EXIT_MISSING_FILE, f"no such file: {path}") from None
    except UnicodeDecodeError:
        raise InputError(EXIT_MALFORMED, f"{path} is not valid utf-8 text") from None
    except (OSError, ValueError) as err:  # ValueError: a NUL byte in the path
        raise InputError(EXIT_MISSING_FILE, f"cannot read {path}: {err}") from None


def _pairs_to_complex(field, count: int, what: str) -> np.ndarray:
    """Decode a JSON array of [re, im] pairs of the expected length; numpy
    must read it as integers or floats, so strings, booleans, nulls and
    integers that do not fit in 64 bits are refused rather than cast.  A
    boolean among numbers, which numpy reads as 1 or 0, is refused too."""
    if not isinstance(field, list):
        raise InputError(EXIT_MALFORMED, f"{what} must be an array of [re, im] pairs")
    if len(field) != count:
        raise InputError(
            EXIT_MALFORMED, f"{what} has {len(field)} entries, expected {count}"
        )
    not_numbers = InputError(EXIT_MALFORMED, f"{what} must be an array of [re, im] number pairs")
    try:
        arr = np.array(field)
    except ValueError:  # ragged nesting
        raise not_numbers from None
    if arr.dtype.kind not in "iuf":
        raise not_numbers
    if arr.shape != (count, 2):
        raise InputError(EXIT_MALFORMED, f"{what} entries must be [re, im] pairs")
    if bool in set(map(type, itertools.chain.from_iterable(field))):
        raise not_numbers
    # 1j * inf is nan+infj, with a warning; the unit check reports that value
    with np.errstate(invalid="ignore"):
        return arr[:, 0] + 1j * arr[:, 1]


def _check_unit(values: np.ndarray, what: str) -> None:
    dev = unit_deviation(values)
    bad = ~(dev <= UNIT_TOL)  # NaN is bad too
    if count := np.count_nonzero(bad):
        idx = tuple(int(i) for i in np.unravel_index(bad.argmax(), bad.shape))
        raise InputError(
            EXIT_INVARIANT,
            f"{what} violate unit modulus at {count} point(s); first at index "
            f"{idx} with deviation {float(dev[idx]):.3g}",
        )


def _build(
    mode: str,
    grid: tuple[int, ...],
    values: Callable[[], np.ndarray],
    endpoints: Callable[[], np.ndarray],
    ep_name: str,
):
    """Construct the container ``mode`` names and check its unit invariant.

    ``values()`` and ``endpoints()`` give the samples and the line-mode
    endpoint values; each is called only once what comes before it is
    checked, so a bad grid is reported before malformed values, and those
    before missing or malformed endpoints.  Shape errors come before unit
    violations, and the samples' violations before those of the endpoints
    (named ``ep_name``).
    """
    try:
        if mode == "finite":
            obj = CharacterTable(FiniteGroupSpec(grid), values())
        else:
            obj = TorusSamples(_as_grid(grid), values())
            if mode == "line":
                obj = LineSamples(obj, endpoints())
    except ValueError as err:
        raise InputError(EXIT_MALFORMED, str(err)) from None
    arrays = (obj.base.values, obj.endpoint_values) if mode == "line" else (obj.values,)
    for what, arr in zip(("values", ep_name), arrays):
        _check_unit(arr, what)
    return obj


def _parse_json_input(text: str, mode: str | None):
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, ValueError, RecursionError):
        raise InputError(EXIT_MALFORMED, "input is not valid JSON") from None
    del text  # decoded: only the parsed document is needed now
    if not isinstance(data, dict):
        raise InputError(EXIT_MALFORMED, "top level must be a JSON object")

    declared = data.get("mode")
    if declared not in MODES:
        raise InputError(EXIT_MALFORMED, f"mode must be one of {MODES}, got {declared!r}")
    if mode is not None and declared != mode:
        raise InputError(
            EXIT_MALFORMED, f"file declares mode {declared!r} but {mode!r} was requested"
        )

    grid = data.get("grid")
    if not isinstance(grid, list) or not grid or any(
        isinstance(n, bool) or not isinstance(n, int) for n in grid
    ):
        raise InputError(EXIT_MALFORMED, "grid must be a non-empty array of integers")
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim != len(grid):
        raise InputError(EXIT_MALFORMED, f"dim must equal len(grid) = {len(grid)}")

    return _build(
        declared,
        tuple(grid),
        lambda: _pairs_to_complex(data.get("values"), math.prod(grid), "values"),
        lambda: _pairs_to_complex(data.get("endpoint_values"), dim, "endpoint_values"),
        "endpoint_values",
    )


def _parse_csv_input(text: str, mode: str | None, endpoint: complex | None):
    rows = [r for line in text.splitlines() if (r := line.strip())]
    del text  # the rows hold what is left of it
    if rows and rows[0].lower().replace(" ", "").startswith("index,"):
        del rows[0]
    index, parts = [], array.array("d")  # parts: each row's re, im, as complex128 lays them out
    for r in rows:
        if len(fields := r.split(",")) != 3:
            raise InputError(EXIT_MALFORMED, f"csv row needs index,re,im: {r!r}")
        try:
            index.append(_int(fields[0]))
            parts.append(_float(fields[1]))
            parts.append(_float(fields[2]))
        except ValueError:
            raise InputError(EXIT_MALFORMED, f"csv row is not numeric: {r!r}") from None
    del rows
    if sorted(index) != list(range(len(index))):
        raise InputError(EXIT_MALFORMED, "csv indices must cover 0..N-1 exactly once")
    values = np.empty(len(index), np.complex128)
    values[index] = np.frombuffer(parts, np.complex128)

    def endpoints() -> np.ndarray:
        if endpoint is None:
            raise InputError(EXIT_MALFORMED, "line mode csv input needs --endpoint re,im")
        return np.array([endpoint], dtype=np.complex128)
    effective = mode if mode is not None else ("line" if endpoint is not None else "torus")
    return _build(effective, (len(values),), lambda: values, endpoints, "endpoint")


def parse_input(
    path: str, mode: str | None = None, endpoint: complex | None = None
) -> TorusSamples | LineSamples | CharacterTable:
    """Read and validate a samples file; never aborts on hostile bytes.

    JSON files declare their own mode, which must match ``mode`` when one is
    requested.  Files ending in ``.csv`` use the 1-D table format and take
    the mode from the caller (torus when unspecified), with the line-mode
    endpoint supplied out of band.  All failures raise :class:`InputError`
    with the contractual exit code.
    """
    if path.endswith(".csv"):
        return _parse_csv_input(_load_text(path), mode, endpoint)
    return _parse_json_input(_load_text(path), mode)


# ---------------------------------------------------------------------------
# reports

def _report_dict(rep: CharacterReport, cfg: IdentifyConfig, mode: str) -> dict:
    out: dict = {"verdict": str(rep.verdict)}
    out["frequency"] = None if rep.frequency is None else list(rep.frequency)
    if mode == "line":
        out["beta"] = list(rep.beta)
    out["hom_residual"] = rep.hom_residual
    out["spectral_peak"] = rep.spectral_peak
    out["peaks"] = [[list(k), m] for k, m in rep.peaks]
    # echo only the knobs the mode used; the finite check ignores hom_trials and seed
    config = {"mode": mode, "tau_exact": cfg.tau_exact, "floor": cfg.floor}
    if mode != "finite":
        config.update(hom_trials=cfg.hom_trials, seed=cfg.seed)
    out["config"] = config
    return out


def _finite_report(table: CharacterTable, cfg: IdentifyConfig) -> CharacterReport:
    """Classify a finite table by the same verdict rule as the torus.

    The multiplicative law is checked exhaustively (or, above ALL_PAIRS_CAP,
    on one fixed sample of pairs per group), so hom_residual is a worst case
    over checked pairs, not a spot probe, held to ``tau_exact`` like the
    torus probe's.  Frequencies are character indices in the box prod [0, N_j).
    """
    _, worst = is_homomorphism_exhaustive(table)
    mags = np.abs(_dft(table.values)).ravel() / table.group.size
    peaks = tuple(_peaks(mags, table.group.orders, 5, shifted=False))
    return _report(peaks, identify_finite(table, cfg.floor), worst, cfg)


def run(args: argparse.Namespace) -> int:
    """Execute one ``analyze`` request, as :func:`build_parser` parses it;
    print the report and return the exit code.

    Any verdict is success; nonzero codes signal input or usage problems
    only.
    """
    endpoint = _parse_endpoint(args.endpoint)
    try:
        cfg = IdentifyConfig(args.tau_exact, args.floor, args.trials, args.seed)
    except ValueError as err:
        raise InputError(EXIT_USAGE, str(err)) from None
    if endpoint is not None:
        if args.mode != "line":
            raise InputError(EXIT_USAGE, "--endpoint only applies to line mode")
        if not args.input.endswith(".csv"):
            raise InputError(EXIT_USAGE, "--endpoint only applies to csv input")

    obj = parse_input(args.input, mode=args.mode, endpoint=endpoint)
    rep = _finite_report(obj, cfg) if isinstance(obj, CharacterTable) else classify(obj, cfg)
    report = _report_dict(rep, cfg, args.mode)
    text = _to_json(report) if args.fmt == "json" else _render_text(report)
    _write_stdout(text + "\n", "report")
    return EXIT_OK


def _write(stream, text: str) -> None:
    """Write ``text`` to ``stream`` and flush it.  Where that fails, the
    stream's descriptor goes to the null device before the OSError is
    raised, so that the interpreter's own flush at exit has nothing left
    to fail on."""
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        with contextlib.suppress(OSError, ValueError):
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
        raise


def _write_stdout(text: str, what: str) -> None:
    """Write ``text``, the ``what``, to standard output.  An output that
    cannot take it (closed, full, or a pipe whose reader has gone) raises
    InputError with exit 2, as an unwritable ``--output`` does."""
    if sys.stdout is None:
        raise InputError(EXIT_MISSING_FILE, f"cannot write {what}: standard output is closed")
    try:
        _write(sys.stdout, text)
    except OSError as err:
        raise InputError(EXIT_MISSING_FILE, f"cannot write {what}: {err}") from None


def _write_stderr(text: str) -> None:
    """Write a diagnostic to standard error, or drop it where standard
    error is closed or cannot take it: the exit code holds all the same."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            _write(sys.stderr, text)


# ---------------------------------------------------------------------------
# fixture generation

def generate(
    mode: str,
    freqs: list[float],
    grid: list[int],
    output: str,
    noise: float = 0.0,
    seed: int = 0,
) -> None:
    """Write a character fixture, optionally phase-jittered.

    Noise is uniform in [-noise, noise] radians, applied multiplicatively as
    exp(i jitter) per sample; modulus stays exactly 1, so noisy fixtures
    still parse.  In line mode the jitter draw covers base samples first and
    then the endpoints, in one deterministic seeded stream.
    """
    # orders below 1 are the grid checks' to report
    if min(grid) >= 1 and math.prod(grid) > GENERATE_CAP:
        raise InputError(EXIT_USAGE, f"grid {tuple(grid)} has more than {GENERATE_CAP} samples")
    # the jitter draw needs its width 2 * noise finite, not just noise
    if not (noise >= 0.0 and math.isfinite(2.0 * noise)):
        raise InputError(EXIT_USAGE, f"noise must be finite and >= 0, got {noise}")
    if seed < 0:
        raise InputError(EXIT_USAGE, f"seed must be >= 0, got {seed}")
    csv = output.endswith(".csv")
    if csv and (mode == "line" or len(grid) != 1):
        raise InputError(EXIT_USAGE, "csv output supports 1-D torus or finite fixtures only")

    endpoints = None
    try:
        if mode == "torus":
            values = sample_character_torus(freqs, grid).values
        elif mode == "line":
            ls = sample_character_line(freqs, grid)
            values, endpoints = ls.base.values, ls.endpoint_values
        elif mode == "finite":
            values = character_table(FiniteGroupSpec(tuple(grid)), freqs).values
        else:
            raise InputError(EXIT_USAGE, f"mode must be one of {MODES}, got {mode!r}")
    except ValueError as err:
        raise InputError(EXIT_USAGE, str(err)) from None

    values = values.ravel()
    if noise > 0.0:
        extra = 0 if endpoints is None else endpoints.size
        phase = 1j * np.random.default_rng(seed).uniform(-noise, noise, values.size + extra)
        np.exp(phase, out=phase)
        if endpoints is not None:
            endpoints = endpoints * phase[values.size :]
        values = np.multiply(values, phase[: values.size], out=phase[: values.size])  # in place

    try:
        with open(output, "w", encoding="utf-8") as fh:
            if csv:
                fh.write("index,re,im\n")
                _write_rows(fh, "%d,%.17g,%.17g", "\n",
                            range(values.size), values.real, values.imag)
            else:
                head = _to_json({"mode": mode, "dim": len(grid), "grid": [int(n) for n in grid]})
                fh.write(head[:-1] + ',"values":[')  # the closing brace cut for the arrays
                _write_rows(fh, "[%.17g,%.17g]", ",", values.real, values.imag)
                if endpoints is not None:
                    fh.write('],"endpoint_values":[')
                    _write_rows(fh, "[%.17g,%.17g]", ",", endpoints.real, endpoints.imag)
                fh.write("]}")
            fh.write("\n")
    except (OSError, ValueError) as err:  # ValueError: a NUL in the path, or a non-finite value
        raise InputError(EXIT_MISSING_FILE, f"cannot write {output}: {err}") from None


# ---------------------------------------------------------------------------
# argument handling

def _error_line(message: str) -> str:
    """The one diagnostic line for ``message``: integers of more than 20
    digits, which argv can make of any length, shortened to their leading
    digits and exponent, every line boundary of str.splitlines (a path can
    hold one) written as its backslash escape, and what is still past
    ERROR_CHARS cut from the middle."""
    message = re.sub(r"\d{21,}", lambda m: f"{m[0][0]}.{m[0][1:4]}e+{len(m[0]) - 1}", message)
    message = re.sub("[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]", lambda m: repr(m[0])[1:-1], message)
    if len(message) > ERROR_CHARS:
        half = (ERROR_CHARS - 5) // 2
        message = f"{message[:half]} ... {message[-half:]}"
    return f"charid: error: {message}\n"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags and prints its usage first; the
    # contract reserves 2 for missing files, uses 1 for usage errors and
    # prints one line
    def error(self, message: str) -> None:  # noqa: D102 - argparse override
        _write_stderr(_error_line(message))
        self.exit(EXIT_USAGE)

    # argparse prints help, usage and --version here, to stdout; it would
    # drop a failed write, and take stderr when stdout is closed
    def _print_message(self, message: str, file=None) -> None:
        if file is sys.stdout:  # None too, when stdout is closed
            _write_stdout(message, "output")
        else:
            super()._print_message(message, file)


def _num_list(text: str, kind, name: str) -> list:
    try:
        return [kind(part) for part in text.split(",")]
    except ValueError:
        raise InputError(EXIT_USAGE, f"{name} must be a comma-separated list") from None


def _parse_endpoint(text: str | None) -> complex | None:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(EXIT_USAGE, "--endpoint needs re,im")
    try:
        return complex(_float(parts[0]), _float(parts[1]))
    except ValueError:
        raise InputError(EXIT_USAGE, "--endpoint needs two numbers") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="charid", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"charid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    an = sub.add_parser("analyze", help="classify a samples file")
    an.add_argument("--input", required=True, help="JSON or .csv samples file")
    an.add_argument("--mode", required=True, choices=MODES)
    an.add_argument("--tau-exact", dest="tau_exact", type=_float,
                    default=_DEFAULTS.tau_exact)
    an.add_argument("--floor", type=_float, default=_DEFAULTS.floor)
    an.add_argument("--trials", type=_int, default=_DEFAULTS.hom_trials)
    an.add_argument("--seed", type=_int, default=_DEFAULTS.seed)
    an.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    an.add_argument("--endpoint", default=None,
                    help="re,im endpoint value for 1-D csv line input")

    gen = sub.add_parser("generate", help="write a character fixture")
    gen.add_argument("--mode", required=True, choices=MODES)
    gen.add_argument("--freq", required=True, help="comma-separated frequency vector")
    gen.add_argument("--grid", required=True, help="comma-separated axis sample counts")
    gen.add_argument("--noise", type=_float, default=0.0,
                     help="phase jitter amplitude in radians")
    gen.add_argument("--seed", type=_int, default=0)
    gen.add_argument("--output", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help, --version or a usage error
            return int(exc.code or 0)
        if args.command == "analyze":
            return run(args)
        generate(
            args.mode,
            _num_list(args.freq, _float, "--freq"),
            _num_list(args.grid, _int, "--grid"),
            args.output,
            noise=args.noise,
            seed=args.seed,
        )
        return EXIT_OK
    except InputError as err:
        _write_stderr(_error_line(str(err)))
        return err.code
    except MemoryError:  # exit 2, like input or output that cannot be read or written
        _write_stderr(_error_line("not enough memory to finish the request"))
        return EXIT_MISSING_FILE


def entry() -> None:
    """A ``charid`` process: the imports' objects frozen, the cyclic collector off."""
    gc.freeze()
    gc.disable()
    sys.exit(main())


if __name__ == "__main__":
    entry()
