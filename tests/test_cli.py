"""CLI contract: formats, exit codes, round trips, determinism, fuzz."""

import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import charid
from charid import circle, cli, finite, samples
from charid.cli import (
    EXIT_INVARIANT,
    EXIT_MALFORMED,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_USAGE,
    InputError,
    _finite_report,
    _fmt_float,
    _fmt_rows,
    _json_pairs,
    _to_json,
    main,
    parse_input,
)
from charid.finite import CharacterTable, FiniteGroupSpec, character_table, identify_finite
from charid.identify import IdentifyConfig
from charid.samples import LineSamples, TorusSamples


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def torus_doc(values, grid=None):
    grid = grid or [len(values)]
    return json.dumps(
        {
            "mode": "torus",
            "dim": len(grid),
            "grid": grid,
            "values": values,
        }
    )


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- parse_input ---------------------------------------------------------------

def test_parse_constant_torus_file(tmp_path):
    p = write(tmp_path / "c.json", torus_doc([[1, 0]] * 8))
    s = parse_input(p)
    assert isinstance(s, TorusSamples)
    assert s.dim == 1 and s.grid == (8,)


def test_parse_missing_file(tmp_path):
    with pytest.raises(InputError) as err:
        parse_input(str(tmp_path / "absent.json"))
    assert err.value.code == EXIT_MISSING_FILE


def test_parse_malformed_json(tmp_path):
    p = write(tmp_path / "bad.json", "{not json")
    with pytest.raises(InputError) as err:
        parse_input(p)
    assert err.value.code == EXIT_MALFORMED


def test_parse_line_file_missing_endpoints(tmp_path):
    doc = json.dumps(
        {"mode": "line", "dim": 1, "grid": [4], "values": [[1, 0]] * 4}
    )
    with pytest.raises(InputError) as err:
        parse_input(write(tmp_path / "l.json", doc))
    assert err.value.code == EXIT_MALFORMED


def test_parse_non_unit_value(tmp_path):
    p = write(tmp_path / "half.json", torus_doc([[0.5, 0.5], [1, 0]]))
    with pytest.raises(InputError) as err:
        parse_input(p)
    assert err.value.code == EXIT_INVARIANT
    assert "0" in str(err.value)  # violation index reported


def test_parse_nan_value_is_invariant_violation(tmp_path):
    # json.dumps emits the NaN literal, which json.loads accepts back
    p = write(tmp_path / "nan.json", torus_doc([[float("nan"), 0], [1, 0]]))
    with pytest.raises(InputError) as err:
        parse_input(p)
    assert err.value.code == EXIT_INVARIANT


def test_parse_shape_mismatches(tmp_path):
    cases = [
        json.dumps({"mode": "torus", "dim": 2, "grid": [4], "values": [[1, 0]] * 4}),
        json.dumps({"mode": "torus", "dim": 1, "grid": [4], "values": [[1, 0]] * 3}),
        json.dumps({"mode": "torus", "dim": 1, "grid": [4], "values": [[1, 0, 0]] * 4}),
        json.dumps({"mode": "torus", "dim": 1, "grid": [0], "values": []}),
        json.dumps({"mode": "what", "dim": 1, "grid": [4], "values": [[1, 0]] * 4}),
        json.dumps([1, 2, 3]),
    ]
    for i, doc in enumerate(cases):
        p = write(tmp_path / f"s{i}.json", doc)
        with pytest.raises(InputError) as err:
            parse_input(p)
        assert err.value.code == EXIT_MALFORMED, doc


def test_parse_mode_mismatch(tmp_path):
    p = write(tmp_path / "t.json", torus_doc([[1, 0]] * 4))
    with pytest.raises(InputError) as err:
        parse_input(p, mode="line")
    assert err.value.code == EXIT_MALFORMED


def test_parse_csv_roundtrip(tmp_path):
    rows = ["index,re,im"] + [f"{i},1,0" for i in range(6)]
    p = write(tmp_path / "c.csv", "\n".join(rows))
    s = parse_input(p, mode="torus")
    assert isinstance(s, TorusSamples) and s.grid == (6,)
    ls = parse_input(p, mode="line", endpoint=1 + 0j)
    assert isinstance(ls, LineSamples)


def test_parse_csv_defects(tmp_path):
    bad = [
        "index,re,im\n0,1\n",  # wrong arity
        "index,re,im\n0,1,0\n0,1,0\n",  # duplicate index
        "index,re,im\n0,1,0\n2,1,0\n",  # gap
        "index,re,im\n0,one,0\n1,1,0\n",  # not numeric
        # int() and float() read Unicode digits and underscores, JSON does not
        "index,re,im\n0,1,0\n\u0661,1,0\n",  # an Arabic-Indic one as the index
        "index,re,im\n0,1,0\n1,\u0661,0\n",  # ... and as re
        "index,re,im\n0,1,0\n1_0,1,0\n",  # an underscore in the index
        "index,re,im\n0,1,0\n1,1_0,0\n",  # ... and in re
    ]
    for i, text in enumerate(bad):
        p = write(tmp_path / f"b{i}.csv", text)
        with pytest.raises(InputError) as err:
            parse_input(p, mode="torus")
        assert err.value.code == EXIT_MALFORMED, text
        if i >= 4:  # the spellings int() and float() read: the last row is refused
            assert str(err.value) == f"csv row is not numeric: {text.split()[-1]!r}"


def test_parse_csv_line_needs_endpoint(tmp_path):
    p = write(tmp_path / "c.csv", "index,re,im\n" + "\n".join(f"{i},1,0" for i in range(4)))
    with pytest.raises(InputError) as err:
        parse_input(p, mode="line")
    assert err.value.code == EXIT_MALFORMED


# -- analyze / generate through main ------------------------------------------

def test_generate_analyze_torus_roundtrip(tmp_path, capsys):
    fixture = str(tmp_path / "k3.json")
    assert main(["generate", "--mode", "torus", "--freq", "3", "--grid", "64",
                 "--output", fixture]) == 0
    capsys.readouterr()
    code, out, _ = run_main(capsys, ["analyze", "--input", fixture, "--mode", "torus"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "ExactCharacter"
    assert rep["frequency"] == [3]
    assert rep["hom_residual"] < 1e-12
    assert rep["config"]["mode"] == "torus"


def test_generate_analyze_line_roundtrip(tmp_path, capsys):
    fixture = str(tmp_path / "alpha.json")
    assert main(["generate", "--mode", "line", "--freq", "-2.5", "--grid", "64",
                 "--output", fixture]) == 0
    capsys.readouterr()
    code, out, _ = run_main(capsys, ["analyze", "--input", fixture, "--mode", "line"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "ExactCharacter"
    assert rep["frequency"][0] == pytest.approx(-2.5, abs=1e-9)
    assert rep["beta"][0] == pytest.approx(0.5, abs=1e-9)


def test_generate_analyze_finite_csv_roundtrip(tmp_path, capsys):
    fixture = str(tmp_path / "z6.csv")
    assert main(["generate", "--mode", "finite", "--freq", "5", "--grid", "6",
                 "--output", fixture]) == 0
    capsys.readouterr()
    code, out, _ = run_main(capsys, ["analyze", "--input", fixture, "--mode", "finite"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "ExactCharacter"
    assert rep["frequency"] == [5]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("t.json", ["--mode", "torus", "--freq", "3,-2", "--grid", "8,5", "--noise", "0.3"]),
        ("l.json", ["--mode", "line", "--freq=-2.5,1.25", "--grid", "8,3", "--noise", "0.2"]),
        ("f.json", ["--mode", "finite", "--freq", "5,0", "--grid", "6,1"]),
        ("t.csv", ["--mode", "torus", "--freq", "3", "--grid", "16"]),
        ("f.csv", ["--mode", "finite", "--freq", "5", "--grid", "7", "--noise", "0.01"]),
    ],
)
def test_generate_writes_floats_as_the_report_formatter(tmp_path, name, argv):
    # 17 digits read back exactly, so re-serializing the parsed numbers one
    # float at a time must give the same bytes
    path = tmp_path / name
    assert main(["generate", *argv, "--output", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    if name.endswith(".csv"):
        rows = [r.split(",") for r in text.splitlines()[1:]]
        want = "index,re,im\n" + "".join(
            f"{i},{_fmt_float(float(re))},{_fmt_float(float(im))}\n" for i, re, im in rows
        )
    else:
        want = _to_json(json.loads(text, parse_int=float)) + "\n"
    assert text == want


def test_batch_float_formatting_matches_one_float_at_a_time():
    parts = [0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, 5e-324, -2.2250738585072014e-308,
             1.7976931348623157e308, 123456789012345678.0, 6.123233995736766e-17]
    values = np.array(parts) + 1j * np.array(parts[::-1])
    values[1] = complex(-0.0, -0.0)
    pairs = [[v.real, v.imag] for v in values.tolist()]
    assert _json_pairs(values) == _to_json(pairs)
    rows = _fmt_rows("%d,%.17g,%.17g", "\n", np.arange(values.size), values.real, values.imag)
    assert rows == "\n".join(
        f"{i},{_fmt_float(re)},{_fmt_float(im)}" for i, (re, im) in enumerate(pairs)
    )
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="non-finite"):
            _json_pairs(np.array([1.0, complex(0.0, bad)]))


def test_generate_noise_gives_approx(tmp_path, capsys):
    fixture = str(tmp_path / "noisy.json")
    assert main(["generate", "--mode", "torus", "--freq", "4", "--grid", "64",
                 "--noise", "0.01", "--seed", "1", "--output", fixture]) == 0
    capsys.readouterr()
    code, out, _ = run_main(capsys, ["analyze", "--input", fixture, "--mode", "torus"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "ApproxCharacter"
    assert rep["frequency"] == [4]


def test_finite_exact_needs_every_pair_to_pass(tmp_path, capsys):
    fixture = str(tmp_path / "noisy.json")
    assert main(["generate", "--mode", "finite", "--freq", "3", "--grid", "64",
                 "--noise", "0.05", "--seed", "1", "--output", fixture]) == 0
    capsys.readouterr()
    code, out, _ = run_main(capsys, ["analyze", "--input", fixture, "--mode", "finite",
                                     "--tau-exact", "0.5"])
    assert code == 0
    rep = json.loads(out)
    # the peak is within tau_exact of 1, but the exhaustive check fails
    assert rep["spectral_peak"] >= 0.5 and rep["hom_residual"] > 1e-12
    assert rep["verdict"] == "ApproxCharacter"
    assert rep["frequency"] == [3]


def test_reports_are_byte_identical(tmp_path, capsys):
    fixture = str(tmp_path / "f.json")
    main(["generate", "--mode", "torus", "--freq", "-7", "--grid", "32",
          "--noise", "0.3", "--seed", "9", "--output", fixture])
    capsys.readouterr()
    argv = ["analyze", "--input", fixture, "--mode", "torus", "--seed", "2"]
    _, first, _ = run_main(capsys, argv)
    _, second, _ = run_main(capsys, argv)
    assert first == second


def test_report_floats_round_trip_losslessly(tmp_path, capsys):
    fixture = str(tmp_path / "f.json")
    main(["generate", "--mode", "torus", "--freq", "2", "--grid", "32",
          "--noise", "0.2", "--seed", "3", "--output", fixture])
    capsys.readouterr()
    _, out, _ = run_main(capsys, ["analyze", "--input", fixture, "--mode", "torus"])
    rep = json.loads(out)
    from charid.cli import _to_json

    assert _to_json(rep) + "\n" == out


def test_text_format_is_fixed_template(tmp_path, capsys):
    fixture = str(tmp_path / "f.json")
    main(["generate", "--mode", "torus", "--freq", "1", "--grid", "16",
          "--output", fixture])
    capsys.readouterr()
    code, out, _ = run_main(
        capsys, ["analyze", "--input", fixture, "--mode", "torus", "--format", "text"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'verdict: "ExactCharacter"'
    assert lines[1] == "frequency: [1]"
    assert lines[4] == "peaks:"
    assert any(line.startswith("config:") for line in lines)


def test_exit_codes_through_main(tmp_path, capsys):
    fixture = str(tmp_path / "ok.json")
    main(["generate", "--mode", "torus", "--freq", "1", "--grid", "8",
          "--output", fixture])
    capsys.readouterr()
    # usage: bad flag value, config invariant, missing subcommand
    assert run_main(capsys, ["analyze", "--input", fixture, "--mode", "torus",
                             "--floor", "1.5"])[0] == EXIT_USAGE
    assert run_main(capsys, ["analyze", "--input", fixture, "--mode", "nope"])[0] == EXIT_USAGE
    assert run_main(capsys, [])[0] == EXIT_USAGE
    assert run_main(capsys, ["analyze", "--input", str(tmp_path / "no.json"),
                             "--mode", "torus"])[0] == EXIT_MISSING_FILE
    bad = write(tmp_path / "bad.json", "[[")
    assert run_main(capsys, ["analyze", "--input", bad, "--mode", "torus"])[0] == EXIT_MALFORMED
    halfmod = write(tmp_path / "h.json", torus_doc([[0.5, 0.5], [1, 0]]))
    assert run_main(capsys, ["analyze", "--input", halfmod, "--mode", "torus"])[0] == EXIT_INVARIANT


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "torus.json", "--mode", "torus", "--seed", "-1"],
        ["analyze", "--input", "line.json", "--mode", "line", "--seed", "-1"],
        ["analyze", "--input", "finite.json", "--mode", "finite", "--seed", "-1"],
        ["generate", "--mode", "torus", "--freq", "1", "--grid", "8",
         "--noise", "0.1", "--seed", "-5", "--output", "out.json"],
        ["generate", "--mode", "torus", "--freq", "1", "--grid", "8",
         "--noise", "inf", "--output", "out.json"],
        ["generate", "--mode", "torus", "--freq", "1", "--grid", "8",
         "--noise", "1e308", "--output", "out.json"],
    ],
)
def test_bad_seed_or_noise_is_a_usage_error(tmp_path, capsys, argv):
    for mode, freq in [("torus", "1"), ("line", "1.5"), ("finite", "1")]:
        main(["generate", "--mode", mode, "--freq", freq, "--grid", "8",
              "--output", str(tmp_path / f"{mode}.json")])
    capsys.readouterr()
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    code, out, err = run_main(capsys, argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("charid: error:") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("trials", ["65537", "1000000000000"])
@pytest.mark.parametrize("mode", ["torus", "line", "finite"])
def test_trials_above_cap_is_a_usage_error(tmp_path, capsys, mode, trials):
    fixture = str(tmp_path / f"{mode}.json")
    main(["generate", "--mode", mode, "--freq", "1.5" if mode == "line" else "1",
          "--grid", "8", "--output", fixture])
    capsys.readouterr()
    code, out, err = run_main(
        capsys, ["analyze", "--input", fixture, "--mode", mode, "--trials", trials]
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("charid: error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "mode, keys",
    [
        ("torus", ["mode", "tau_exact", "floor", "hom_trials", "seed"]),
        ("line", ["mode", "tau_exact", "floor", "hom_trials", "seed"]),
        # the finite check is exhaustive or draws its own fixed sample
        ("finite", ["mode", "tau_exact", "floor"]),
    ],
)
def test_config_echo_lists_the_knobs_each_mode_uses(tmp_path, capsys, mode, keys):
    fixture = str(tmp_path / f"{mode}.json")
    main(["generate", "--mode", mode, "--freq", "1.5" if mode == "line" else "1",
          "--grid", "8", "--output", fixture])
    capsys.readouterr()
    code, out, _ = run_main(capsys, ["analyze", "--input", fixture, "--mode", mode,
                                     "--seed", "3", "--trials", "5", "--floor", "0.8"])
    assert code == 0
    config = json.loads(out)["config"]
    assert list(config) == keys
    assert config["mode"] == mode and config["floor"] == 0.8
    if "seed" in keys:
        assert config["seed"] == 3 and config["hom_trials"] == 5


@pytest.mark.parametrize(
    "name, text, argv, code, message",
    [
        # the grid is checked before the missing endpoints are looked for
        ("l.json", json.dumps({"mode": "line", "dim": 1, "grid": [1], "values": [[1, 0]]}),
         ["--mode", "line"], EXIT_MALFORMED, "grid counts must all be >= 2, got (1,)"),
        ("one.csv", "index,re,im\n0,1,0\n", ["--mode", "line"], EXIT_MALFORMED,
         "grid counts must all be >= 2, got (1,)"),
        # a bad endpoint flag is reported before a bad config
        ("t.json", torus_doc([[1, 0]] * 4), ["--mode", "torus", "--endpoint", "x",
                                              "--floor", "2"],
         EXIT_USAGE, "--endpoint needs re,im"),
        # the samples' unit violation is reported before the endpoint's
        ("h.csv", "index,re,im\n0,1,0\n1,0.5,0.5\n2,1,0\n",
         ["--mode", "line", "--endpoint", "2,0"], EXIT_INVARIANT,
         "values violate unit modulus at 1 point(s); first at index (1,) "
         "with deviation 0.293"),
        # a grid entry below the container's minimum is reported before the
        # grid is used to size the values
        ("g.json", json.dumps({"mode": "finite", "dim": 2, "grid": [2, -1], "values": []}),
         ["--mode", "finite"], EXIT_MALFORMED, "factor orders must be >= 1, got (2, -1)"),
        ("z.json", json.dumps({"mode": "torus", "dim": 1, "grid": [0], "values": []}),
         ["--mode", "torus"], EXIT_MALFORMED, "grid counts must all be >= 2, got (0,)"),
        # an endpoint that is not two numbers is reported before a bad config
        ("t.json", torus_doc([[1, 0]] * 4), ["--mode", "torus", "--endpoint=a,b",
                                              "--floor", "2"],
         EXIT_USAGE, "--endpoint needs two numbers"),
    ],
)
def test_competing_errors_report_the_first(tmp_path, capsys, name, text, argv, code,
                                           message):
    path = write(tmp_path / name, text)
    got, out, err = run_main(capsys, ["analyze", "--input", path, *argv])
    assert got == code
    assert out == ""
    assert err == f"charid: error: {message}\n"


_HUGE = 10**400  # a JSON integer no float64 holds


@pytest.mark.parametrize(
    "mode, values, endpoints, what",
    [
        # parsed as an int, it overflowed the float64 cast with a traceback
        ("torus", [[_HUGE, 0], [1, 0]], None, "values"),
        ("line", [[1, 0], [1, 0]], [[_HUGE, 0]], "endpoint_values"),
        # past uint64, numpy keeps the integer as an object: exit 4 before
        ("torus", [[2**64, 0], [1, 0]], None, "values"),
        # strings and booleans were cast to numbers: exit 0 before
        ("torus", [["1", "0"], ["-1", "0"]], None, "values"),
        ("torus", [[True, False], [True, False]], None, "values"),
        ("line", [[1, 0], [1, 0]], [[True, False]], "endpoint_values"),
        # null was cast to NaN: exit 4 before
        ("torus", [[None, 0], [1, 0]], None, "values"),
        # a boolean among numbers was read as 1 or 0: exit 0 before
        ("torus", [[True, 0.0], [-1.0, 0.0]], None, "values"),
        ("torus", [[1, 0], [-1, False]], None, "values"),
        ("line", [[1, 0], [1, 0]], [[1.0, False]], "endpoint_values"),
        # numpy refuses ragged nesting outright
        ("torus", [[1, 0], [1]], None, "values"),
    ],
    ids=["huge", "huge-endpoint", "2^64", "strings", "booleans",
         "boolean-endpoint", "null", "true-among-floats", "false-among-ints",
         "boolean-among-endpoint-numbers", "ragged"],
)
def test_pairs_must_be_json_numbers(tmp_path, capsys, mode, values, endpoints, what):
    doc = {"mode": mode, "dim": 1, "grid": [2], "values": values}
    if endpoints is not None:
        doc["endpoint_values"] = endpoints
    path = write(tmp_path / "v.json", json.dumps(doc))
    code, out, err = run_main(capsys, ["analyze", "--input", path, "--mode", mode])
    assert code == EXIT_MALFORMED
    assert out == ""
    assert err == f"charid: error: {what} must be an array of [re, im] number pairs\n"


def test_one_axis_finite_dft_is_fftn_bitwise(monkeypatch):
    # the finite report and identify_finite take a 1-D table's DFT with
    # np.fft.fft: the same numbers, bit for bit, as fftn on the one axis
    rng = np.random.default_rng(10)
    tables = []
    for n in [*range(1, 257), 16384, 65537]:
        g = FiniteGroupSpec((n,))
        k = int(rng.integers(0, n))
        jitter = np.exp(1j * rng.normal(0.0, 0.05, n))
        tables += [character_table(g, k), CharacterTable(g, character_table(g, k).values * jitter)]
    found = [(identify_finite(t), _finite_report(t, IdentifyConfig())) for t in tables]
    monkeypatch.setattr(cli, "_dft", np.fft.fftn)
    monkeypatch.setattr(finite, "_dft", np.fft.fftn)
    for t, (dom, report) in zip(tables, found):
        assert identify_finite(t) == dom
        assert _finite_report(t, IdentifyConfig()) == report


def test_integer_and_float_pairs_decode_alike(tmp_path):
    ints = parse_input(write(tmp_path / "i.json", torus_doc([[1, 0], [-1, 0], [0, 1]])))
    floats = parse_input(
        write(tmp_path / "f.json", torus_doc([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    )
    assert ints.values.tobytes() == floats.values.tobytes()


def test_endpoint_flag_misuse(tmp_path, capsys):
    fixture = str(tmp_path / "f.json")
    main(["generate", "--mode", "torus", "--freq", "1", "--grid", "8",
          "--output", fixture])
    capsys.readouterr()
    code, _, _ = run_main(capsys, ["analyze", "--input", fixture, "--mode", "torus",
                                   "--endpoint", "1,0"])
    assert code == EXIT_USAGE
    code, _, _ = run_main(capsys, ["analyze", "--input", fixture, "--mode", "line",
                                   "--endpoint", "1,0"])
    assert code == EXIT_USAGE  # json input, endpoint belongs to csv only


def test_csv_line_analysis_with_endpoint_flag(tmp_path, capsys):
    fixture = str(tmp_path / "a.csv")
    main(["generate", "--mode", "torus", "--freq", "0", "--grid", "16",
          "--output", fixture])
    capsys.readouterr()
    # constant samples with endpoint exp(i pi) = -1: alpha = 0.5 ... but the
    # quotient of constant data by exp(0.5 i x) is a character only if the
    # data itself was exp(i 0.5 x); constant data stays NotCharacter
    code, out, _ = run_main(capsys, ["analyze", "--input", fixture, "--mode", "line",
                                     "--endpoint=-1,0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["beta"][0] == pytest.approx(0.5, abs=1e-12)


def test_generate_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    # aliased frequency
    assert run_main(capsys, ["generate", "--mode", "torus", "--freq", "4",
                             "--grid", "8", "--output", out])[0] == EXIT_USAGE
    # non-integer torus frequency
    assert run_main(capsys, ["generate", "--mode", "torus", "--freq", "1.5",
                             "--grid", "8", "--output", out])[0] == EXIT_USAGE
    # line fixtures cannot be csv (no endpoint column)
    assert run_main(capsys, ["generate", "--mode", "line", "--freq", "1.5",
                             "--grid", "8", "--output", str(tmp_path / "x.csv")])[0] == EXIT_USAGE
    # freq/grid arity mismatch
    assert run_main(capsys, ["generate", "--mode", "torus", "--freq", "1,2",
                             "--grid", "8", "--output", out])[0] == EXIT_USAGE
    # negative noise
    assert run_main(capsys, ["generate", "--mode", "torus", "--freq", "1",
                             "--grid", "8", "--noise", "-1", "--output", out])[0] == EXIT_USAGE


def test_multidim_json_roundtrip(tmp_path, capsys):
    fixture = str(tmp_path / "k2d.json")
    assert main(["generate", "--mode", "torus", "--freq", "3,-2", "--grid", "16,16",
                 "--output", fixture]) == 0
    capsys.readouterr()
    code, out, _ = run_main(capsys, ["analyze", "--input", fixture, "--mode", "torus"])
    assert code == 0
    rep = json.loads(out)
    assert rep["frequency"] == [3, -2]
    assert rep["verdict"] == "ExactCharacter"


def test_version_flag(capsys):
    assert run_main(capsys, ["--version"]) == (EXIT_OK, f"charid {charid.__version__}\n", "")
    assert charid.__version__ == "0.1.0"
    # a subcommand has no --version of its own
    code, out, err = run_main(capsys, ["analyze", "--version"])
    assert code == EXIT_USAGE and out == "" and err.count("\n") == 1


@pytest.fixture(scope="module")
def t64_fixture(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("t64") / "t64.json")
    assert main(["generate", "--mode", "torus", "--freq", "3", "--grid", "64",
                 "--output", path]) == 0
    return path


def _run_cli_into(target, args, unbuffered, fd=1):
    """(exit code, the other stream's text) of a fresh ``charid`` process
    whose standard output (``fd`` 1) or standard error (``fd`` 2) is
    ``target``: "full" (/dev/full), "pipe" (a pipe whose reader has closed)
    or "closed"."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(pathlib.Path(charid.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "charid.cli", *args]
    stream, other = ("stdout", "stderr") if fd == 1 else ("stderr", "stdout")
    run = {"env": env, other: subprocess.PIPE, "text": True, "timeout": 60}
    if target == "closed":
        proc = subprocess.run(["sh", "-c", f'exec "$@" {fd}>&-', "sh", *argv], **run)
    elif target == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(argv, **{stream: full}, **run)
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(argv, **{stream: write}, **run)
        finally:
            os.close(write)
    return proc.returncode, getattr(proc, other)


_UNWRITABLE = {
    "full": "[Errno 28] ",
    "pipe": "[Errno 32] ",
    "closed": "standard output is closed",
}


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("stdout", sorted(_UNWRITABLE))
def test_a_report_that_cannot_be_written_is_one_error_line(t64_fixture, stdout, unbuffered):
    # a traceback (unbuffered), "Exception ignored" and exit 120 (buffered),
    # or exit 0 with the report dropped (closed)
    code, err = _run_cli_into(
        stdout, ["analyze", "--input", t64_fixture, "--mode", "torus"], unbuffered
    )
    assert code == EXIT_MISSING_FILE
    assert err.startswith("charid: error: cannot write report: " + _UNWRITABLE[stdout])
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("stdout", sorted(_UNWRITABLE))
def test_a_version_that_cannot_be_written_is_one_error_line(stdout):
    # argparse dropped a failed unbuffered write, and wrote to stderr where
    # stdout was closed: exit 0 both
    for args in (["--version"], ["--help"], ["analyze", "--help"]):
        for unbuffered in (True, False):
            code, err = _run_cli_into(stdout, args, unbuffered)
            assert code == EXIT_MISSING_FILE, (args, unbuffered)
            assert err.startswith("charid: error: cannot write output: " + _UNWRITABLE[stdout])
            assert err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("stderr", ["full", "closed"])
def test_a_diagnostic_that_cannot_be_written_keeps_the_exit_code(
    tmp_path, t64_fixture, stderr, unbuffered
):
    # the failed error line made the exit code 120 (buffered) or 1
    bad = write(tmp_path / "bad.json", "[[")
    halfmod = write(tmp_path / "h.json", torus_doc([[0.5, 0.5], [1, 0]]))
    analyze = ["analyze", "--mode", "torus", "--input"]
    cases = [
        (analyze + [t64_fixture], EXIT_OK),
        (["analyze", "--bogus"], EXIT_USAGE),
        (analyze + [t64_fixture, "--floor", "1.5"], EXIT_USAGE),
        (analyze + [str(tmp_path / "absent.json")], EXIT_MISSING_FILE),
        (analyze + [bad], EXIT_MALFORMED),
        (analyze + [halfmod], EXIT_INVARIANT),
    ]
    for args, expected in cases:
        code, out = _run_cli_into(stderr, args, unbuffered, fd=2)
        assert code == expected, (args, unbuffered)
        if expected == EXIT_OK:
            assert out.startswith('{"verdict":"ExactCharacter"')
        else:
            assert out == "", args


def test_nul_byte_paths_are_one_error_line(tmp_path):
    # open() raises ValueError("embedded null byte"), which left main
    nul = str(tmp_path / "a\x00b.json")
    code, out, err = _run_quietly(["analyze", "--input", nul, "--mode", "torus"])
    _assert_one_error_line(code, out, err)
    assert code == EXIT_MISSING_FILE and "cannot read" in err
    code, out, err = _run_quietly(["generate", "--mode", "torus", "--freq", "1", "--grid", "8",
                                   "--output", nul])
    _assert_one_error_line(code, out, err)
    assert code == EXIT_MISSING_FILE and "cannot write" in err


@pytest.mark.parametrize("mode", ["torus", "finite"])
def test_integral_float_frequencies_write_the_same_fixture(tmp_path, mode):
    for name, freq in [("int.json", "3,2"), ("float.json", "3.0,2.0")]:
        assert main(["generate", "--mode", mode, "--freq", freq, "--grid", "16,8",
                     "--output", str(tmp_path / name)]) == 0
    assert (tmp_path / "int.json").read_bytes() == (tmp_path / "float.json").read_bytes()


@pytest.mark.parametrize(
    "mode, freq",
    [("torus", "2.5"), ("finite", "2.5")]
    + [(mode, freq) for mode in cli.MODES for freq in ("inf", "-inf", "nan", "1e400", "1,2")],
)
def test_generate_refuses_bad_frequencies_with_one_line(tmp_path, mode, freq):
    out = tmp_path / "x.json"
    code, stdout, err = _run_quietly(["generate", "--mode", mode, "--freq", freq,
                                      "--grid", "8", "--output", str(out)])
    _assert_one_error_line(code, stdout, err)
    assert code == EXIT_USAGE and not out.exists()


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "charid.cli", "analyze", "--input",
         str(tmp_path / "absent.json"), "--mode", "torus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_MISSING_FILE
    assert "error" in proc.stderr


def test_fuzz_parse_input_never_aborts(tmp_path):
    rng = np.random.default_rng(0)
    seed_doc = torus_doc([[1, 0]] * 4).encode()
    for i in range(400):
        if i % 3 == 0:
            blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 64))))
        else:
            blob = bytearray(seed_doc)
            for _ in range(int(rng.integers(1, 6))):
                blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
            blob = bytes(blob)
        p = tmp_path / ("f%d.%s" % (i, "csv" if i % 2 else "json"))
        p.write_bytes(blob)
        try:
            parse_input(str(p), mode="torus")
        except InputError:
            pass


# -- hostile argv ------------------------------------------------------------------

def _run_quietly(argv):
    """(exit code, stdout, stderr) of one in-process ``main`` call, with any
    warning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_error_line(code, out, err):
    assert code in (EXIT_USAGE, EXIT_MISSING_FILE, EXIT_MALFORMED, EXIT_INVARIANT)
    assert out == ""
    assert err.startswith("charid: error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert len(err) <= len("charid: error: \n") + cli.ERROR_CHARS


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "line", "--freq", "1e308", "--grid", "4"],
        ["--mode", "torus", "--freq", "1e300", "--grid", "4"],
        ["--mode", "finite", "--freq", "1e300", "--grid", "4"],
        ["--mode", "finite", "--freq", "1,1", "--grid", "4,-" + "9" * 4000],
        ["--mode", "torus", "--freq", "1", "--grid", "4", "--seed", "-" + "9" * 4000],
        ["--mode", "torus", "--freq", "1", "--grid", "4", "--seed", "9" * 5000],
        ["--mode", "x" * 5000, "--freq", "1", "--grid", "4"],
    ],
)
def test_generate_error_lines_stay_short(tmp_path, argv):
    # integers from argv, or made from its floats, were quoted in full: a
    # 309-digit integer part for --freq 1e308
    code, out, err = _run_quietly(["generate", *argv, "--output", str(tmp_path / "x.json")])
    _assert_one_error_line(code, out, err)
    assert code == EXIT_USAGE
    assert not re.search(r"\d{21}", err)
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "mode, freq, grid",
    [
        ("torus", "1", "3000000000"),
        ("finite", "1", "99999999999"),
        ("line", "1", "3000000000"),
        ("torus", "1,1", "65536,65536"),
        ("finite", "1,1,1", "1,1,4194305"),
    ],
)
def test_generate_refuses_large_grids_before_allocating(tmp_path, monkeypatch, mode, freq, grid):
    # these ended in numpy's _ArrayMemoryError, a traceback
    def unreachable(*args):
        raise AssertionError("a large grid reached the sample builders")

    monkeypatch.setattr(circle, "root_of_unity_powers", unreachable)
    monkeypatch.setattr(samples, "_line_values", unreachable)
    tracemalloc.start()
    try:
        code, out, err = _run_quietly(["generate", "--mode", mode, "--freq", freq, "--grid", grid,
                                       "--output", str(tmp_path / "x.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_one_error_line(code, out, err)
    assert code == EXIT_USAGE
    assert f"more than {cli.GENERATE_CAP} samples" in err
    assert peak < 1 << 20


def _argv_numbers():
    """Number-like argv tokens: small, huge, signed, special and broken."""
    return st.one_of(
        st.integers(-3, 12).map(str),
        st.sampled_from(["0", "-0", "1e308", "-1e308", "1e400", "nan", "inf", "-inf",
                         "3000000000", "99999999999", "9" * 30, "-" + "9" * 30, "9" * 5000,
                         "0.5", "1.5", "-2.5", "1e-320", "", "x", "1,", ",", "0x10"]),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
    )


def _argv_lists():
    return st.lists(_argv_numbers(), min_size=1, max_size=3).map(",".join)


def _argv_grids():
    """Grids of at most 12^3 samples, or ones refused before allocating."""
    small = st.lists(st.integers(-1, 12), min_size=1, max_size=3)
    huge = st.tuples(
        st.lists(st.integers(-1, 12), max_size=2), st.integers(1 << 31, 1 << 70)
    ).map(lambda parts: parts[0] + [parts[1]])
    grids = (small | small | huge).map(lambda g: ",".join(map(str, g)))
    return grids | _argv_lists()


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    for name, args in {
        "t8.json": ["torus", "1", "8"],
        "l8.json": ["line", "1.5", "8"],
        "z8.json": ["finite", "3", "8"],
        "t8.csv": ["torus", "1", "8"],
    }.items():
        mode, freq, grid = args
        assert main(["generate", "--mode", mode, "--freq", freq, "--grid", grid,
                     "--output", str(d / name)]) == 0
    return d


@st.composite
def _hostile_argv(draw, d):
    """An analyze or generate argv of mostly sound values and some hostile
    ones; flags may be missing, repeated, written with ``=`` or not, and a
    stray token may be added."""
    def mostly(good, hostile):
        return st.one_of(good, good, hostile)

    modes = mostly(st.sampled_from(["torus", "line", "finite"]), st.sampled_from(["nope", ""]))
    if draw(st.booleans()):
        inputs = mostly(
            st.sampled_from(["t8.json", "l8.json", "z8.json", "t8.csv"]),
            st.sampled_from(["absent.json", "", ".", "no/dir.json", "a\x00b.json"]),
        )
        required = {"--input": inputs.map(lambda n: str(d / n)), "--mode": modes}
        optional = {
            "--tau-exact": mostly(st.sampled_from(["1e-9", "1e-6", "0.5"]), _argv_numbers()),
            "--floor": mostly(st.sampled_from(["0.9", "0.5", "1"]), _argv_numbers()),
            "--trials": mostly(st.integers(1, 300).map(str), _argv_numbers()),
            "--seed": mostly(st.integers(0, 2**70).map(str), _argv_numbers()),
            "--format": st.sampled_from(["json", "text", "yaml"]),
            "--endpoint": mostly(st.sampled_from(["0.5,0.8660254037844386", "1,0"]),
                                 _argv_lists()),
        }
        argv = ["analyze"]
    else:
        required = {
            "--mode": modes,
            "--freq": mostly(st.lists(st.integers(-3, 3).map(str), min_size=1, max_size=3)
                             .map(",".join), _argv_lists()),
            "--grid": _argv_grids(),
            "--output": mostly(st.sampled_from(["out.json", "out.csv"]),
                               st.sampled_from(["no/dir.json", "", ".", "a\x00b.json"]))
                        .map(lambda n: str(d / n)),
        }
        optional = {
            "--noise": mostly(st.sampled_from(["0", "0.01", "0.5"]), _argv_numbers()),
            "--seed": mostly(st.integers(0, 2**70).map(str), _argv_numbers()),
        }
        argv = ["generate"]
    chosen = [f for f in required if draw(st.integers(0, 9))]
    chosen += draw(st.lists(st.sampled_from(sorted(optional)), max_size=3))
    for flag in draw(st.permutations(chosen)):
        value = draw({**required, **optional}[flag])
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if not draw(st.integers(0, 4)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-x", "--", "extra"])))
    return argv


@given(data=st.data())
@settings(deadline=None, max_examples=300)
def test_hostile_argv_keeps_the_exit_code_contract(argv_files, data):
    argv = data.draw(_hostile_argv(argv_files))
    code, out, err = _run_quietly(argv)
    event(f"exit {code}")
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        _assert_one_error_line(code, out, err)
