"""CLI contract: formats, exit codes, round trips, determinism, fuzz."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from charid.cli import (
    EXIT_INVARIANT,
    EXIT_MALFORMED,
    EXIT_MISSING_FILE,
    EXIT_USAGE,
    InputError,
    _fmt_float,
    _fmt_rows,
    _json_pairs,
    _to_json,
    main,
    parse_input,
)
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
    ]
    for i, text in enumerate(bad):
        p = write(tmp_path / f"b{i}.csv", text)
        with pytest.raises(InputError) as err:
            parse_input(p, mode="torus")
        assert err.value.code == EXIT_MALFORMED, text


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
    ],
)
def test_competing_errors_report_the_first(tmp_path, capsys, name, text, argv, code,
                                           message):
    path = write(tmp_path / name, text)
    got, out, err = run_main(capsys, ["analyze", "--input", path, *argv])
    assert got == code
    assert out == ""
    assert err == f"charid: error: {message}\n"


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
