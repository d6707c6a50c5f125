"""The traced benchmark's targets still name real attributes.

``bench/spans.py`` wraps functions under the names charid's modules bind
them.  A refactor that unbinds one of those names would otherwise surface
only when ``bench/run.py --trace 1`` crashes.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charid
from charid.cli import main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize(
    "module, attr",
    [(t[0], t[1]) for t in spans.LIBRARY_TARGETS + spans.CLI_TARGETS],
)
def test_patched_targets_resolve(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", sorted(spans.API_TARGETS))
def test_api_targets_are_package_attributes(name):
    assert callable(getattr(charid, name))


def test_traced_finite_analyze_records_finite_spans(tmp_path, capsys):
    fixture = str(tmp_path / "z64.json")
    assert main(["generate", "--mode", "finite", "--freq", "3", "--grid", "64",
                 "--output", fixture]) == 0
    capsys.readouterr()
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(out), "0",
         "analyze", "--input", fixture, "--mode", "finite"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "ExactCharacter"
    names = {span[0] for span in json.loads(out.read_text())}
    assert {"finite.is_homomorphism_exhaustive", "finite.identify_finite",
            "circle.unit_check"} <= names


def test_traced_library_classify_records_the_layer_split(monkeypatch):
    # the traced lib-torus split between fourier and identify reads only
    # these spans; a refactor that stops calling a patched name empties it
    for module, attr, *_ in spans.LIBRARY_TARGETS:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))  # restored afterwards
    tracer = spans.Tracer()
    tracer.patch(spans.LIBRARY_TARGETS)
    torus = charid.classify(charid.sample_character_torus((3, -2), (16, 8)))
    line = charid.classify(charid.sample_character_line(2.25, 32))
    assert (torus.frequency, line.verdict) == ((3, -2), charid.Verdict.EXACT)
    names = [span[0] for span in tracer.spans]
    for name in ("fourier.spectrum", "identify.homomorphism_residual",
                 "identify.identify_torus"):
        assert names.count(name) == 2, name
    assert names.count("identify.identify_line") == 1
