"""The three workloads: requests, their inputs and the checks on their outputs.

Every workload runs one request at a time from one process (the host has two
cores) and repeats a fixed round of requests a fixed number of times, so
every run attempts the same operations in the same proportions whatever the
seed.  The seed chooses frequencies, jitter, random phases and negated
entries; it never changes an input's size or kind.

A request fails when the call raises, when a CLI process exits with a code
other than 0 or writes to stderr, or when its output is wrong.  A wrong
output also makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs
from spans import API_TARGETS, LIBRARY_TARGETS

BENCH = Path(__file__).resolve().parent

EXACT, APPROX, NOT = "ExactCharacter", "ApproxCharacter", "NotCharacter"
KINDS = ("exact", "jitter", "random", "line")


@dataclass
class Runner:
    """Times requests one at a time; keeps latencies and failures.

    With ``probe`` set, a fresh start for setup_s is timed before a request
    whenever ``probe_interval`` seconds have passed since the last one, up to
    ``probes`` starts, so they sample the whole run rather than one moment of
    the host."""

    tracer: object = None
    probe: object = None
    probe_interval: float = 0.0
    probes: int = 0
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (kind, message)
    setup: list = field(default_factory=list)
    _last_probe: float = field(default_factory=time.perf_counter)

    def request(self, tag: str, call, check) -> None:
        """Run ``call()`` as one request.  ``check(result)`` returns None when
        the output is right, a message when it is wrong, or ("error",
        message) when the request failed without a wrong output (a CLI exit
        code or stderr).  ``tag`` marks finite requests in the trace."""
        if (len(self.setup) < self.probes
                and time.perf_counter() - self._last_probe >= self.probe_interval):
            self.setup.append(self.probe())
            self._last_probe = time.perf_counter()
        sid = self.tracer.open("request", "bench", tag) if self.tracer else None
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as err:  # a request that raises is a failed request
            out, error = None, f"{type(err).__name__}: {err}"
        else:
            error = None
        dt = time.perf_counter() - t0
        if sid is not None:
            self.tracer.close(sid)
        self.latencies.append(dt)
        if error is not None:
            self.failures.append(("error", error))
            return
        problem = check(out)
        if problem is not None:
            kind, message = problem if isinstance(problem, tuple) else ("wrong", problem)
            self.failures.append((kind, message))


# -- checks on a report, as a dict of the CLI's keys ------------------------


def report_fields(rep) -> dict:
    """A library CharacterReport under the keys of the CLI's JSON report."""
    return {
        "verdict": str(rep.verdict),
        "frequency": rep.frequency,
        "beta": rep.beta,
        "hom_residual": rep.hom_residual,
        "spectral_peak": rep.spectral_peak,
    }


def expect_exact(k):
    def check(r):
        if r["verdict"] != EXACT or r["frequency"] is None or tuple(r["frequency"]) != tuple(k):
            return f"character k={list(k)} gave {r['verdict']} at {r['frequency']}"
    return check


def expect_approx(k, eps):
    def check(r):
        if r["verdict"] != APPROX or r["frequency"] is None or tuple(r["frequency"]) != tuple(k):
            return f"jitter {eps:.3g} on k={list(k)} gave {r['verdict']} at {r['frequency']}"
        if not r["spectral_peak"] >= math.cos(eps):
            return f"spectral peak {r['spectral_peak']!r} below cos({eps!r})"
    return check


def expect_not():
    def check(r):
        if r["verdict"] != NOT or r["frequency"] is not None:
            return f"random phases gave {r['verdict']} at {r['frequency']}"
        if not r["hom_residual"] > 0.1:
            return f"random phases gave hom_residual {r['hom_residual']!r}"
    return check


def expect_line(alpha):
    def check(r):
        if r["verdict"] != EXACT or r["frequency"] is None:
            return f"line alpha={list(alpha)} gave {r['verdict']}"
        if any(abs(f - a) > 1e-9 for f, a in zip(r["frequency"], alpha)):
            return f"line alpha={list(alpha)} gave frequency {list(r['frequency'])}"
        if not all(0.0 <= b < 1.0 for b in r["beta"]):
            return f"beta {list(r['beta'])} outside [0, 1)"
    return check


def expect_negated(k):
    """A character with one entry negated: the defect is 2 wherever the
    negated entry is a sum of two others, and the spike keeps its k."""
    def check(r):
        if r["verdict"] != APPROX or tuple(r["frequency"] or ()) != tuple(k):
            return f"negated k={list(k)} gave {r['verdict']} at {r['frequency']}"
        if abs(r["hom_residual"] - 2.0) > 1e-9:
            return f"negated k={list(k)} gave hom_residual {r['hom_residual']!r}"
    return check


# -- lib-torus --------------------------------------------------------------

#: (grids, requests per grid and kind, kinds).  Sizes run from 64 samples to
#: 256x256.  The 256x256 tier holds the 11th-largest request of every run (3
#: per round, 12 rounds) and no line input, which would cost 25% more; the
#: smallest tier is 72% of requests, so the median sits well inside it.
TORUS_TIERS = (
    (((256, 256),), 1, ("exact", "jitter", "random")),
    (((16384,), (128, 128), (32, 32, 16)), 16, KINDS),
    (((4096,), (64, 64), (16, 16, 16)), 16, KINDS),
    (((64,), (256,), (1024,), (8, 8), (16, 16), (32, 32), (4, 4, 4), (8, 8, 8)), 32, KINDS),
)

#: Share of torus requests whose spectral peak is also summed directly.
DIRECT_SHARE = 0.1


def _fixed_order(items: list) -> list:
    """One interleaving of a round, the same for every seed."""
    return [items[i] for i in np.random.default_rng(0).permutation(len(items))]


def torus_round() -> list:
    return _fixed_order([
        (grid, kind)
        for grids, count, kinds in TORUS_TIERS
        for grid in grids
        for kind in kinds
        for _ in range(count)
    ])


def library_api(tracer=None) -> SimpleNamespace:
    """The functions a library workload calls, wrapped when traced."""
    import charid

    api = SimpleNamespace(
        torus=lambda grid, values: charid.TorusSamples(grid, values),
        line=lambda grid, values, ep: charid.LineSamples(charid.TorusSamples(grid, values), ep),
        table=lambda orders, values: charid.CharacterTable(charid.FiniteGroupSpec(orders), values),
        group=charid.FiniteGroupSpec,
        cap=charid.finite.ALL_PAIRS_CAP,
        **{name: getattr(charid, name) for name in API_TARGETS},
    )
    if tracer is not None:
        tracer.patch(LIBRARY_TARGETS)
        for name in ("torus", "line", "table"):
            setattr(api, name, tracer.wrap(getattr(api, name), "samples.construct", "samples"))
        for name, (span, layer, work) in API_TARGETS.items():
            setattr(api, name, tracer.wrap(getattr(api, name), span, layer, work))
    return api


def lib_torus(runner: Runner, api, rounds: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    plan = torus_round()
    for _ in range(rounds):
        for grid, kind in plan:
            k = inputs.symmetric_k(grid, rng)
            if kind == "line":
                alpha = [kj + float(rng.uniform(0.05, 0.95)) for kj in k]
                values, ep = inputs.line_character(alpha, grid)
                runner.request("torus", lambda: api.classify(api.line(grid, values, ep)),
                               _report_check(expect_line(alpha)))
                continue
            if kind == "exact":
                values, check = inputs.character(k, grid), expect_exact(k)
            elif kind == "jitter":
                eps = float(rng.uniform(0.01, 0.3))
                values = inputs.jitter(inputs.character(k, grid), eps, rng)
                check = expect_approx(k, eps)
            else:
                values, check = inputs.random_phases(grid, rng), expect_not()
            direct = rng.random() < DIRECT_SHARE
            runner.request("torus", lambda: api.classify(api.torus(grid, values)),
                           _report_check(check, values if direct else None))
    return {"rounds": rounds, "requests_per_round": len(plan)}


def _report_check(check, direct_values=None):
    """Check a library report; with ``direct_values``, also hold its spectral
    peak to the benchmark's own direct sum at the reported top frequency."""
    def run(rep):
        r = report_fields(rep)
        problem = check(r)
        if problem is None and direct_values is not None:
            k = rep.peaks[0][0]
            ref = abs(inputs.direct_coefficient(direct_values, k))
            if abs(r["spectral_peak"] - ref) > 1e-12:
                problem = f"spectral peak {r['spectral_peak']!r} vs direct sum {ref!r} at k={k}"
        return problem
    return run


# -- lib-finite -------------------------------------------------------------

#: Small groups: every order 1..256, every 16x16 pair and a 5^3 grid of
#: 3-axis orders, order-1 factors included; each as a character and with
#: one entry negated (several thousand tables in a run).
SMALL_GROUPS = (
    [(n,) for n in range(1, 257)]
    + [(a, b) for a in range(1, 17) for b in range(1, 17)]
    + [(a, b, c) for a in (1, 2, 3, 4, 6) for b in (1, 2, 3, 4, 6) for c in (1, 2, 3, 4, 6)]
)

#: 2^14 elements on the all-pairs path, and just above ALL_PAIRS_CAP on the
#: sampled path.  One of each per round.  Z_16384 and 2x8192 check the same
#: number of pairs; 128x128 takes twice as long.  With 8 rounds the
#: 11th-largest request is the third of the 2x8192 ones.
LARGE_GROUPS = ((16384,), (128, 128), (2, 8192))
SAMPLED_GROUPS = ((65537,), (256, 257))

ENUMERATED_GROUPS = ((1,), (7,), (4, 4), (2, 3, 4), (64,))


def finite_round() -> list:
    items = [(g, "character") for g in SMALL_GROUPS] + [(g, "negated") for g in SMALL_GROUPS]
    items += [(g, "large") for g in LARGE_GROUPS + SAMPLED_GROUPS]
    items += [(g, "enumerate") for g in ENUMERATED_GROUPS]
    return _fixed_order(items)


def finite_k(orders, rng) -> tuple[int, ...]:
    return tuple(int(rng.integers(0, n)) for n in orders)


def lib_finite(runner: Runner, api, rounds: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    plan = finite_round()
    enumerated = {g: _own_tables(g) for g in ENUMERATED_GROUPS}
    for r in range(rounds):
        for orders, kind in plan:
            if kind == "enumerate":
                runner.request("enumerate", lambda: api.enumerate_characters(api.group(orders)),
                               _enumeration_check(enumerated[orders]))
                continue
            size = math.prod(orders)
            k = finite_k(orders, rng)
            values = inputs.character(k, orders)
            if kind == "large":
                # alternate rounds check a character and a broken table
                negated = r % 2 == 1
                if negated and size > api.cap:
                    values.reshape(-1)[1::2] *= -1  # not a character: |G| is odd in a factor
                elif negated:
                    values.reshape(-1)[int(rng.integers(0, size))] *= -1
            else:
                negated = kind == "negated"
                if negated:
                    # for |G| <= 2 only entry 0 is sure to break the law
                    values.reshape(-1)[int(rng.integers(0, size)) if size > 2 else 0] *= -1
            runner.request(
                "finite",
                lambda: _check_and_identify(api, orders, values),
                _finite_check(k, negated, size, api.cap),
            )
    return {"rounds": rounds, "requests_per_round": len(plan)}


def _check_and_identify(api, orders, values):
    t = api.table(orders, values)
    return api.is_homomorphism_exhaustive(t), api.identify_finite(t)


def _finite_check(k, negated: bool, size: int, cap: int):
    """Characters pass with defect <= 1e-12 and are identified as their k.
    A negated entry gives defect 2; its spike keeps (|G|-2)/|G| of the mass,
    so it is still identified when |G| > 20 and nothing reaches the 0.9 floor
    when 3 <= |G| < 20 (at exactly 20 the floor is met up to rounding).
    Above the cap the broken table negates every other entry, which the
    sampled check must catch."""
    def check(out):
        (passes, defect), found = out
        if not negated:
            if not (passes and defect <= 1e-12 and found == tuple(k)):
                return f"character k={list(k)}: passes={passes} defect={defect!r} identified {found}"
        elif passes or abs(defect - 2.0) > 1e-9:
            return f"broken table k={list(k)}: passes={passes} defect={defect!r}"
        elif size <= cap and size > 20 and found != tuple(k):
            return f"negated entry of k={list(k)} identified as {found}"
        elif 3 <= size < 20 and found is not None:
            return f"negated entry of k={list(k)} on {size} elements identified as {found}"
    return check


def _own_tables(orders) -> np.ndarray:
    return np.array([inputs.character(k, orders) for k in np.ndindex(*orders)])


def _enumeration_check(own: np.ndarray):
    def check(tables):
        if len(tables) != len(own):
            return f"enumeration gave {len(tables)} tables for a group of {len(own)}"
        worst = max(float(np.abs(t.values - o).max()) for t, o in zip(tables, own))
        if worst > 1e-15:
            return f"enumerated table off the benchmark's own by {worst!r}"
    return check


# -- cli-files --------------------------------------------------------------


@dataclass
class Completed:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_process(cmd: list, env: dict, workdir: Path) -> Completed:
    """Start one process, wait for it and collect its output and peak RSS.

    Output goes to files, so a large report cannot fill a pipe; ``wait4``
    gives the child's own resource usage."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
    return Completed(proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                     usage.ru_maxrss)


def process_check(check):
    """A CLI request fails on exit code, on stderr, then on its output."""
    def run(done: Completed):
        if done.code != 0:
            return ("error", f"exit code {done.code}: {done.stderr[-300:]!r}")
        if done.stderr:
            return ("error", f"stderr: {done.stderr[-300:]!r}")
        return check(done)
    return run


def report_check(check, outputs: dict, key):
    """Parse the JSON report, check it, and require byte-identical stdout
    from every request on the same file."""
    def run(done: Completed):
        first = outputs.setdefault(key, done.stdout)
        if done.stdout != first:
            return "stdout differs from an earlier request on the same file"
        try:
            report = json.loads(done.stdout)
        except ValueError:
            return f"report is not JSON: {done.stdout[:200]!r}"
        return check(report)
    return process_check(run)


def fixture_check(path: Path, own: np.ndarray, noise: float, own_endpoints=None):
    """A file ``generate`` wrote: parsed with the standard library, exact
    values within 1e-15 of the benchmark's own, jittered ones on the unit
    circle within 1e-15 and off the exact phase by at most the noise (plus
    1e-12 of rounding)."""
    def run(done: Completed):
        try:
            values, endpoints = inputs.read_fixture(path)
        except (OSError, ValueError, KeyError, IndexError) as err:
            return f"{path.name} does not parse: {err}"
        got = [values] + ([endpoints] if own_endpoints is not None else [])
        ref = [own] + ([own_endpoints] if own_endpoints is not None else [])
        for g, r in zip(got, ref):
            if g is None or g.shape != r.shape:
                return f"{path.name} holds {None if g is None else g.shape}, expected {r.shape}"
            if noise == 0.0:
                off = float(np.abs(g - r).max())
                if off > 1e-15:
                    return f"{path.name} is off the exact values by {off!r}"
                continue
            modulus = float(np.abs(np.abs(g) - 1.0).max())
            phase = float(np.abs(np.angle(g * np.conj(r))).max())
            if modulus > 1e-15 or phase > noise + 1e-12:
                return f"{path.name}: modulus off by {modulus!r}, phase off by {phase!r} (noise {noise})"
    return process_check(run)


def _csv_endpoint(ep: np.ndarray) -> list:
    # one token, as a leading minus would read as a flag
    return [f"--endpoint={float(ep[0].real)!r},{float(ep[0].imag)!r}"]


def cli_plan(rng, work: Path) -> tuple[list, list]:
    """Write the input files and list the requests of one round.

    Returns (requests, files analysed) where each request is (argv, tag,
    check).  One round: the five big requests once each, 16 requests on
    256x256 files and 40 small ones on 64-sample files.  The 11th-largest
    request is then the sixth of the 256x256 requests, with about a factor
    1.4 to the classes on either side, and the median is a small one.
    """
    outputs: dict = {}
    requests, analysed = [], []

    def analyze(name, mode, values, check, reps=1, csv=False, endpoints=None):
        path = work / (name + (".csv" if csv else ".json"))
        if csv:
            inputs.write_csv(path, values)
        else:
            inputs.write_json(path, mode, values, endpoints)
        argv = ["analyze", "--input", str(path), "--mode", mode]
        if csv and endpoints is not None:
            argv += _csv_endpoint(endpoints)
        analysed.append(argv)
        tag = "finite" if mode == "finite" else "cli"
        requests.extend([(argv, tag, report_check(check, outputs, path))] * reps)

    def generate(name, mode, freq, grid, own, reps=1, noise=0.0, seed=0, ext="json",
                 endpoints=None):
        path = work / f"gen-{name}.{ext}"
        argv = ["generate", "--mode", mode, "--freq=" + ",".join(map(str, freq)),
                "--grid=" + ",".join(map(str, grid)), "--output", str(path)]
        if noise:
            argv += ["--noise", repr(noise), "--seed", str(seed)]
        requests.extend([(argv, "cli", fixture_check(path, own, noise, endpoints))] * reps)

    k = inputs.symmetric_k((1024, 1024), rng)
    analyze("torus-1024", "torus", inputs.character(k, (1024, 1024)), expect_exact(k))
    k, eps = inputs.symmetric_k((512, 512), rng), float(rng.uniform(0.01, 0.3))
    analyze("torus-512-jitter", "torus",
            inputs.jitter(inputs.character(k, (512, 512)), eps, rng), expect_approx(k, eps))
    for n in ((16384,), (65537,)):
        k = finite_k(n, rng)
        analyze(f"finite-{n[0]}", "finite", inputs.character(k, n), expect_exact(k))
    k, noise = inputs.symmetric_k((512, 512), rng), float(rng.uniform(0.01, 0.3))
    generate("torus-512-jitter", "torus", k, (512, 512), inputs.character(k, (512, 512)),
             noise=noise, seed=int(rng.integers(0, 2**31)))

    alpha = [kj + float(rng.uniform(0.05, 0.95)) for kj in inputs.symmetric_k((256, 256), rng)]
    values, ep = inputs.line_character(alpha, (256, 256))
    analyze("line-256", "line", values, expect_line(alpha), reps=8, endpoints=ep)
    analyze("torus-256-random", "torus", inputs.random_phases((256, 256), rng), expect_not(),
            reps=8)

    g = (64,)
    k = inputs.symmetric_k(g, rng)
    analyze("torus-64", "torus", inputs.character(k, g), expect_exact(k), reps=4)
    analyze("torus-64", "torus", inputs.character(k, g), expect_exact(k), reps=4, csv=True)
    analyze("torus-64-random", "torus", inputs.random_phases(g, rng), expect_not(), reps=4)
    alpha = [k[0] + float(rng.uniform(0.05, 0.95))]
    values, ep = inputs.line_character(alpha, g)
    analyze("line-64", "line", values, expect_line(alpha), reps=4, endpoints=ep)
    analyze("line-64", "line", values, expect_line(alpha), reps=4, csv=True, endpoints=ep)
    k = finite_k(g, rng)
    analyze("finite-64", "finite", inputs.character(k, g), expect_exact(k), reps=4)
    broken = inputs.character(k, g)
    broken[int(rng.integers(1, 64))] *= -1
    analyze("finite-64-negated", "finite", broken, expect_negated(k), reps=4, csv=True)

    k = inputs.symmetric_k(g, rng)
    generate("torus-64", "torus", k, g, inputs.character(k, g), reps=3)
    generate("torus-64", "torus", k, g, inputs.character(k, g), reps=3, ext="csv")
    k = finite_k(g, rng)
    generate("finite-64", "finite", k, g, inputs.character(k, g), reps=3, ext="csv")
    # a power-of-two alpha on a power-of-two grid makes alpha*2*pi*m/N one
    # rounding in any order, so 1e-15 compares values, not operation order
    alpha = [float(rng.choice([-0.5, -0.25, 0.25, 0.5]))]
    values, ep = inputs.line_character(alpha, g)
    generate("line-64", "line", alpha, g, values, reps=3, endpoints=ep)
    return _fixed_order(requests), analysed


def cli_files(runner: Runner, env: dict, rounds: int, seed: int, workdir: Path,
              traced: bool) -> dict:
    """Each request is a fresh ``charid`` process, started and waited for as a
    shell would; traced runs start it through child.py, which records spans."""
    rng = np.random.default_rng(seed)
    peak_kb = 0
    analysed = []
    for _ in range(rounds):
        plan, analysed = cli_plan(rng, workdir)
        for argv, tag, check in plan:
            def call(argv=argv):
                nonlocal peak_kb
                if not traced:
                    done = run_process([sys.executable, "-m", "charid.cli", *argv], env, workdir)
                else:
                    spans = workdir / "spans.json"
                    cmd = [sys.executable, str(BENCH / "child.py"), str(spans), "0", *argv]
                    done = run_process(cmd, env, workdir)
                    if spans.exists():
                        runner.tracer.adopt(json.loads(spans.read_text()))
                        spans.unlink()
                peak_kb = max(peak_kb, done.maxrss_kb)
                return done
            runner.request(tag, call, check)
    info = {"rounds": rounds, "requests_per_round": len(plan), "peak_rss_mb": peak_kb / 1024}
    if traced:
        info["parse_peaks"] = [_parse_peak(argv, env, workdir) for argv in analysed]
    return info


def _parse_peak(argv: list, env: dict, workdir: Path) -> tuple[int, int]:
    """(peak bytes allocated inside parse_input, input bytes) for one analyze
    request, from an extra process after the timed loop, so that tracemalloc
    slows no timing."""
    out = workdir / "peak.json"
    run_process([sys.executable, str(BENCH / "child.py"), str(out), "1", *argv], env, workdir)
    peak = json.loads(out.read_text())
    out.unlink()
    return peak["peak"], peak["bytes"]
