"""Spans around the calls into each layer of charid, recorded from outside.

The traced run replaces public functions under the names the calling module
binds them (``charid.identify.spectrum``, ``charid.cli.parse_input``, ...)
with wrappers that record a span: name, layer, parent, start, end and an
optional amount of work.  The program itself is not edited.  Spans stay in
memory until the run ends; :func:`layer_metrics` then derives per-request
times, each layer's self time and each layer's call count.

A layer is one of charid's modules.  ``numpy.fft.fftn`` is wrapped only to be
counted: its spans are transparent, so they take no time from the span that
called them.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

LAYERS = ("cli", "samples", "circle", "fourier", "identify", "finite")

#: Spans in this layer are counted but never subtract from their parent.
TRANSPARENT = "numpy"


def _size(args, kwargs):
    return args[0].size


def _table_size(args, kwargs):
    return args[0].group.size


def _hom_pairs(args, kwargs):
    trials = args[1] if len(args) > 1 else kwargs.get("trials", 256)
    return trials + 1  # the (0, 0) pair is always added


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0])


def _output_bytes(args, kwargs):
    path = args[3] if len(args) > 3 else kwargs["output"]
    return os.path.getsize(path) if os.path.exists(path) else 0


#: (module, attribute, span name, layer, work) patched for in-process calls.
LIBRARY_TARGETS = (
    ("charid.identify", "identify_torus", "identify.identify_torus", "identify", None),
    ("charid.identify", "identify_line", "identify.identify_line", "identify", None),
    ("charid.identify", "homomorphism_residual", "identify.homomorphism_residual",
     "identify", _hom_pairs),
    ("charid.identify", "spectrum", "fourier.spectrum", "fourier", _size),
    ("charid.identify", "top_peaks", "fourier.top_peaks", "fourier", None),
    ("charid.identify", "dominant_frequency", "fourier.dominant_frequency", "fourier", None),
    ("charid.identify", "principal_angles", "samples.line_reduce", "samples", None),
    ("charid.identify", "sample_character_line", "samples.line_reduce", "samples", None),
    ("charid.identify", "pointwise_div", "samples.line_reduce", "samples", None),
    ("numpy.fft", "fftn", "numpy.fftn", TRANSPARENT, None),
)

#: Names the CLI module binds, patched inside a traced ``charid`` process.
CLI_TARGETS = (
    ("charid.cli", "main", "cli.main", "cli", None),
    ("charid.cli", "run", "cli.run", "cli", None),
    ("charid.cli", "parse_input", "cli.parse_input", "cli", _file_bytes),
    ("charid.cli", "generate", "cli.generate", "cli", _output_bytes),
    ("charid.cli", "unit_deviation", "circle.unit_check", "circle", None),
    ("charid.cli", "classify", "identify.classify", "identify", None),
    ("charid.cli", "is_homomorphism_exhaustive", "finite.is_homomorphism_exhaustive",
     "finite", _table_size),
    ("charid.cli", "identify_finite", "finite.identify_finite", "finite", None),
)

#: Functions the library workloads call themselves, wrapped in the traced run.
API_TARGETS = {
    "classify": ("identify.classify", "identify", None),
    "is_homomorphism_exhaustive": ("finite.is_homomorphism_exhaustive", "finite",
                                   _table_size),
    "identify_finite": ("finite.identify_finite", "finite", None),
    "enumerate_characters": ("finite.enumerate_characters", "finite", None),
}


class Tracer:
    """Spans in a flat list: [name, layer, parent index, start, end, work]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def open(self, name: str, layer: str, work=None) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, parent, time.perf_counter(), 0.0, work])
        self._open.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, layer: str, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
                if work is not None:
                    self.spans[sid][5] = work(args, kwargs)

        return traced

    def patch(self, targets) -> None:
        for module, attr, name, layer, work in targets:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, layer, work))

    def adopt(self, child_spans: list[list]) -> None:
        """Append spans recorded in another process under the open span."""
        base, parent = len(self.spans), self._open[-1]
        for name, layer, par, t0, t1, work in child_spans:
            self.spans.append([name, layer, parent if par < 0 else base + par, t0, t1, work])


def _totals(spans):
    """Inclusive and self seconds of every span, and the root request of each."""
    n = len(spans)
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * n
    root = [0] * n
    for i, (name, layer, parent, *_rest) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0 and layer != TRANSPARENT:
            child[parent] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)], root


def layer_metrics(spans, requests: int, all_pairs_cap: int, parse_peaks=()) -> dict:
    """Per-layer metrics of one traced run, in the units the names give.

    Times are per request of the workload unless named as a mean per call
    (``_us``).  Rates divide work by the same time.  A metric whose layer did
    no work in this workload reads 0.
    """
    dur, own, root = _totals(spans)
    incl: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    work: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    small = [0.0, 0]
    all_pairs = [0.0, 0.0]
    sampled = 0.0
    identify_finite = [0.0, 0]
    ffts_in_finite = 0
    finite_requests = 0
    process = 0.0
    cli_requests = 0
    for i, (name, layer, parent, t0, t1, w) in enumerate(spans):
        incl[name] = incl.get(name, 0.0) + dur[i]
        self_by_name[name] = self_by_name.get(name, 0.0) + own[i]
        if isinstance(w, (int, float)):
            work[name] = work.get(name, 0.0) + w
        if layer in layer_self:
            layer_self[layer] += own[i]
            layer_calls[layer] += 1
        if name == "request":
            finite_requests += w == "finite"
        elif name == "finite.is_homomorphism_exhaustive":
            if w <= 256:
                small[0] += dur[i]
                small[1] += 1
            if w <= all_pairs_cap:
                all_pairs[0] += dur[i]
                all_pairs[1] += w * (w + 1) / 2
            else:
                sampled += dur[i]
        elif name == "finite.identify_finite":
            identify_finite[0] += dur[i]
            identify_finite[1] += 1
        elif name == "numpy.fftn":
            ffts_in_finite += spans[root[i]][5] == "finite"
        elif name == "cli.main":
            process += dur[root[i]] - dur[i]
            cli_requests += 1

    def per_request(name):
        return 1e3 * incl.get(name, 0.0) / requests

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    peak, parsed = (sum(x) for x in zip(*parse_peaks)) if parse_peaks else (0, 0)
    m = {
        "cli.parse_ms": 1e3 * self_by_name.get("cli.parse_input", 0.0) / requests,
        "cli.parse_mb_per_s": rate(work.get("cli.parse_input", 0.0) / 1e6,
                                   self_by_name.get("cli.parse_input", 0.0)),
        "cli.parse_peak_ratio": rate(peak, parsed),
        "cli.report_ms": 1e3 * self_by_name.get("cli.run", 0.0) / requests,
        "cli.generate_ms": per_request("cli.generate"),
        "cli.generate_mb_per_s": rate(work.get("cli.generate", 0.0) / 1e6,
                                      incl.get("cli.generate", 0.0)),
        "cli.process_ms": 1e3 * rate(process, cli_requests),
        "circle.unit_check_ms": per_request("circle.unit_check"),
        "samples.construct_ms": per_request("samples.construct"),
        "samples.line_reduce_ms": per_request("samples.line_reduce"),
        "fourier.spectrum_ms": per_request("fourier.spectrum"),
        "fourier.spectrum_msamples_per_s": rate(work.get("fourier.spectrum", 0.0) / 1e6,
                                                incl.get("fourier.spectrum", 0.0)),
        "fourier.top_peaks_ms": per_request("fourier.top_peaks"),
        "fourier.dominant_frequency_ms": per_request("fourier.dominant_frequency"),
        "identify.self_ms": 1e3 * sum(
            self_by_name.get(n, 0.0)
            for n in ("identify.classify", "identify.identify_torus", "identify.identify_line")
        ) / requests,
        "identify.hom_residual_ms": per_request("identify.homomorphism_residual"),
        "identify.hom_pairs_per_s": rate(work.get("identify.homomorphism_residual", 0.0),
                                         incl.get("identify.homomorphism_residual", 0.0)),
        "finite.small_check_us": 1e6 * rate(small[0], small[1]),
        "finite.all_pairs_ms": 1e3 * all_pairs[0] / requests,
        "finite.all_pairs_mpairs_per_s": rate(all_pairs[1] / 1e6, all_pairs[0]),
        "finite.sampled_ms": 1e3 * sampled / requests,
        "finite.identify_us": 1e6 * rate(identify_finite[0], identify_finite[1]),
        "finite.enumerate_ms": per_request("finite.enumerate_characters"),
        "finite.dft_per_request": rate(ffts_in_finite, finite_requests),
    }
    for layer in LAYERS:
        m[f"self.{layer}_ms"] = 1e3 * layer_self[layer] / requests
        m[f"calls.{layer}"] = layer_calls[layer] / requests
    return m
