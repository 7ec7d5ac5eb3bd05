"""Outside-in tracer: wraps ojaboot's public functions and records spans.

Run as a script it imports ojaboot, installs the wrappers, runs the CLI and
writes the trace as JSON when the CLI returns:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json RUN_ID -- compare --config c.json

A wrapper only calls through, times and counts; it never changes an argument
or a result. The package calls across modules through attribute lookups
(`oja.run`, `linalg.eigh`, ...) and calls its own module functions through
module globals, so replacing the module attribute sees every call.

Each span records id, name, start, end, parent span, thread, a work count, the
CPU time its thread spent inside it, and the run id. The random-draw methods of RngStream run millions of times per run,
so they are not spans: their calls, values and seconds are summed per
(enclosing span, method, thread).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

POOL_SPAN = "harness._parallel_map"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _rows(args, kwargs):
    size = _arg(args, kwargs, 2, "size")
    return 1 if size is None else int(size)


def _pool_width(args, kwargs):
    units, threads = _arg(args, kwargs, 1, "units"), _arg(args, kwargs, 2, "threads")
    if hasattr(units, "__len__") and len(units) > 1 and threads > 1:
        return threads
    return 1


# (module, attribute, work count of one call from its arguments)
SPAN_TARGETS = (
    ("linalg", "eigh", lambda a, k: len(_arg(a, k, 0, "a")) ** 3),
    ("model", "spectral_decompose", None),
    ("model", "sample_x", _rows),
    ("oja", "run", lambda a, k: int(_arg(a, k, 1, "n"))),
    ("bootstrap", "ensemble_step", lambda a, k: _arg(a, k, 0, "ens").replicates.shape[0]),
    ("bootstrap", "bootstrap_covariance", None),
    ("reference", "estimate_M", None),
    ("reference", "chisq_weights", None),
    ("reference", "sample_weighted_chisq", None),
    ("reference", "anticoncentration_check", None),
    ("hoeffding", "hoeffding_term", None),
    ("hoeffding", "hoeffding_sum", None),
    ("hoeffding", "bootstrap_hoeffding_sum", None),
    ("hoeffding", "direct_product", None),
    ("hoeffding", "bootstrap_direct_product", None),
    ("hoeffding", "orthogonality_table", None),
    ("stats", "ecdf", None),
    ("stats", "kolmogorov_distance", None),
    ("harness", "run_sampling_experiment", None),
    ("harness", "run_bootstrap_experiment", None),
    ("harness", "run_reference", None),
    ("harness", "verify", None),
    ("harness", "_parallel_map", _pool_width),
    ("harness", "write_cdf_csv", None),
    ("harness", "write_pooled_csv", None),
    ("harness", "write_summary_json", None),
    ("harness", "render_cdf_svg", None),
)
# RngStream methods summed per enclosing span instead of recorded as spans.
DRAW_TARGETS = ("__init__", "normal", "uniform_sym", "chisq1", "uniform01")
STREAM_INIT = "randgen.RngStream.__init__"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [id, name, start, end, parent, thread, work, cpu]
        self.missing = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = {}  # thread ident -> small index, 0 for the first seen
        self._draws = []  # one dict per thread: (parent, name) -> [calls, values, seconds]
        self._pool = None  # open pool span; parent of spans that start a worker thread's stack

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.draws = defaultdict(lambda: [0, 0, 0.0])
            with self._lock:
                loc.thread = self._threads.setdefault(threading.get_ident(), len(self._threads))
                self._draws.append((loc.thread, loc.draws))
        return loc

    def span(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = self._state()
            stack = loc.stack
            parent = stack[-1] if stack else self._pool
            count = 1 if work is None else work(args, kwargs)
            cpu = time.thread_time()
            start = time.perf_counter()
            with self._lock:
                idx = len(self.spans)
                self.spans.append([idx, name, start, None, parent, loc.thread, count, cpu])
            if name == POOL_SPAN:
                self._pool = idx
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                if name == POOL_SPAN:
                    self._pool = None
                span = self.spans[idx]
                span[3] = time.perf_counter()
                span[7] = time.thread_time() - cpu
        return wrapper

    def draw(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
            loc = self._state()
            acc = loc.draws[(loc.stack[-1] if loc.stack else self._pool, name)]
            acc[0] += 1
            acc[1] += 0 if out is None else getattr(out, "size", 1)
            acc[2] += seconds
            return out
        return wrapper

    def install(self, package) -> None:
        for module_name, attr, work in SPAN_TARGETS:
            module = getattr(package, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.span(f"{module_name}.{attr}", fn, work))
        cls = package.randgen.RngStream
        for attr in DRAW_TARGETS:
            setattr(cls, attr, self.draw(f"randgen.RngStream.{attr}", getattr(cls, attr)))

    def dump(self, **header) -> dict:
        draws = [[parent, name, thread, *acc]
                 for thread, table in self._draws for (parent, name), acc in table.items()]
        return {"run_id": self.run_id, "missing": self.missing, **header,
                "span_fields": ["id", "name", "start", "end", "parent", "thread", "work", "cpu",
                                "run"],
                "spans": [span + [self.run_id] for span in self.spans],
                "draw_fields": ["parent", "name", "thread", "calls", "values", "seconds"],
                "draws": draws}


# -- per-layer metrics from a dumped trace -----------------------------------

REFERENCE_SPANS = ("reference.estimate_M", "reference.chisq_weights",
                   "reference.sample_weighted_chisq", "reference.anticoncentration_check")
HARNESS_SPANS = ("harness.run_sampling_experiment", "harness.run_bootstrap_experiment",
                 "harness.run_reference", "harness.verify")
WRITER_SPANS = ("harness.write_cdf_csv", "harness.write_pooled_csv",
                "harness.write_summary_json", "harness.render_cdf_svg")


def summarize(trace: dict) -> dict:
    """Per-layer counts and self times. A span's self time is its duration
    minus the child spans and draws of the same thread inside it."""
    spans = trace["spans"]
    draws = trace["draws"]
    dur = [end - start for _, _, start, end, *_ in spans]
    self_s = list(dur)
    for idx, _, _, _, parent, thread, *_ in spans:
        if parent is not None and spans[parent][5] == thread:
            self_s[parent] -= dur[idx]
    for parent, _, thread, _, _, seconds in draws:
        if parent is not None and spans[parent][5] == thread:
            self_s[parent] -= seconds

    calls, work, self_by, dur_by = (defaultdict(int), defaultdict(int),
                                    defaultdict(float), defaultdict(float))
    for idx, name, _, _, _, _, count, *_ in spans:
        calls[name] += 1
        work[name] += count
        self_by[name] += self_s[idx]
        dur_by[name] += dur[idx]

    def in_reference(idx):
        while idx is not None:
            if spans[idx][1].startswith("reference."):
                return True
            idx = spans[idx][4]
        return False

    m = {
        "linalg.eigh.calls": calls["linalg.eigh"],
        "linalg.eigh.self_s": self_by["linalg.eigh"],
        "linalg.eigh.dim3_sum": work["linalg.eigh"],
        "model.spectral_decompose.calls": calls["model.spectral_decompose"],
        "model.spectral_decompose.self_s": self_by["model.spectral_decompose"],
        "model.sample_x.rows": work["model.sample_x"],
        "model.sample_x.self_s": self_by["model.sample_x"],
        "randgen.streams": sum(c for _, name, _, c, _, _ in draws if name == STREAM_INIT),
        "randgen.draw_calls": sum(c for _, name, _, c, _, _ in draws if name != STREAM_INIT),
        "randgen.values": sum(v for _, _, _, _, v, _ in draws),
        "randgen.self_s": sum(s for *_, s in draws),
        "oja.run.calls": calls["oja.run"],
        "oja.steps": work["oja.run"],
        "oja.run.self_s": self_by["oja.run"],
        "oja.steps_per_s": work["oja.run"] / dur_by["oja.run"] if calls["oja.run"] else 0.0,
        "bootstrap.ensemble_step.calls": calls["bootstrap.ensemble_step"],
        "bootstrap.replicate_steps": work["bootstrap.ensemble_step"],
        "bootstrap.ensemble_step.self_s": self_by["bootstrap.ensemble_step"],
        "bootstrap.replicate_steps_per_s": (
            work["bootstrap.ensemble_step"] / dur_by["bootstrap.ensemble_step"]
            if calls["bootstrap.ensemble_step"] else 0.0),
        "bootstrap.bootstrap_covariance.self_s": self_by["bootstrap.bootstrap_covariance"],
        "reference.mc_values": sum(v for parent, _, _, _, v, _ in draws if in_reference(parent)),
        "hoeffding.terms": calls["hoeffding.hoeffding_term"],
        "hoeffding.self_s": sum(s for name, s in self_by.items() if name.startswith("hoeffding.")),
        "stats.ecdf.calls": calls["stats.ecdf"],
        "stats.ecdf.self_s": self_by["stats.ecdf"],
        "stats.kolmogorov_distance.self_s": self_by["stats.kolmogorov_distance"],
        "harness.parallel_efficiency": _parallel_efficiency(spans),
        "harness.write.self_s": sum(self_by[name] for name in WRITER_SPANS),
    }
    m.update({f"{name}.self_s": self_by[name] for name in REFERENCE_SPANS + HARNESS_SPANS})
    m.update({f"{name}.s": dur_by[name] for name in HARNESS_SPANS})
    return m


def _parallel_efficiency(spans) -> float:
    """CPU time of the pool's units over pool wall x pool width. Wall time of a
    unit would also count the time its thread waits for the interpreter lock."""
    pools = {idx for idx, name, *_ in spans if name == POOL_SPAN}
    if not pools:
        return 0.0
    busy = sum(span[7] for span in spans if span[4] in pools)
    capacity = sum((spans[idx][3] - spans[idx][2]) * spans[idx][6] for idx in pools)
    return busy / capacity


def main(argv) -> int:
    trace_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE.json RUN_ID -- <ojaboot arguments>")
    start = time.perf_counter()
    import ojaboot
    import ojaboot.cli
    import_s = time.perf_counter() - start
    tracer = Tracer(run_id)
    tracer.install(ojaboot)
    start = time.perf_counter()
    code = ojaboot.cli.main(cli_args)
    main_s = time.perf_counter() - start
    with open(trace_path, "w") as fh:
        json.dump(tracer.dump(cli_import_s=import_s, cli_main_s=main_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
