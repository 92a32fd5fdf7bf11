"""Traced in-process replay of the benchmark's CLI calls.

Run as ``python bench/tracer.py PLAN.json RESULT.json`` with ``ridgeprec``
importable; ``bench/run.py --trace 1`` does this in a child process. The
plan lists the calls (name, argv, whether to time a 1- and 2-thread pair).

The replay goes through ``ridgeprec.cli.main`` three ways:

1. untraced, once per call: the baseline for ``trace.overhead``;
2. untraced at ``--threads 1`` and ``--threads 2`` for calls that ask for
   a thread pair;
3. traced, once per call. Before this pass every function in ``SPANS`` and
   ``COUNTS`` is replaced, wherever a ``ridgeprec`` module or class binds
   it (found by identity), by a wrapper that records a span (name, start,
   end, parent, call id, thread) or bumps a counter. ``numpy.linalg``
   entry points are wrapped on the ``numpy.linalg`` module as well.

Spans stay in memory until the end, when they are written as CSV and
reduced to per-layer metrics. A span's self time is its duration minus the
durations of its children on the same thread. Work a call hands to worker
threads is parented to the call's root span and attributed to an enclosing
span by time interval within the same call.
"""

import contextlib
import csv
import hashlib
import importlib
import io
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# span name -> (module, attribute path)
SPANS = {
    "linalg.eigh": ("numpy.linalg", "eigh"),
    "linalg.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "linalg.cholesky": ("numpy.linalg", "cholesky"),
    "linalg.eig_sym": ("ridgeprec.linalg", "eig_sym"),
    "linalg.check_symmetric": ("ridgeprec.linalg", "check_symmetric"),
    "matio.read_data": ("ridgeprec.matio", "read_data"),
    "matio.read_matrix": ("ridgeprec.matio", "read_matrix"),
    "matio.matrix_to_csv": ("ridgeprec.matio", "matrix_to_csv"),
    "estimators.fit": ("ridgeprec.estimators", "fit"),
    "cv.select_lambda": ("ridgeprec.cv", "select_lambda"),
    "ggm.partial_correlations": ("ridgeprec.ggm", "partial_correlations"),
    "ggm.fit_lfdr": ("ridgeprec.ggm", "fit_lfdr"),
    "ggm.mixture_density": ("ridgeprec.ggm", "LfdrFit.mixture_density"),
    "ggm.edge_probabilities": ("ridgeprec.ggm", "edge_probabilities"),
    "ggm.select_edges": ("ridgeprec.ggm", "select_edges"),
    "ggm.sparsify": ("ridgeprec.ggm", "sparsify"),
    "simulate.risk_curve": ("ridgeprec.simulate", "risk_curve"),
    "moments.mc_moments": ("ridgeprec.moments", "mc_moments"),
    "moments.bias_approx_type2": ("ridgeprec.moments", "bias_approx_type2"),
}

# Called too often (fmt: once per printed value) or too deep inside other
# spans (the per-kind fits) to time; counted per enclosing span instead.
COUNTS = {
    "matio.fmt": ("ridgeprec.matio", "fmt"),
    "estimators.alt_ridge1": ("ridgeprec.estimators", "alt_ridge1"),
    "estimators.alt_ridge2": ("ridgeprec.estimators", "alt_ridge2"),
}


def _file_bytes(args, kwargs, result):
    source = args[0] if args else kwargs.get("source")
    return {"bytes": os.path.getsize(source)} if isinstance(source, (str, os.PathLike)) else {}


def _selection(args, kwargs, result):
    return {
        "grid_n": int(result.grid.size),
        "index": int(np.flatnonzero(result.grid == result.lambda_star)[0]),
    }


# span name -> fn(args, kwargs, result) -> dict of facts kept with the span
PROBES = {
    "linalg.eigh": lambda a, k, r: {"p3": int(np.shape(a[0])[-1]) ** 3},
    "matio.read_data": _file_bytes,
    "matio.read_matrix": _file_bytes,
    "cv.select_lambda": _selection,
    "ggm.fit_lfdr": lambda a, k, r: {"eta0": float(r.eta0)},
    "ggm.mixture_density": lambda a, k, r: {"kernel_evals": int(np.size(a[1])) * 3 * a[0].values.size},
    "ggm.edge_probabilities": lambda a, k, r: {"edges": len(r)},
    "ggm.select_edges": lambda a, k, r: {"selected": len(r)},
    "simulate.risk_curve": lambda a, k, r: {"replicates": a[0].reps * len(a[0].sample_sizes)},
}


class Tracer:
    """In-memory span and counter store shared by all wrappers."""

    def __init__(self):
        self.spans = []  # (sid, name, t0, t1, parent sid, call, thread id)
        self.facts = {}  # sid -> probe dict
        self.counts = Counter()  # (name, call, enclosing span name) -> calls
        self.probe_errors = Counter()
        self.call = 0
        self.root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_wrapper(self, name, fn):
        probe = PROBES.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else self.root
            sid = next(self._ids)
            stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, self.call, threading.get_ident()))
            if probe is not None:
                try:
                    self.facts[sid] = probe(args, kwargs, result)
                except Exception:  # a changed API must not abort the replay
                    self.probe_errors[name] += 1
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            key = (name, self.call, stack[-1][1] if stack else "cli.main")
            with self._lock:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_call(self, main, argv):
        """Replay one call under a root span; returns (exit code, wall s, stdout)."""
        self.call += 1
        self.root = sid = next(self._ids)
        stack = self._stack()
        stack.append((sid, "cli.main"))
        try:
            return replay(main, argv)
        finally:
            stack.pop()


def _namespaces():
    """Every ridgeprec module and every class defined in one."""
    mods = [m for n, m in list(sys.modules.items()) if m and (n == "ridgeprec" or n.startswith("ridgeprec."))]
    classes = [
        v for m in mods for v in vars(m).values()
        if isinstance(v, type) and v.__module__.startswith("ridgeprec")
    ]
    return mods + classes


def install(tracer: Tracer) -> list:
    """Wrap every target wherever it is bound; returns the names not found."""
    missing = []
    spaces = _namespaces()
    targets = [(n, t, tracer.span_wrapper) for n, t in SPANS.items()]
    targets += [(n, t, tracer.count_wrapper) for n, t in COUNTS.items()]
    for name, (module, path), make in targets:
        holder = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            holder = getattr(holder, part, None)
        orig = getattr(holder, attr, None) if holder is not None else None
        if orig is None:
            missing.append(name)
            continue
        wrapper = make(name, orig)
        places = [(holder, attr)] + [
            (ns, key) for ns in spaces for key, value in list(vars(ns).items()) if value is orig
        ]
        for ns, key in places:
            setattr(ns, key, wrapper)
    return missing


def replay(main, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, time.perf_counter() - t0, out.getvalue().encode()


def with_threads(argv, threads: int) -> list:
    argv = list(argv)
    if "--threads" in argv:
        argv[argv.index("--threads") + 1] = str(threads)
        return argv
    return argv + ["--threads", str(threads)]


# ---------------------------------------------------------------------------
# Reduction of spans to metrics


class SpanIndex:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.by_name = defaultdict(list)
        self.child_time = defaultdict(float)
        self.parent = {}
        for s in tracer.spans:
            self.by_name[s[1]].append(s)
            self.child_time[s[4]] += s[3] - s[2]
            self.parent[s[0]] = s[4]
        self.names = {s[0]: s[1] for s in tracer.spans}

    def calls(self, name) -> int:
        return len(self.by_name[name])

    def total(self, name) -> float:
        return sum(s[3] - s[2] for s in self.by_name[name])

    def self_time(self, name) -> float:
        return sum(s[3] - s[2] - self.child_time[s[0]] for s in self.by_name[name])

    def fact(self, name, key) -> list:
        return [self.tracer.facts[s[0]][key] for s in self.by_name[name] if s[0] in self.tracer.facts]

    def under(self, name, ancestor) -> int:
        """Spans ``name`` with an ``ancestor`` span on their parent chain."""
        hits = 0
        for s in self.by_name[name]:
            sid = self.parent.get(s[0])
            while sid in self.names and self.names[sid] != ancestor:
                sid = self.parent.get(sid)
            hits += sid in self.names
        return hits

    def within(self, name, outer) -> int:
        """Spans ``name`` of any thread inside an ``outer`` span's interval of the same call."""
        hits = 0
        for o in self.by_name[outer]:
            hits += sum(1 for s in self.by_name[name] if s[5] == o[5] and o[2] <= s[2] and s[3] <= o[3])
        return hits


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, stdout_bytes: int) -> dict:
    ix = SpanIndex(tracer)
    fits = ix.calls("estimators.fit")
    grid_points = sum(ix.fact("cv.select_lambda", "grid_n"))
    replicates = sum(ix.fact("simulate.risk_curve", "replicates"))
    eta0 = ix.fact("ggm.fit_lfdr", "eta0")
    m = {
        "matio.read_s": ix.total("matio.read_data") + ix.total("matio.read_matrix"),
        "matio.read_bytes": sum(ix.fact("matio.read_data", "bytes") + ix.fact("matio.read_matrix", "bytes")),
        "matio.format_s": ix.total("matio.matrix_to_csv"),
        "matio.fmt_calls": sum(v for k, v in tracer.counts.items() if k[0] == "matio.fmt"),
        "matio.bytes_out": stdout_bytes,
        "linalg.eigh_calls": ix.calls("linalg.eigh"),
        "linalg.eigh_s": ix.total("linalg.eigh"),
        "linalg.eigh_p3": sum(ix.fact("linalg.eigh", "p3")),
        "linalg.eigvalsh_calls": ix.calls("linalg.eigvalsh"),
        "linalg.cholesky_calls": ix.calls("linalg.cholesky"),
        "linalg.eig_sym_calls": ix.calls("linalg.eig_sym"),
        "linalg.eig_sym_self_s": ix.self_time("linalg.eig_sym"),
        "linalg.check_symmetric_calls": ix.calls("linalg.check_symmetric"),
        "linalg.check_symmetric_s": ix.total("linalg.check_symmetric"),
        "estimators.fit_calls": fits,
        "estimators.fit_s": ix.total("estimators.fit"),
        "estimators.fit_self_s": ix.self_time("estimators.fit"),
        "estimators.check_symmetric_per_fit": _ratio(ix.under("linalg.check_symmetric", "estimators.fit"), fits),
        "cv.select_lambda_s": ix.total("cv.select_lambda"),
        "cv.grid_points": grid_points,
        "cv.fits_per_grid_point": _ratio(ix.within("estimators.fit", "cv.select_lambda"), grid_points),
        "cv.eigh_per_grid_point": _ratio(ix.within("linalg.eigh", "cv.select_lambda"), grid_points),
        "ggm.partial_correlations_s": ix.total("ggm.partial_correlations"),
        "ggm.fit_lfdr_s": ix.total("ggm.fit_lfdr"),
        "ggm.mixture_density_calls": ix.calls("ggm.mixture_density"),
        "ggm.kernel_evals": sum(ix.fact("ggm.mixture_density", "kernel_evals")),
        "ggm.mixture_density_s": ix.total("ggm.mixture_density"),
        "ggm.edge_probabilities_calls": ix.calls("ggm.edge_probabilities"),
        "ggm.edge_probabilities_s": ix.total("ggm.edge_probabilities"),
        "ggm.select_edges_s": ix.total("ggm.select_edges"),
        "ggm.sparsify_s": ix.total("ggm.sparsify"),
        "ggm.edges": max(ix.fact("ggm.edge_probabilities", "edges"), default=0),
        "ggm.selected": sum(ix.fact("ggm.select_edges", "selected")),
        "ggm.eta0": eta0[-1] if eta0 else -1.0,
        "simulate.risk_curve_s": ix.total("simulate.risk_curve"),
        "simulate.replicates": replicates,
        "simulate.fits_per_replicate": _ratio(ix.within("estimators.fit", "simulate.risk_curve"), replicates),
        "simulate.eigh_per_replicate": _ratio(ix.within("linalg.eigh", "simulate.risk_curve"), replicates),
        "simulate.s_per_replicate": _ratio(ix.total("simulate.risk_curve"), replicates),
        "moments.mc_moments_s": ix.total("moments.mc_moments"),
        "moments.fits": sum(
            v for k, v in tracer.counts.items()
            if k[0].startswith("estimators.alt_ridge") and k[2] == "moments.mc_moments"
        ),
        "moments.bias_approx_s": ix.total("moments.bias_approx_type2"),
    }
    return m


def call_facts(tracer: Tracer, call: int) -> dict:
    """Per-call facts: penalty selections and worker threads that ran fits."""
    spans = [s for s in tracer.spans if s[5] == call]
    sel = [tracer.facts.get(s[0], {}) for s in spans if s[1] == "cv.select_lambda"]
    fit_threads = {s[6] for s in spans if s[1] == "estimators.fit"}
    return {
        "selections": [{"index": f.get("index"), "grid_n": f.get("grid_n")} for f in sel],
        "fit_threads": len(fit_threads),
        "eta0": [tracer.facts.get(s[0], {}).get("eta0") for s in spans if s[1] == "ggm.fit_lfdr"],
        "mixture_density_calls": sum(1 for s in spans if s[1] == "ggm.mixture_density"),
    }


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sid", "name", "start_s", "end_s", "parent", "call", "thread"])
        w.writerows(tracer.spans)


def main(plan_path: str, out_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    from ridgeprec.cli import main as cli_main

    calls = plan["calls"]
    result = {c["name"]: {} for c in calls}
    for c in calls:
        code, wall, _ = replay(cli_main, c["argv"])
        result[c["name"]].update(untraced_s=wall, untraced_exit=code)
    for c in (c for c in calls if c["thread_pair"]):
        for t in (1, 2):
            code, wall, _ = replay(cli_main, with_threads(c["argv"], t))
            result[c["name"]][f"t{t}_s"] = wall

    tracer = Tracer()
    missing = install(tracer)
    bytes_out = 0
    for c in calls:
        code, wall, out = tracer.run_call(cli_main, c["argv"])
        bytes_out += len(out)
        result[c["name"]].update(
            traced_s=wall,
            traced_exit=code,
            stdout_sha256=hashlib.sha256(out).hexdigest(),
            **call_facts(tracer, tracer.call),
        )
    write_spans(tracer, plan["spans_out"])
    report = {
        "calls": result,
        "layers": layer_metrics(tracer, bytes_out),
        "spans": len(tracer.spans),
        "unresolved_targets": missing,
        "probe_errors": dict(tracer.probe_errors),
    }
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
