"""Traced run: the CLI's library calls, one span per call.

``run_traced(cases, tracer)`` parses each case and then calls the same
public functions that ``cli._embed_pipeline``, ``cmd_normal_form``,
``cmd_analyze`` and ``cmd_classify2d`` call, in the same order, each inside
a span.  Two extra calls attribute time that the CLI spends inside other
calls: the two full-degree compositions of the normal-form residual check
are re-run on its result (``jets.compose``), and ``flow_jet`` + ``at_time``
are timed on their own (``embedding.flow``) so that ``embedding.ode_s`` is
``time_one_s - flow_s``.  Report formatting is not traced; it is the part
of a germ span that ``trace.coverage`` leaves out.

Spans are kept in memory: name, start, end, parent germ span and germ id.
``per_layer(...)`` sums them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from importlib import resources

from embedflow import (
    BranchChoice,
    NegativePairBlock,
    Obstruction,
    PolyJet,
    classify_2d,
    compose,
    distinguished_normal_form,
    embedding_residual,
    field_resonances,
    flow_jet,
    has_real_log,
    map_resonances,
    parse_germ,
    real_log,
    realify,
    RotationBlock,
    solve_embedding,
    time_one_residuals,
    weakly_nonresonant_branch,
)

# span name -> per-layer time metric; every span is a direct child of its germ
LAYERS = {
    "germfile.parse": "germfile.parse_s",
    "germfile.to_spec": "germfile.to_spec_s",
    "spectral.real_log": "spectral.real_log_s",
    "spectral.branch_search": "spectral.branch_search_s",
    "resonance.scan": "resonance.scan_s",
    "normal_form": "normal_form.s",
    "jets.compose": "jets.compose_s",
    "jets.realify": "jets.realify_s",
    "embedding.solve": "embedding.solve_s",
    "embedding.flow": "embedding.flow_s",
    "embedding.time_one": "embedding.time_one_s",
    "embedding.commutation": "embedding.commutation_s",
    "classify.classify_2d": "classify.classify_2d_s",
}
COUNTS = (
    "spectral.branch_candidates",
    "spectral.branch_searches",
    "spectral.branch_found",
    "resonance.pairs",
    "resonance.weak",
    "normal_form.solved",
    "normal_form.resonant",
    "embedding.obstructions",
    "embedding.blocked",
    "embedding.field_terms",
)
MAXIMA = (
    "normal_form.residual_rel_max",
    "embedding.residual_exp_rel_max",
    "embedding.residual_ode_rel_max",
)


class Tracer:
    """In-memory spans plus the counters and maxima the layers report."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.maxima = dict.fromkeys(MAXIMA, 0.0)

    @contextmanager
    def span(self, name: str, germ: str, parent: int | None = None):
        """Record one span; yields its index, which children use as parent."""
        record = {"name": name, "start": time.perf_counter() - self.origin,
                  "end": None, "parent": parent, "germ": germ}
        self.spans.append(record)
        try:
            yield len(self.spans) - 1
        finally:
            record["end"] = time.perf_counter() - self.origin

    def count(self, key: str, k: int = 1):
        self.counts[key] += k

    def peak(self, key: str, value: float):
        self.maxima[key] = max(self.maxima[key], value)


def run_traced(cases, paths, tracer: Tracer) -> list:
    """Trace each case; returns the error text per case (None when it ran)."""
    errors = []
    for case, path in zip(cases, paths):
        error = None
        with tracer.span("germ", case.ident) as germ:
            try:
                _VERBS[case.verb](
                    case, path, tracer, functools.partial(tracer.span, germ=case.ident, parent=germ)
                )
            except Exception as exc:  # the untraced pass counts the failures
                error = f"{type(exc).__name__}: {exc}"
        errors.append(error)
    return errors


def _parse(case, path, ctx):
    with ctx("germfile.parse"):
        if case.fixture is not None:
            ref = resources.files("embedflow").joinpath("fixtures", f"{case.fixture}.germ")
            text = ref.read_text()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return parse_germ(text)


def _prepare(gf, ctx):
    """cli._prepare: complexify, then the real-log existence check."""
    with ctx("germfile.to_spec"):
        spec, paired, _ = gf.to_spec()
    with ctx("spectral.real_log"):
        has_real_log(gf.blocks)
    return spec, paired


def _branch(gf, paired):
    if gf.branch_k or gf.branch_l:
        return BranchChoice.assign(paired, gf.branch_k, gf.branch_l)
    return BranchChoice.zeros(paired)


def _normal_form(spec, gf, ctx, tracer, scale):
    with ctx("normal_form"):
        result = distinguished_normal_form(spec, tol=gf.tol)
    tracer.count("normal_form.resonant", sum(d[1] for d in result.diagnostics))
    tracer.count("normal_form.solved", sum(d[2] for d in result.diagnostics))
    tracer.peak("normal_form.residual_rel_max", result.residual / scale)
    n, N, mode = spec.dim, spec.degree, spec.mode
    identity = PolyJet.identity(n, N, mode)
    lin = spec.linear.triangular().linear_jet(N, mode)
    F = spec.map_jet()
    with ctx("jets.compose"):
        compose(F, identity + result.transform, degree=N)
        compose(identity + result.transform, lin + result.germ.nonlinear, degree=N)
    return result


def _scale(jet) -> float:
    return max(1.0, jet.to_float().max_abs())


def _trace_normal_form(case, path, tracer, ctx):
    gf = _parse(case, path, ctx)
    spec, _ = _prepare(gf, ctx)
    _normal_form(spec, gf, ctx, tracer, _scale(spec.map_jet()))


def _trace_verify(case, path, tracer, ctx):
    gf = _parse(case, path, ctx)
    spec, paired = _prepare(gf, ctx)
    result = _normal_form(spec, gf, ctx, tracer, _scale(spec.map_jet()))
    G = result.germ
    branch = _branch(gf, paired)
    branch.validate(paired)
    with ctx("spectral.real_log"):
        B = real_log(paired, branch)
    with ctx("embedding.solve"):
        X = solve_embedding(G, B, tol=gf.tol)
    if isinstance(X, Obstruction):
        tracer.count("embedding.obstructions")
        tracer.count("embedding.blocked", len(X.entries))
        return
    tracer.count("embedding.field_terms", len(X.nonlinear.coeffs))
    pairing = paired.pairing()
    if not pairing.trivial:
        with ctx("jets.realify"):
            try:
                realify(X.nonlinear.to_float(), pairing)
            except ValueError:
                pass
    with ctx("embedding.flow"):
        flow_jet(X, min(G.degree, X.degree)).at_time(1.0)
    with ctx("embedding.time_one"):
        r_exp, r_ode = time_one_residuals(X, G)
    with ctx("embedding.commutation"):
        embedding_residual(G, X).max_abs()
    scale = _scale(G.map_jet())
    tracer.peak("embedding.residual_exp_rel_max", r_exp / scale)
    tracer.peak("embedding.residual_ode_rel_max", r_ode / scale)


def _trace_analyze(case, path, tracer, ctx):
    gf = _parse(case, path, ctx)
    with ctx("spectral.real_log"):
        has_real_log(gf.blocks)
    with ctx("germfile.to_spec"):
        _, paired, _ = gf.to_spec()
    with ctx("spectral.real_log"):
        B = real_log(paired, _branch(gf, paired))
    eigen = B.triangular().eigen
    with ctx("resonance.scan"):
        map_resonances(eigen, gf.degree, gf.tol)
        frep = field_resonances(eigen, gf.degree, gf.tol)
    n = len(eigen)
    tracer.count("resonance.pairs", n * sum(math.comb(n + r - 1, r) for r in range(2, gf.degree + 1)))
    tracer.count("resonance.weak", len(frep.weak))
    slots = sum(isinstance(b, (RotationBlock, NegativePairBlock)) for b in paired.blocks)
    with ctx("spectral.branch_search"):
        found = weakly_nonresonant_branch(paired, gf.degree)
    tracer.count("spectral.branch_searches")
    tracer.count("spectral.branch_candidates", 7**slots)
    tracer.count("spectral.branch_found", found is not None)


def _trace_classify2d(case, path, tracer, ctx):
    gf = _parse(case, path, ctx)
    with ctx("classify.classify_2d"):
        classify_2d(gf.blocks)


_VERBS = {
    "normal-form": _trace_normal_form,
    "verify": _trace_verify,
    "analyze": _trace_analyze,
    "classify2d": _trace_classify2d,
}


def per_layer(tracer: Tracer, untraced_s: float) -> dict:
    """Per-layer totals: seconds per layer, counts, maxima, overhead, coverage."""
    seconds = dict.fromkeys(LAYERS.values(), 0.0)
    germ_s = covered = 0.0
    for s in tracer.spans:
        d = s["end"] - s["start"]
        if s["name"] == "germ":
            germ_s += d
        else:
            seconds[LAYERS[s["name"]]] += d
            covered += d
    seconds["embedding.ode_s"] = seconds["embedding.time_one_s"] - seconds["embedding.flow_s"]
    out = dict(seconds)
    c = tracer.counts
    out.update({k: c[k] for k in COUNTS if k not in ("spectral.branch_searches", "spectral.branch_found")})
    out["spectral.branch_found_frac"] = (
        c["spectral.branch_found"] / c["spectral.branch_searches"] if c["spectral.branch_searches"] else 0.0
    )
    out.update(tracer.maxima)
    out["trace.overhead_s"] = germ_s - untraced_s
    out["trace.coverage"] = covered / germ_s if germ_s else 0.0
    out["trace.germ_s"] = germ_s
    return out


# The per-layer metrics of BENCHMARK.json: name -> (unit, source).  Layer
# times that some workload never reaches are reported as their share of the
# traced germ time (".pct"), so that no reported time is a constant zero;
# the seconds are printed and kept in the span file.
REPORTED = {
    "germfile.parse_s": ("s", "germfile.parse_s"),
    "germfile.to_spec_s": ("s", "germfile.to_spec_s"),
    "spectral.real_log_s": ("s", "spectral.real_log_s"),
    **{
        k[:-2] + ".pct": ("%", k)
        for k in (
            "spectral.branch_search_s", "resonance.scan_s", "normal_form.s", "jets.compose_s",
            "jets.realify_s", "embedding.solve_s", "embedding.flow_s", "embedding.time_one_s",
            "embedding.ode_s", "embedding.commutation_s", "classify.classify_2d_s",
        )
    },
    **{k: ("count", k) for k in (
        "spectral.branch_candidates", "resonance.pairs", "resonance.weak", "normal_form.solved",
        "normal_form.resonant", "embedding.obstructions", "embedding.blocked", "embedding.field_terms",
    )},
    **{k: ("ratio", k) for k in (
        "spectral.branch_found_frac", "normal_form.residual_rel_max",
        "embedding.residual_exp_rel_max", "embedding.residual_ode_rel_max", "trace.coverage",
    )},
    "trace.overhead_s": ("s", "trace.overhead_s"),
}


def reported(layers: dict) -> dict:
    """The BENCHMARK.json per-layer metrics as name -> (value, unit)."""
    out = {}
    for name, (unit, src) in REPORTED.items():
        value = layers[src]
        if unit == "%":
            value = 100.0 * value / layers["trace.germ_s"] if layers["trace.germ_s"] else 0.0
        out[name] = (value, unit)
    return out
