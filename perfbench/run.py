"""embedflow benchmark: end-to-end CLI runs on generated germs, plus a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload normalize --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

Workloads are ``normalize``, ``verify`` and ``spectrum`` (see ``gen.py``).
Load model: closed loop, one client, one germ at a time, in this process.
Each sample is one ``embedflow.cli.main(argv)`` call on a germ file written
beforehand; its stdout is captured and checked (``check.py``).  A run
does a fixed amount of work: ``round(--seconds / ROUND_S)`` rounds of the
workload's families, which takes about ``--seconds`` on the machine the
round times were measured on.  Every run therefore has the same mix, and a
faster or slower program is measured on exactly the same germs.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` half as many rounds run untraced
and then traced (``tracing.py``), the spans go to
``.perfbench/spans-<workload>-<seed>.json`` and the JSON holds the
per-layer metrics.  Nothing is timed before the package is imported from
``src/`` next to this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import os

# single-threaded numerics, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import check
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 7
DEFAULT_SEED = 1
# Seconds one round takes on a 2-CPU x86 KVM guest (Python 3.11, numpy 2.4).
ROUND_S = {"normalize": 1.9, "verify": 5.8, "spectrum": 2.7}
HARD_STOP_S = 150.0  # a run that has not finished by then stops early


def _import_embedflow():
    """Import the package from ``src/`` only; exit 2 when it is not there."""
    sys.path.insert(0, SRC)
    try:
        import embedflow
        from embedflow import cli
    except ImportError as exc:
        print(f"cannot import embedflow from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not os.path.abspath(embedflow.__file__).startswith(SRC + os.sep):
        print(f"embedflow was imported from {embedflow.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return embedflow, cli


def _write(work: str, case) -> str | None:
    if case.text is None:
        return None
    path = os.path.join(work, f"{case.ident}.germ")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(case.text)
    return path


def _first_round(workload: str, seed: int, work: str):
    """Generate and write the first round of germs: the set-up work."""
    stream = gen.cases(workload, seed)
    first = [next(stream) for _ in range(gen.cycle_length(workload))]
    return stream, first, [_write(work, c) for c in first]


def _setup_probe(args) -> int:
    """Child process: import, generate, write; exits where timing would start."""
    _import_embedflow()
    work = os.path.join(OUT, f"probe-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        _first_round(args.workload, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes from start to the first timed germ."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Sample(NamedTuple):
    case: gen.Case
    latency: float  # seconds of the cli.main call
    causes: list  # failure causes, empty when the germ passed


def _call(cli, argv):
    """One timed CLI call: (seconds, exit code, stdout, exception)."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    gc.collect()  # every call starts from the same collector state
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as e:  # an uncaught exception is a failed germ
        exc = e
    return time.perf_counter() - t0, code, out.getvalue(), exc


def _run_case(cli, parse_machine, case, path) -> Sample:
    latency, code, out, exc = _call(cli, case.argv(path))
    return Sample(case, latency, check.causes(case, code, parse_machine(out), exc))


def _tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    s = sorted(latencies)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s)


def _end_to_end(samples, setup_s: float) -> dict:
    lat = [s.latency for s in samples]
    ok = sum(1 for s in samples if not s.causes)
    by_mode = {
        m: [s.latency for s in samples if s.case.mode == m] for m in ("exact", "float")
    }
    return {
        "germs_per_s": (ok / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (_tail(lat)[0], "s"),
        "exact.latency_p50_s": (statistics.median(by_mode["exact"]), "s"),
        "float.latency_p50_s": (statistics.median(by_mode["float"]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _host_line(args, np_version: str) -> str:
    return (
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np_version} threads=1 seed={args.seed} workload={args.workload} "
        f"seconds={args.seconds} trace={args.trace}"
    )


def _failure_lines(samples) -> list:
    failed = [s for s in samples if s.causes]
    by_cause: dict = {}
    for s in failed:
        key = (s.causes[0], s.case.verb, s.case.mode)
        by_cause[key] = by_cause.get(key, 0) + 1
    lines = [
        f"germs: attempted={len(samples)} failed={len(failed)} "
        f"failed_frac={len(failed) / len(samples):.4f}"
    ]
    for (cause, verb, mode), k in sorted(by_cause.items()):
        known = " (known defect)" if (verb, cause, mode) in check.KNOWN_DEFECTS else ""
        lines.append(f"  failed {k:4d}  {cause}  [{verb}, {mode}]{known}")
    return lines


def _result(samples, metrics: dict) -> str:
    failures = [(s.case, c) for s in samples for c in s.causes[:1]]
    return json.dumps({
        "correct": not check.unknown(failures),
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _rounds(args) -> int:
    """Fixed number of rounds: --seconds of work at the nominal round time.

    A traced run spends half of it untraced and half traced.
    """
    share = 0.5 if args.trace else 1.0
    return max(1, round(share * args.seconds / ROUND_S[args.workload]))


def _cases(args, stream, first, paths, work, rounds) -> list:
    """The germs of ``rounds`` rounds, written to files: (case, path) pairs."""
    pairs = list(zip(first, paths))
    for case in itertools.islice(stream, (rounds - 1) * gen.cycle_length(args.workload)):
        pairs.append((case, _write(work, case)))
    return pairs


def _measure(cli, parse_machine, pairs) -> list:
    """Run every germ once, in order; stop early only past HARD_STOP_S."""
    samples = []
    start = time.perf_counter()
    for case, path in pairs:
        samples.append(_run_case(cli, parse_machine, case, path))
        if time.perf_counter() - start > HARD_STOP_S:
            break
    return samples


def _trace(args, pairs, samples):
    """Traced pass over the germs just measured; writes the span file."""
    import tracing

    tracer = tracing.Tracer()
    cases, paths = zip(*pairs[: len(samples)])
    errors = tracing.run_traced(cases, paths, tracer)
    layers = tracing.per_layer(tracer, sum(s.latency for s in samples))
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "per_layer": layers,
                   "errors": {c.ident: e for c, e in zip(cases, errors) if e},
                   "spans": tracer.spans}, fh)
    print(f"spans: {span_file}")
    counts: dict = {}
    for span in tracer.spans:
        counts[span["name"]] = counts.get(span["name"], 0) + 1
    print("span counts: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    for key, value in layers.items():
        print(f"  {key:34s} {value:.6g}")
    top = max((k for k in tracing.LAYERS.values()), key=layers.get)
    print(f"largest self time: {top}")
    return tracing.reported(layers)


def _run_workload(args) -> int:
    embedflow, cli = _import_embedflow()
    import numpy

    setup_s = None if args.trace else _setup_seconds(args)
    rounds = _rounds(args)
    print(f"embedflow benchmark: workload={args.workload}, {rounds} rounds of "
          f"{gen.cycle_length(args.workload)} germs")
    print(_host_line(args, numpy.__version__))
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        stream, first, paths = _first_round(args.workload, args.seed, work)
        pairs = _cases(args, stream, first, paths, work, rounds)
        samples = _measure(cli, embedflow.parse_machine, pairs)
        for line in _failure_lines(samples):
            print(line)
        if args.trace:
            metrics = _trace(args, pairs, samples)
        else:
            metrics = _end_to_end(samples, setup_s)
            _, pct = _tail([s.latency for s in samples])
            for key, (v, unit) in metrics.items():
                note = f"  (p{pct:.1f} of {len(samples)} samples)" if key == "latency_tail_s" else ""
                print(f"  {key:22s} {v:.6g} {unit}{note}")
            failed = sum(1 for s in samples if s.causes)
            print(f"  {'failed_frac':22s} {failed / len(samples):.6g} ratio  "
                  f"({failed} of {len(samples)}; not in the JSON metrics, see README)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(_result(samples, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("normalize", "verify", "spectrum", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args)
    if args.workload != "all":
        return _run_workload(args)
    for workload in ("normalize", "verify", "spectrum"):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        subprocess.run(cmd, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
