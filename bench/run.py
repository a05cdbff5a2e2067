#!/usr/bin/env python3
"""nfkit benchmark: seeded requests through ``nfkit.cli.main``, in process.

One closed-loop client in one process: the next request starts when the
previous report is complete.  Inputs come from the seed only (see
workloads.py) and are written as CLI JSON files during set-up; every
report is verified after the timed phase (see checks.py).

    python3 bench/run.py --workload centralizer-exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` a fixed list of requests runs once untraced and once
under span wrappers (tracing.py), and the last line carries the per-layer
metrics.  Run from the root of a checkout; nfkit is imported from its
``src/`` directory and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

SETUP_REPEATS = 3
WARMUP_REQUESTS = 4
CHUNK = 64
# calibrate() takes this long at the reference speed; see Scale and the README
REFERENCE_S = 0.002
CALIBRATE_EVERY = 0.05
RAW_LIMIT = 1.3
DIGEST_REQUESTS = 16
MIN_SAMPLES = 100
# traced requests per second of --seconds: each list runs twice (untraced, traced)
TRACE_RATE = {"centralizer-exact": 12, "normalizer-truncated": 8, "invariants-multiplier": 18}

END_TO_END = {
    "requests_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics on the result line; each is exercised by all three workloads
# or is an exact count.  The full split is printed above the result line.
PER_LAYER = {
    "cli.self_ms": "ms",
    "serialize.self_ms": "ms",
    "serialize.load_ms": "ms",
    "serialize.dump_ms": "ms",
    "spectrum.self_ms": "ms",
    "spectrum.build_ms": "ms",
    "resonance.self_ms": "ms",
    "linalg.self_ms": "ms",
    "linalg.kernel_ms": "ms",
    "linalg.rank_ms": "ms",
    "fields.self_ms": "ms",
    "fields.pdnf_ms": "ms",
    "spectrum.completion_calls": "count",
    "spectrum.completion_solutions": "count",
    "resonance.enum_calls": "count",
    "resonance.found": "count",
    "linalg.kernel_calls": "count",
    "linalg.kernel_cells": "count",
    "linalg.kernel_max_rows": "count",
    "linalg.kernel_max_cols": "count",
    "linalg.kernel_dim": "count",
    "linalg.kernel_max_bits": "count",
    "linalg.lp_calls": "count",
    "fields.bracket_calls": "count",
    "jacobi.sweep_kernels": "count",
    "serialize.report_bytes": "bytes",
    "trace.overhead_pct": "%",
}


class SetupError(Exception):
    pass


def load_cli():
    """Fresh import of ``nfkit.cli`` from this checkout's ``src/``."""
    if not (SRC / "nfkit" / "cli.py").is_file():
        raise SetupError(f"no nfkit sources under {SRC}")
    for name in [k for k in sys.modules if k == "nfkit" or k.startswith("nfkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    cli = importlib.import_module("nfkit.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"nfkit was imported from {cli.__file__}, not from {SRC}")
    return cli


class Batch:
    """Requests of one stream with their files written and argv built."""

    def __init__(self, workload, seed, workdir, tag="main"):
        self.stream = workloads.WORKLOADS[workload](seed, tag)
        self.workdir = workdir
        self.tag = tag
        self.items = []

    def extend(self, count):
        for _ in range(count):
            req = next(self.stream)
            stem = self.workdir / f"{self.tag}-{len(self.items):05d}"
            argv = [req.kind, "--spectrum", f"{stem}.spectrum.json"]
            Path(argv[-1]).write_text(json.dumps(req.spectrum), encoding="utf-8")
            if req.field is not None:
                argv += ["--field", f"{stem}.field.json"]
                Path(argv[-1]).write_text(json.dumps(req.field), encoding="utf-8")
            self.items.append((req, argv + list(req.flags)))

    def first(self, count):
        if len(self.items) < count:
            self.extend(count - len(self.items))
        return self.items[:count]


def call(cli, argv):
    """Run one request; returns (latency s, exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed request, not a failed run
            code = -1
            err.write(traceback.format_exc())
    return perf_counter() - start, code, out.getvalue(), err.getvalue()


def calibrate():
    """Fixed pure-Python work (Fraction sums, dict updates) that never touches nfkit."""
    start = perf_counter()
    total = Fraction(0)
    acc = {}
    for i in range(1, 600):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 13, i % 5)
        acc[key] = acc.get(key, 0) + i * i
    return perf_counter() - start


class Scale:
    """Calibration runs interleaved with measured work.

    The host's CPU speed swings by half within seconds, in wall and CPU
    time alike.  Each measured interval is multiplied by REFERENCE_S over
    the mean of the calibrations just before and just after it, which
    turns it into time at the reference speed.
    """

    def __init__(self):
        self.points = []  # (intervals measured so far, calibration seconds)
        self.last = 0.0
        self.mark(0)

    def mark(self, done):
        self.points.append((done, calibrate()))
        self.last = perf_counter()

    def maybe(self, done):
        if perf_counter() - self.last >= CALIBRATE_EVERY:
            self.mark(done)

    def factors(self, count):
        """Reference seconds per measured second for intervals 0..count-1."""
        out = []
        j = 0
        for i in range(count):
            while self.points[j + 1][0] <= i:
                j += 1
            out.append(2 * REFERENCE_S / (self.points[j][1] + self.points[j + 1][1]))
        return out


def set_up(workload, seed, workdir):
    """Import nfkit, generate and write the first inputs, warm up; timed."""
    start = perf_counter()
    cli = load_cli()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    batch = Batch(workload, seed, workdir)
    batch.extend(CHUNK)
    # the warm-up inputs are the same for every seed, so set-up work is too
    for _req, argv in Batch(workload, 0, workdir, tag="warmup").first(WARMUP_REQUESTS):
        call(cli, argv)
    return perf_counter() - start, cli, batch


def timed_phase(cli, batch, seconds):
    """Closed loop until the requests took ``seconds`` at the reference speed.

    Each run then does about the same work whatever the host's speed; a
    slow host is cut off at RAW_LIMIT times ``seconds`` of request time.
    Calibration, and input generation beyond set-up, are not timed.
    Returns the results and each request's reference-speed factor.
    """
    results = []
    scale = Scale()
    raw = scaled = 0.0
    while scaled < seconds and raw < RAW_LIMIT * seconds:
        if len(results) == len(batch.items):
            batch.extend(CHUNK)
        result = call(cli, batch.items[len(results)][1])
        results.append(result)
        raw += result[0]
        scaled += result[0] * REFERENCE_S / scale.points[-1][1]
        scale.maybe(len(results))
    scale.mark(len(results))
    return results, scale.factors(len(results))


def run_list(cli, items, tracer=None):
    """Every item once; returns the results and their reference-speed factors."""
    results = []
    scale = Scale()
    for index, (_req, argv) in enumerate(items):
        if tracer is not None:
            tracer.request = index
        results.append(call(cli, argv))
        scale.maybe(len(results))
    scale.mark(len(results))
    return results, scale.factors(len(results))


def scaled_total(results, factors):
    return sum(r[0] * f for r, f in zip(results, factors))


def digest(results):
    h = hashlib.sha256()
    for _lat, code, out, _err in results:
        h.update(f"{code}\n".encode())
        h.update(out.encode())
    return h.hexdigest()


def check_digest(workload, seed, cli, batch, results):
    """Compare the first reports with the recorded digest; None when unrecorded."""
    items = batch.first(DIGEST_REQUESTS)
    head = list(results[:DIGEST_REQUESTS])
    head += [call(cli, argv) for _req, argv in items[len(head):]]
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    want = recorded.get(str(seed))
    return None if want is None else digest(head) == want


def known_defect(cli, seed, workdir):
    """pdnf-basis on a spectrum without resonances: the correct report is an empty basis."""
    lam = workloads.no_resonance_spectrum(seed)
    path = workdir / "defect.spectrum.json"
    path.write_text(json.dumps(workloads.spectrum_doc(lam)), encoding="utf-8")
    _lat, code, out, err = call(cli, ["pdnf-basis", "--spectrum", str(path)])
    fixed = code == 0 and json.loads(out) == {"basis": [], "count": 0}
    status = "fixed" if fixed else f"still failing, exit {code} {err.strip()}"
    return f"known_defect pdnf-basis on diag{tuple(lam)} (no resonances): {status}"


def verify_all(workload, items, results):
    failures = []
    for (req, _argv), (_lat, code, out, err) in zip(items, results):
        reason = checks.verify(workload, req, code, out)
        if reason is not None:
            failures.append(f"{req.kind} {' '.join(req.flags)}: {reason} {err.strip()[-200:]}")
    return failures


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, workdir):
    setups = []
    scale = Scale()
    for k in range(SETUP_REPEATS):
        took, cli, batch = set_up(args.workload, args.seed, workdir)
        setups.append(took)
        scale.mark(k + 1)
    setup_s = sorted(t * f for t, f in zip(setups, scale.factors(SETUP_REPEATS)))
    results, factors = timed_phase(cli, batch, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    items = batch.items[: len(results)]
    failures = verify_all(args.workload, items, results)
    digest_ok = check_digest(args.workload, args.seed, cli, batch, results)
    lat = sorted(r[0] * f * 1000.0 for r, f in zip(results, factors))
    raw = sorted(r[0] * 1000.0 for r in results)
    n = len(lat)
    ok = n - len(failures)
    metrics = {
        "requests_per_s": metric(ok / scaled_total(results, factors), "1/s"),
        "req_p50_ms": metric(statistics.median(lat), "ms"),
        "req_p90_ms": metric(percentile(lat, 0.9), "ms"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines[1] += f" (n={n})"
    lines[2] += f" (n={n}, {n - math.ceil(0.9 * n)} samples beyond)"
    lines += [
        f"error_rate {len(failures) / n:.6g} ({len(failures)} of {n} requests)",
        f"setup_s samples {' '.join(f'{t:.4f}' for t in setup_s)}",
        f"unscaled wall time: {ok / (sum(raw) / 1000.0):.6g} requests/s, "
        f"p50 {statistics.median(raw):.6g} ms, p90 {percentile(raw, 0.9):.6g} ms, "
        f"mean speed factor {statistics.fmean(factors):.4f}",
    ]
    if n < MIN_SAMPLES:
        lines.append(f"warning: {n} samples, p90 wants at least {MIN_SAMPLES}")
    lines += finish_lines(args, cli, workdir, failures, digest_ok)
    return lines, n, failures, digest_ok, metrics


def run_traced(args, workdir):
    _took, cli, batch = set_up(args.workload, args.seed, workdir)
    items = batch.first(max(20, round(TRACE_RATE[args.workload] * args.seconds)))
    plain, plain_factors = run_list(cli, items)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_factors = run_list(cli, items, tracer)
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    failures = verify_all(args.workload, items, plain)
    failures += [
        f"traced report differs for request {i}"
        for i, (a, b) in enumerate(zip(plain, traced))
        if (a[1], a[2]) != (b[1], b[2])
    ]
    digest_ok = check_digest(args.workload, args.seed, cli, batch, plain)
    wall_plain = scaled_total(plain, plain_factors)
    wall_traced = scaled_total(traced, traced_factors)
    times, counts = tracing.layer_metrics(tracer.spans, tracer.attrs, len(items))
    speed = statistics.median(traced_factors)
    times = {name: value * speed for name, value in times.items()}
    counts["serialize.report_bytes"] = sum(len(r[2].encode()) for r in traced)
    counts["trace.overhead_pct"] = 100.0 * (wall_traced / wall_plain - 1.0)
    values = {**times, **counts}
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
    total = sum(times[f"{layer}.self_ms"] for layer in tracing.LAYERS)
    lines = [
        f"traced {len(items)} requests, reference-speed seconds: "
        f"untraced {wall_plain:.4f}, traced {wall_traced:.4f}",
        "self time per module, ms per request:",
    ]
    for layer in sorted(tracing.LAYERS, key=lambda k: -times[f"{k}.self_ms"]):
        ms = times[f"{layer}.self_ms"]
        lines.append(f"  {layer:12s} {ms:10.4f} {100 * ms / total:6.2f} %")
    lines += [f"{name} {value:.6g} ms" for name, value in times.items()
              if not name.endswith(".self_ms")]
    lines += [f"{name} {value:.6g}" for name, value in counts.items()]
    lines += finish_lines(args, cli, workdir, failures, digest_ok)
    return lines, len(items), failures, digest_ok, metrics


def finish_lines(args, cli, workdir, failures, digest_ok):
    lines = [f"failure: {f}" for f in failures[:10]]
    if digest_ok is None:
        lines.append(f"digest: none recorded for seed {args.seed}")
    else:
        lines.append(f"digest: {'matches' if digest_ok else 'DIFFERS from'} the recorded one")
    lines.append(known_defect(cli, args.seed, workdir))
    return lines


def run_all(args):
    """Every workload in its own process; one table of end-to-end metrics."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        print(proc.stdout, end="")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    print()
    header = ["workload"] + [f"{k} [{u}]" for k, u in END_TO_END.items()] + ["error_rate"]
    print(" | ".join(header))
    for name, result in rows:
        cells = [name] + [f"{result['metrics'][k]['value']:.4g}" for k in END_TO_END]
        cells.append(f"{result['failed'] / result['attempted']:.4g}")
        print(" | ".join(cells))
    return 0 if all(r["correct"] for _n, r in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        run = run_traced if args.trace else run_untraced
        lines, attempted, failures, digest_ok, metrics = run(args, workdir)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in lines:
        print(line)
    result = {
        "correct": not failures and digest_ok is not False,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
