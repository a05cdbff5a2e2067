"""Self-tests of the benchmark: python3 -m pytest bench -q (from the repo root)."""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent


def requests(workload, seed, count):
    return list(itertools.islice(workloads.WORKLOADS[workload](seed), count))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = requests(workload, 5, 60)
    assert first == requests(workload, 5, 60)
    assert first != requests(workload, 6, 60)


def test_generator_does_not_import_nfkit():
    code = "import checks, workloads, sys; print(any(m.startswith('nfkit') for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_exact_multisets_follow_the_value_distribution():
    sampler = workloads.exact_multisets(3)
    assert len(sampler.items) == 56
    assert sampler.cdf[-1] == pytest.approx(1.0)


def test_distinguished_families_have_two_generators():
    for l1, l2, d1, d2 in workloads._distinguished_families()[:20]:
        gens = workloads.distinguished_generators(l1, l2, d1, d2)
        assert gens == sorted([(l1, 0, d1), (0, l2, d2)])


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def _reports(cli, tmp_path, workload, count=40):
    out = []
    for req, argv in run.Batch(workload, 3, tmp_path).first(count):
        _lat, code, report, _err = run.call(cli, argv)
        out.append((req, code, report))
    return out


def _tamper(doc):
    """Add one to the numerator of the first coefficient of a polynomial with two terms.

    A lone term could be rescaled without breaking any identity, and the
    lowest term moves the defining identity within the checked degrees.
    """
    if isinstance(doc, dict):
        terms = doc.get("terms")
        if isinstance(terms, list) and len(terms) >= 2:
            num, _, den = terms[0]["c"].partition("/")
            terms[0]["c"] = str(int(num) + 1) + (f"/{den}" if den else "")
            return True
        return any(_tamper(v) for _k, v in sorted(doc.items()))
    if isinstance(doc, list):
        return any(_tamper(v) for v in doc)
    return False


CASES = [
    ("centralizer-exact", "centralizer"),
    ("normalizer-truncated", "centralizer"),
    ("normalizer-truncated", "normalizer"),
    ("invariants-multiplier", "reduce"),
    ("invariants-multiplier", "jacobi"),
]


@pytest.mark.parametrize("workload, kind", CASES)
def test_verifier_rejects_one_changed_coefficient(cli, tmp_path, workload, kind):
    tampered = 0
    for req, code, report in _reports(cli, tmp_path, workload):
        if req.kind != kind:
            continue
        assert checks.verify(workload, req, code, report) is None
        bad = json.loads(report)
        if _tamper(bad):
            assert checks.verify(workload, req, code, json.dumps(bad)) is not None
            tampered += 1
    assert tampered >= 2


def test_verifier_rejects_wrong_listings_and_exit_codes(cli, tmp_path):
    seen = set()
    for req, code, report in _reports(cli, tmp_path, "centralizer-exact"):
        if req.kind not in ("resonances", "pdnf-basis", "check") or req.kind in seen:
            continue
        seen.add(req.kind)
        assert checks.verify("centralizer-exact", req, code, report) is None
        doc = json.loads(report)
        key = {"resonances": "r", "pdnf-basis": "count", "check": "n"}[req.kind]
        doc[key] += 1
        assert checks.verify("centralizer-exact", req, code, json.dumps(doc)) is not None
        assert checks.verify("centralizer-exact", req, 2, report) == "exit status 2"
    assert seen == {"resonances", "pdnf-basis", "check"}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_reports_are_byte_identical_and_wrappers_go(cli, tmp_path, workload):
    items = run.Batch(workload, 4, tmp_path).first(12)
    plain, _ = run.run_list(cli, items)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.leftover_wrappers()
        traced, _ = run.run_list(cli, items, tracer)
    finally:
        tracer.uninstall()
    assert [r[1:3] for r in plain] == [r[1:3] for r in traced]
    assert tracing.leftover_wrappers() == []
    kernel = sys.modules["nfkit.linalg"].mat_kernel
    assert sys.modules["nfkit.centralizer"].mat_kernel is kernel
    assert not hasattr(kernel, "bench_wrapper")
    assert {row[2] for row in tracer.spans} == set(range(len(items)))
    times, counts = tracing.layer_metrics(tracer.spans, tracer.attrs, len(items))
    assert times["cli.self_ms"] > 0 and counts["linalg.kernel_calls"] > 0


def test_self_time_subtracts_children():
    spans = [
        [0, -1, 0, "cli", "main", 0.0, 10.0, 10.0],
        [1, 0, 0, "linalg", "mat_kernel", 1.0, 4.0, 5.0],
        [2, 0, 0, "fields", "lie_bracket", 6.0, 8.0, 8.0],
    ]
    assert tracing.self_times(spans) == {0: 10.0 - 4.0 - 2.0, 1: 3.0, 2: 2.0}


def test_fails_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "centralizer-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
