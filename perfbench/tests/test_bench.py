"""The benchmark's own tests, on tiny inputs.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import child
import spans
import workloads
from run import END_TO_END
from spans import DISPATCH, Span, Tracer, layer_metrics, self_times

import primelab.cli
import primelab.largegap
import primelab.sieve
import primelab.stats
from primelab.maynard import build_quadratic_forms

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def _gap_scan_parents(t: Tracer, invocation: str) -> list[str]:
    return [
        t.spans[s.parent].name if s.parent is not None else None
        for s in t.spans
        if s.name == "sieve.gap_scan" and s.invocation == invocation
    ]


def test_wrapper_catches_gap_scan_at_every_binding_site(tracer):
    original = primelab.sieve.gap_scan.__wrapped__
    for module in (primelab.cli, primelab.largegap, primelab.stats, primelab.sieve):
        assert module.gap_scan is not original

    tracer.invocation = "via-cli"
    with redirect_stdout(io.StringIO()):
        tracer.open(DISPATCH, "cli")
        assert primelab.cli.dispatch(["gaps", "--lo", "0", "--hi", "1000"]) == 0
        tracer.close(raised=False)
    tracer.invocation = "via-largegap"
    assert primelab.largegap.max_gap_G(1000).gap == 20
    tracer.invocation = "via-stats"
    primelab.stats.pigeonhole_experiment(100, 10, 0, exact=True)

    assert _gap_scan_parents(tracer, "via-cli") == [DISPATCH]
    assert _gap_scan_parents(tracer, "via-largegap") == ["largegap.max_gap_G"]
    assert _gap_scan_parents(tracer, "via-stats") == ["stats.pigeonhole_experiment"]


def test_uninstall_restores_every_binding(tracer):
    wrapped = primelab.cli.gap_scan
    tracer.uninstall()
    for module in (primelab.cli, primelab.largegap, primelab.stats, primelab.sieve):
        assert module.gap_scan is wrapped.__wrapped__


def test_raising_call_is_recorded_and_reraised(tracer):
    with pytest.raises(primelab.ValidationError):
        primelab.largegap.max_gap_G(1)
    (span,) = tracer.spans
    assert span.name == "largegap.max_gap_G" and span.raised


def _span(name, layer, start, end, parent, invocation="inv", raised=False):
    return Span(name, layer, start, end, parent, invocation, raised)


def test_self_time_of_nested_spans():
    tree = [
        _span(DISPATCH, "cli", 0.0, 10.0, None),
        _span("largegap.max_gap_G", "largegap", 1.0, 4.0, 0),
        _span("sieve.gap_scan", "sieve", 2.0, 3.5, 1),
        _span("stats.erdos_kac", "stats", 5.0, 9.0, 0),
        _span("sieve.arith_tables", "sieve", 5.5, 8.0, 3),
    ]
    assert self_times(tree) == pytest.approx([3.0, 1.5, 1.5, 1.5, 2.5])


def test_layer_self_times_account_for_the_dispatch_span():
    tree = [
        _span(DISPATCH, "cli", 0.0, 10.0, None, "scan-2e8"),
        _span("largegap.max_gap_G", "largegap", 1.0, 4.0, 0, "scan-2e8"),
        _span("sieve.gap_scan", "sieve", 2.0, 3.5, 1, "scan-2e8"),
        _span("stats.erdos_kac", "stats", 5.0, 9.0, 0, "scan-2e8", raised=True),
        _span("sieve.arith_tables", "sieve", 5.5, 8.0, 3, "scan-2e8", raised=True),
    ]
    m = layer_metrics(tree, [], wall_s=10.5, output_bytes=7)
    assert m["cli.scan-2e8.wall_s"] == 10.0
    assert m["sieve.gap_scan.dense.self_s"] == pytest.approx(1.5)
    assert m["sieve.gap_scan.sparse.self_s"] == 0
    layer_self = sum(v for k, v in m.items() if k.endswith(".self_s") and k != "cli.dispatch.self_s")
    total = layer_self + m["trace.unlisted_self_s"] + m["cli.dispatch.self_s"]
    assert total == pytest.approx(10.0)
    assert m["trace.uncovered_s"] == pytest.approx(0.5)
    # one failing call into each layer, however deep the exception went
    assert m["stats.errors"] == 1 and m["sieve.errors"] == 1 and m["cli.errors"] == 0


def test_every_declared_metric_is_reported():
    m = layer_metrics([], [], wall_s=1.0, output_bytes=0)
    assert list(m) == [name for name, _, _ in spans.PER_LAYER]


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == spans.PER_LAYER
    labels = {inv.label for w in workloads.WORKLOADS.values() for inv in w.invocations}
    assert {label for _, _, label in spans.SELF_TIME_METRICS if label} <= labels


def test_monte_carlo_reference_values():
    pair = build_quadratic_forms(3, 2)
    assert pair.basis[0] == (0, 0)
    assert (pair.A1[0][0], pair.A2[0][0]) == (Fraction(1, 6), Fraction(1, 4))


TINY = workloads.Invocation(
    "tiny", ("sieve", "--lo", "0", "--hi", "1000"), "tiny",
    workloads.equal(prime_count=168, last_prime=997),
)


def test_check_passes_on_the_expected_value():
    assert child.check_invocation(TINY, child.run_invocation(list(TINY.argv), None)) == []


def test_perturbed_expected_value_fails_its_check_without_crashing():
    perturbed = workloads.Invocation(
        "tiny", TINY.argv, "tiny", workloads.equal(prime_count=169, last_prime=997)
    )
    problems = child.check_invocation(perturbed, child.run_invocation(list(TINY.argv), None))
    assert problems == ["prime_count: got 168, expected 169"]


def test_exception_escaping_dispatch_is_a_failed_invocation(monkeypatch):
    def broken(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(primelab.cli, "dispatch", broken)
    run = child.run_invocation(list(TINY.argv), None)
    assert run["rc"] is None and "RuntimeError: boom" in run["error"]
    assert child.check_invocation(TINY, run)


def test_failed_checks_raise_the_error_rate(monkeypatch, capsys):
    perturbed = workloads.Invocation(
        "tiny", TINY.argv, "tiny", workloads.equal(prime_count=169)
    )
    tiny = workloads.Workload("tiny", "tiny", (TINY, perturbed))
    monkeypatch.setitem(child.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(sys, "argv", ["child.py", "--workload", "tiny", "--seconds", "0"])
    assert child.main() == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (report["attempted"], report["failed"]) == (2, 1)
    assert report["failures"] == ["pass 0 tiny: prime_count: got 168, expected 169"]
