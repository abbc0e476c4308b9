"""Tests of the benchmark's own code: span arithmetic, tracer, output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import csv
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checks import check_outputs  # noqa: E402
from tracer import TARGETS, Span, Target, Tracer, self_times  # noqa: E402
from workloads import Invocation  # noqa: E402


def test_self_times_subtracts_direct_children_only():
    # a[0,10] -> b[1,4], c[5,9] -> d[6,7]; then a second, childless b[11,12].
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 5.0, 9.0, 0),
        Span("d", 6.0, 7.0, 2),
        Span("b", 11.0, 12.0, -1),
    ]
    times = self_times(spans)
    assert times["a"] == (1, pytest.approx(3.0))
    assert times["b"] == (2, pytest.approx(4.0))
    assert times["c"] == (1, pytest.approx(3.0))
    assert times["d"] == (1, pytest.approx(1.0))


def test_tracer_wraps_every_namespace_and_reports_missing_names():
    import muxepi.cli
    import muxepi.experiments
    import muxepi.graph

    original = muxepi.graph.generate_ba
    missing = (
        Target("graph", "no_such_function", "graph.no_such_function"),
        Target("graph", "NoSuchClass.__init__", "graph.NoSuchClass_init"),
        Target("no_such_layer", "run", "no_such_layer.run"),
    )
    tracer = Tracer(targets=TARGETS + missing)
    tracer.install()
    try:
        assert tracer.absent == [t.metric for t in missing]
        assert muxepi.experiments.generate_ba is muxepi.graph.generate_ba is muxepi.cli.generate_ba
        assert muxepi.graph.generate_ba is not original
        muxepi.experiments.generate_ba(30, 2, seed=1)
        spans, _ = tracer.take()
    finally:
        tracer.uninstall()
    assert muxepi.experiments.generate_ba is original
    times = self_times(spans)
    assert times["graph.generate_ba"][0] == 1
    assert times["graph.Graph_init"][0] == 1  # the nested constructor is a child span
    assert spans[1].parent == 0


def _problems(record, fingerprints):
    record = dict(record)
    run.fingerprint(record, *fingerprints)
    run.content_check([record], fingerprints[1])
    return record["problems"]


def _tiny_op(tmp_path, operation, setup=()):
    import muxepi.cli as cli

    setup_dirs, fingerprints = {}, ({}, {})
    for inv in setup:
        record = run.invoke(cli, inv, 3, tmp_path / inv.name, setup_dirs)
        setup_dirs[inv.name] = str(tmp_path / inv.name)
        assert _problems(record, fingerprints) == []
    records = [run.invoke(cli, inv, 3, tmp_path / "op" / inv.name, setup_dirs) for inv in operation]
    return records, fingerprints


def test_flipped_byte_in_heatmap_fails_the_operation(tmp_path):
    heatmap = Invocation("heatmap", "heatmap", ("n=300", "lambdas=0.5", "betas=0.3,0.6", "replications=2"))
    (record,), fingerprints = _tiny_op(tmp_path, (heatmap,))
    assert _problems(record, fingerprints) == []
    path = Path(record["out_dir"]) / "heatmap.csv"
    data = bytearray(path.read_bytes())
    data[2] ^= 0x20  # "# muxepi" -> "# Muxepi": still a well-formed CSV
    path.write_bytes(bytes(data))
    assert any("sha256" in p for p in _problems(record, fingerprints))


def _rewrite_threshold_row(out: Path, key: str, scale: float) -> None:
    with open(out / "threshold.csv", encoding="ascii") as fh:
        (row,) = list(csv.DictReader(fh))
    row[key] = repr(float(row[key]) * scale)
    with open(out / "threshold.csv", "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row), lineterminator="\n")
        writer.writeheader()
        writer.writerow(row)


def test_wrong_beta_c_or_gamma_fails_the_oracle(tmp_path):
    generate = Invocation("generate", "generate", ("n=300",))
    threshold = Invocation(
        "threshold",
        "threshold",
        ("gamma=0.5", "awareness_edges={setup:generate}/awareness.edges", "contact_edges={setup:generate}/contact.edges"),
    )
    (record,), _ = _tiny_op(tmp_path, (threshold,), (generate,))
    out = Path(record["out_dir"])
    assert check_outputs("threshold", record["settings"], str(out)) == []
    _rewrite_threshold_row(out, "beta_c", 1 + 1e-5)
    problems = check_outputs("threshold", record["settings"], str(out))
    assert len(problems) == 1 and "oracle" in problems[0]
    # A gamma muxepi substituted for the requested one is caught even if beta_c matches it.
    _rewrite_threshold_row(out, "beta_c", 1 / (1 + 1e-5))
    _rewrite_threshold_row(out, "gamma", 0.5)
    problems = check_outputs("threshold", record["settings"], str(out))
    assert len(problems) == 1 and "gamma" in problems[0]
