"""Tests of the benchmark itself, at mu <= 6 and one job.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
from checks import check, outcome  # noqa: E402
from run import end_to_end, tail_percentile  # noqa: E402
from tracing import END, PARENT, RID, START, Tracer, layer_metrics, span_times  # noqa: E402
from worker import run_requests  # noqa: E402
from workloads import POOL_SEED, Request, Stratum, make_request  # noqa: E402

from lyubeznik.cli import main as cli_main  # noqa: E402

SMALL = (
    Stratum("ti", "ideal", (5, 6), 4, 4, ordered=True),
    Stratum("ts", "squarefree", (6,), 2, 6),
    Stratum("tg", "graph", (5,), 2, 5),
)


def _write_small(tmp_path) -> dict[str, dict]:
    entries = {}
    for stratum in SMALL:
        for entry in gen.generate_stratum(7, stratum):
            (tmp_path / entry["name"]).write_text(entry["text"])
            entries[entry["name"]] = entry
    return entries


def _request(tmp_path, cmd, name, *flags, expect=0) -> Request:
    return make_request((cmd, name) + flags, str(tmp_path), expect)


def _small_requests(tmp_path, entries) -> list[Request]:
    order = entries["ti-01.ideal"]["orders"][0]
    flags = ("--max-exhaustive", "6")
    return [
        _request(tmp_path, "search", "ti-01.ideal", *flags),
        _request(tmp_path, "analyze", "ti-00.ideal", "--search", "exhaustive",
                 *flags),
        _request(tmp_path, "graph", "tg-00.graph", "--check-props", *flags),
        _request(tmp_path, "oracle-betti", "ts-00.ideal"),
        _request(tmp_path, "oracle-betti", "ts-00.ideal", "--field", "p:32003"),
        _request(tmp_path, "verify", "ts-01.ideal"),
        _request(tmp_path, "analyze", "ts-01.ideal"),
        _request(tmp_path, "covers", "ti-01.ideal", "--order", order),
        _request(tmp_path, "complex", "ti-01.ideal", "--order", order),
        _request(tmp_path, "radical-gens", "ti-01.ideal", "--order", order),
        _request(tmp_path, "search", "ti-01.ideal", "--max-exhaustive", "5",
                 expect=2),
    ]


def _reference(requests, records) -> dict:
    return {req.key: {"code": rec["code"], "sha256": rec["sha256"]}
            for req, rec in zip(requests, records)}


def test_generator_is_deterministic(tmp_path):
    for stratum in SMALL:
        first = gen.generate_stratum(3, stratum)
        assert first == gen.generate_stratum(3, stratum)
        assert first != gen.generate_stratum(4, stratum)
        for entry in first:
            assert entry["mu"] in stratum.mus
            assert all(sorted(map(int, o.split(","))) ==
                       list(range(1, entry["mu"] + 1)) for o in entry["orders"])
    a = gen.generate(POOL_SEED, str(tmp_path / "a"))
    b = gen.generate(POOL_SEED, str(tmp_path / "b"))
    assert a == b
    for name in a:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_pool_matches_the_recorded_reference(tmp_path):
    with open(os.path.join(BENCH, "reference.json")) as handle:
        recorded = json.load(handle)["inputs"]
    entries = gen.generate(POOL_SEED, str(tmp_path))
    assert {n: e["sha256"] for n, e in entries.items()} == \
        {n: e["sha256"] for n, e in recorded.items()}


def test_generated_shapes(tmp_path):
    entries = _write_small(tmp_path)
    for name, entry in entries.items():
        props = gen.describe(str(tmp_path / name))
        assert props["mu"] == entry["mu"]
        if name.startswith("ts"):
            assert props["squarefree"]
        if name.startswith("ti"):
            assert not props["squarefree"]


def test_tampered_output_is_counted_as_failed(tmp_path):
    entries = _write_small(tmp_path)
    requests = _small_requests(tmp_path, entries)
    records = run_requests(requests, cli_main)
    reference = _reference(requests, records)
    assert [check(q, r, reference) for q, r in zip(requests, records)] == \
        [None] * len(requests)

    search, out = requests[0], records[0]["stdout"]
    tampered = outcome(search, 0, out.replace('"schema": 1', '"schema": 2'), "")
    assert check(search, tampered, reference) is not None
    # a wrong claim with a matching digest is caught by the semantic check
    payload = json.loads(out)
    payload["tobsL"] += 1
    lying = outcome(search, 0, json.dumps(payload), "")
    assert check(search, lying, dict(reference, **{search.key: {
        "code": 0, "sha256": lying["sha256"]}})) is not None
    # outputs of other subcommands are reduced to their digest
    covers = records[requests.index(next(q for q in requests
                                         if q.cmd == "covers"))]
    assert covers["stdout"] is None and covers["bytes"] > 0
    refusal = records[-1]
    assert refusal["code"] == 2 and refusal["refused"]
    assert check(requests[-1], outcome(requests[-1], 2, "", ""),
                 reference) is not None

    result = {"peak_rss_mb": 1.0, "requests": [
        {"cmd": q.cmd, "key": q.key, "wall": r["end"] - r["start"],
         "scaled": r["scaled"], "failure": None}
        for q, r in zip(requests, records)]}
    second = json.loads(json.dumps(result))
    second["requests"][3]["failure"] = "output differs from the recorded digest"
    metrics, _ = end_to_end([result, second])
    assert metrics["failed_ratio"][0] == pytest.approx(1 / (2 * len(requests)))


def test_request_time_leaves_out_the_slowest_pass():
    passes = [{"peak_rss_mb": rss, "requests": [
        {"cmd": "search", "key": "a", "wall": 9.0, "scaled": a,
         "failure": None},
        {"cmd": "covers", "key": "b", "wall": 9.0, "scaled": b,
         "failure": None}]}
        for rss, a, b in ((10.0, 0.5, 2.0), (12.0, 0.75, 1.0), (11.0, 0.25, 3.0))]
    metrics, _ = end_to_end(passes)
    assert metrics["cmd.search_s"][0] == pytest.approx(0.375)
    assert metrics["cmd.covers_s"][0] == pytest.approx(1.5)
    assert metrics["wall_s"][0] == pytest.approx(1.875)
    assert metrics["peak_rss_mb"][0] == 12.0


def test_scaled_time_cancels_the_host_speed():
    from speed import REFERENCE_S, scaled

    assert scaled(1.0, [REFERENCE_S, REFERENCE_S]) == pytest.approx(1.0)
    # a host running at half speed takes twice as long for both
    assert scaled(2.0, [2 * REFERENCE_S] * 3) == pytest.approx(1.0)
    assert scaled(3.0, [REFERENCE_S, 2 * REFERENCE_S]) == pytest.approx(2.0)


def test_speed_sampler_ticks_while_active():
    import signal
    import time

    from speed import TICK_S, SpeedSampler

    previous = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    with sampler:
        deadline = time.perf_counter() + 3.5 * TICK_S
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.loops) >= 2
    assert 0 < sampler.spent < 3.5 * TICK_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_spans_nest_and_self_times_sum_to_wall(tmp_path):
    entries = _write_small(tmp_path)
    requests = _small_requests(tmp_path, entries)
    from lyubeznik import subsets

    original = subsets.tables_for
    tracer = Tracer()
    tracer.install()
    try:
        records = run_requests(requests, cli_main, tracer)
    finally:
        tracer.uninstall()
    assert subsets.tables_for is original
    spans = tracer.spans
    assert spans
    for span in spans:
        assert span[START] <= span[END]
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert parent[START] <= span[START] and span[END] <= parent[END]
            assert parent[RID] == span[RID]
        record = records[span[RID]]
        assert record["start"] <= span[START] and span[END] <= record["end"]
    _, self_times = span_times(spans)
    assert min(self_times) > -1e-9

    metrics = layer_metrics(tracer, records, requests)
    layer_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    walls = sum(r["end"] - r["start"] for r in records)
    assert layer_sum == pytest.approx(walls, rel=1e-9)
    assert metrics["invariants.orders_scanned"][0] > 0
    assert metrics["orders.orders_yielded"][0] >= \
        metrics["invariants.orders_scanned"][0]
    assert metrics["linalg.rank_calls"][0] > 0
    assert metrics["covers.sets_emitted"][0] > 0
    assert metrics["oracle.lattice_size"][0] > 0


def test_tail_percentile_leaves_ten_requests_above():
    for n in (11, 36, 44, 60, 200):
        pct = tail_percentile(n)
        above = n - -(-pct * n // 100)
        assert above >= 10
        assert n - -(-(pct + 1) * n // 100) < 10 or pct == 99


def test_request_lists_are_seeded():
    from workloads import build_requests

    from workloads import STRATA

    rng = random.Random(0)
    inputs = {f"{s.name}-{k:02d}": {"stratum": s.name, "orders": []}
              for s in STRATA.values() for k in range(s.pool)}
    first = build_requests("search", 5, "in", inputs)
    assert first == build_requests("search", 5, "in", inputs)
    assert first != build_requests("search", rng.randint(6, 99), "in", inputs)
    assert all(r.argv[r.argv.index("--jobs") + 1] == "1" for r in first)
