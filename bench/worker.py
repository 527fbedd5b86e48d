"""One pass over a workload's requests, in a fresh interpreter.

Drives ``lyubeznik.cli.main(argv)`` in-process, closed loop with one
client: each request starts when the previous one has returned.  The
host's speed is timed before and after each request and sampled while
it runs (``speed.py``).  Right after each request, outside its timed
span, its output is reduced to what the checks need
(``checks.outcome``); the checks run after the last request.

    PYTHONPATH=src python3 bench/worker.py --workload NAME --seed N \
        --inputs DIR --trace 0|1 --out RESULT.json [--spans SPANS.json]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check, outcome  # noqa: E402
from speed import SpeedSampler, loop_seconds, scaled  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import build_requests  # noqa: E402


def run_requests(requests, main, tracer: Tracer | None = None) -> list[dict]:
    """Issue each request once; keep its times and its output's outcome.

    ``scaled`` is the request's time at the reference speed, from the
    loop times just before, during and just after it.  The raw times
    (``start``, ``end``) include the sampler's ticks, about 1%.
    """
    records = []
    before = loop_seconds()
    for rid, request in enumerate(requests):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.rid = rid
        sampler = SpeedSampler()
        start = perf_counter()
        try:
            with sampler, redirect_stdout(out), redirect_stderr(err):
                code = main(list(request.argv))
        except Exception as exc:  # a crash fails the request, not the run
            code = f"crash: {type(exc).__name__}: {exc}"
        end = perf_counter()
        after = loop_seconds()
        record = outcome(request, code, out.getvalue(), err.getvalue())
        record.update(start=start, end=end, scaled=scaled(
            end - start - sampler.spent, [before, *sampler.loops, after]))
        records.append(record)
        before = after
    return records


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def run_pass(requests, reference: dict, traced: bool) -> dict:
    """Run and check one pass; the result is plain JSON-ready data."""
    from lyubeznik.cli import main

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    records = run_requests(requests, main, tracer)
    if tracer is not None:
        tracer.uninstall()
    rss = peak_rss_mb()
    layers = (layer_metrics(tracer, records, requests)
              if tracer is not None else None)
    reasons = [check(req, rec, reference) for req, rec in zip(requests, records)]
    return {
        "peak_rss_mb": rss,
        "requests": [{"cmd": req.cmd, "key": req.key,
                      "wall": rec["end"] - rec["start"],
                      "scaled": rec["scaled"], "failure": why}
                     for req, rec, why in zip(requests, records, reasons)],
        "layers": layers,
        "spans": tracer.spans if tracer is not None else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark pass")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)

    with open(os.path.join(args.inputs, "inputs.json")) as handle:
        inputs = json.load(handle)
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)["outputs"]
    requests = build_requests(args.workload, args.seed, args.inputs, inputs)
    result = run_pass(requests, reference, bool(args.trace))
    spans = result.pop("spans")
    if args.spans and spans is not None:
        with open(args.spans, "w") as handle:
            json.dump(spans, handle)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
