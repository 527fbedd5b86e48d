"""The repository benchmark: CLI workloads on seeded generated inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are listed in ``workloads.py``
and explained in ``NOTES.md``.  The run regenerates the input pool and
then runs the workload's requests in round(S/5) passes, at least 2, each
in a fresh worker process (``worker.py``) that issues every request
once and checks every output.  Times are scaled to a reference host
speed (``speed.py``), and a request's time is the mean over the
passes, leaving out its slowest pass.  Set-up is the time for a fresh interpreter to start and import
``lyubeznik.cli``, taken twice before each pass and twice after the last.  With
``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer metrics.  The last line of stdout is one JSON
object with the metrics; the lines before it print every metric with
its unit, including those that exist only on some workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from math import ceil
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from workloads import POOL_SEED, WORKLOADS  # noqa: E402

PASS_SECONDS = 5  # each workload's request mix runs about this long
PROBES_PER_GAP = 2
DEADLINE_S = 170  # a run ends within 180 s
COMMANDS = ("search", "analyze", "graph", "oracle-betti", "verify", "covers",
            "complex", "radical-gens")


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # one hash layout for every run
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _run(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run cmd to completion, failing the run if it outlives the deadline."""
    try:
        return subprocess.run(cmd, env=_env(), capture_output=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {DEADLINE_S} s") from None


# perf_counter is CLOCK_MONOTONIC, one clock for every process, so the
# probe's reading after the import ends its set-up time without its exit
_PROBE = ("import lyubeznik.cli; from time import perf_counter; "
          "print(perf_counter())")


def setup_seconds(count: int, deadline: float) -> list[float]:
    """Times for count fresh interpreters to start and import lyubeznik.cli.

    Not scaled to the host's speed: on the reference host, scaling the
    import by the loop made it less steady, not more (NOTES.md).
    """
    times = []
    for _ in range(count):
        start = perf_counter()
        done = _run([sys.executable, "-c", _PROBE], deadline)
        if done.returncode != 0:
            raise BenchError("import lyubeznik.cli failed: "
                             + done.stderr.decode(errors="replace").strip())
        times.append(float(done.stdout) - start)
    return times


def run_worker(args, inputs_dir: str, work: str, traced: bool,
               deadline: float) -> dict:
    out = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--inputs", inputs_dir, "--trace", str(int(traced)), "--out", out]
    if traced:
        cmd += ["--spans", os.path.join(os.path.dirname(work),
                                        f"spans-{args.workload}.json")]
    done = _run(cmd, deadline)
    if done.returncode != 0:
        raise BenchError("worker failed: "
                         + done.stderr.decode(errors="replace").strip())
    with open(out) as handle:
        return json.load(handle)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples above it."""
    return max(0, (100 * (n - 10)) // n)


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(passes: list[dict]) -> tuple[dict, list[str]]:
    """Untraced metrics of passes over the same requests, and the notes
    printed beside them.  A request's time is the mean of its scaled
    times over the passes, leaving out the slowest if there are two or more.
    """
    first = passes[0]["requests"]
    kept = max(1, len(passes) - 1)
    walls = [statistics.fmean(sorted(p["requests"][i]["scaled"]
                                     for p in passes)[:kept])
             for i in range(len(first))]
    raw = statistics.median(sum(r["wall"] for r in p["requests"])
                            for p in passes)
    n = len(walls)
    pct = tail_percentile(n)
    attempted = n * len(passes)
    failed = sum(1 for p in passes for r in p["requests"] if r["failure"])
    metrics = {
        "wall_s": (sum(walls), "s"),
        "request_p50_s": (nearest_rank(walls, 50), "s"),
        "request_tail_s": (nearest_rank(walls, pct), "s"),
        "failed_ratio": (failed / attempted, "ratio"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MiB"),
    }
    notes = {"wall_s": f"sum over {n} requests of the mean of the fastest "
                       f"{kept} of {len(passes)} passes; unscaled {raw:.4g} s",
             "request_p50_s": f"p50 of {n} requests",
             "request_tail_s": f"p{pct} of {n} requests",
             "failed_ratio": f"{failed} of {attempted} attempted",
             "peak_rss_mb": f"most of {len(passes)} passes"}
    for cmd in COMMANDS:
        times = [w for w, r in zip(walls, first) if r["cmd"] == cmd]
        if times:
            metrics[f"cmd.{cmd}_s"] = (sum(times), "s")
            notes[f"cmd.{cmd}_s"] = f"{len(times)} requests"
    return metrics, [notes.get(k, "") for k in metrics]


def shape_lines(inputs: dict, workload: str) -> list[str]:
    """Measured shape of each stratum the workload draws from."""
    lines = []
    for mix in WORKLOADS[workload]:
        props = [e["props"] for e in inputs.values()
                 if e["stratum"] == mix.stratum]
        def span(key):
            vals = [p[key] for p in props if p.get(key) is not None]
            return f"{min(vals)}-{max(vals)}" if vals else "n/a"
        lines.append(
            f"stratum {mix.stratum}: {mix.take} of {len(props)} inputs, "
            f"commands {','.join(c[0] for c in mix.commands)}; mu {span('mu')}, "
            f"variables {span('variables')}, squarefree "
            f"{sorted({p['squarefree'] for p in props})}, lcm-lattice "
            f"{span('lcm_lattice')}, clutter edges {span('clutter_edges')}, "
            f"mu! {span('orders')}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lyubeznik CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=3 * PASS_SECONDS,
                        help="run length: the request mix, sized for about "
                             f"{PASS_SECONDS} s on a 2-core machine, runs in "
                             f"round(S/{PASS_SECONDS}) passes, at least 2")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "lyubeznik", "cli.py")):
        print("bench: run from the repository root (no src/lyubeznik here)",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    work_root = os.path.abspath(".bench_work")
    work = os.path.join(work_root, f"run-{os.getpid()}")
    try:
        with open(os.path.join(HERE, "reference.json")) as handle:
            reference = json.load(handle)
        inputs_dir = os.path.join(work, "inputs")
        inputs = gen.generate(POOL_SEED, inputs_dir)
        for name, entry in inputs.items():
            if entry["sha256"] != reference["inputs"][name]["sha256"]:
                raise BenchError(f"generated {name} differs from the pool")
            entry["props"] = reference["inputs"][name]["props"]
        with open(os.path.join(inputs_dir, "inputs.json"), "w") as handle:
            json.dump(inputs, handle)

        lines = shape_lines(inputs, args.workload)
        if args.trace:
            plain = run_worker(args, inputs_dir, work, False, deadline)
            traced = run_worker(args, inputs_dir, work, True, deadline)
            base, _ = end_to_end([plain])
            # subcommands a workload does not issue read 0 here
            metrics = {f"cmd.{cmd}_s": (0.0, "s") for cmd in COMMANDS}
            metrics.update((k, v) for k, v in base.items()
                           if k.startswith("cmd.") or k == "failed_ratio")
            metrics.update((k, tuple(v)) for k, v in traced["layers"].items())
            metrics["trace.overhead_ratio"] = (
                end_to_end([traced])[0]["wall_s"][0] / base["wall_s"][0],
                "ratio")
            passes = (plain, traced)
            notes = [""] * len(metrics)
        else:
            # the first probe warms the file cache and byte-code; the
            # others are spread over the run, so they sample the host's
            # fast and slow spells as the passes do
            setup_seconds(1, deadline)
            setups = setup_seconds(PROBES_PER_GAP, deadline)
            passes = []
            for _ in range(max(2, round(args.seconds / PASS_SECONDS))):
                passes.append(run_worker(args, inputs_dir, work, False,
                                         deadline))
                setups += setup_seconds(PROBES_PER_GAP, deadline)
            metrics, notes = end_to_end(passes)
            metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
            notes = [f"median of {len(setups)} fresh interpreters"] + notes
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [(r["key"], r["failure"]) for p in passes
                for r in p["requests"] if r["failure"]]
    attempted = sum(len(p["requests"]) for p in passes)
    lines += [f"FAILED {key}: {why}" for key, why in failures]
    for (name, (value, unit)), note in zip(metrics.items(), notes):
        lines.append(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for line in lines:
        print(line)
    # the last line carries only the metrics BENCHMARK.json declares
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]} for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
