"""Record the reference outputs that every benchmark run is checked against.

    python3 bench/record.py

Run from the repository root on the commit whose outputs are the
reference.  It regenerates the input pool from ``POOL_SEED``, measures
each input's shape, runs every request any workload can issue once
(``--jobs 1``), and writes ``bench/reference.json``: the sha256 of each
input file, its measured shape, and the exit code and stdout sha256 of
each request.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gen  # noqa: E402
from worker import run_requests  # noqa: E402
from workloads import POOL_SEED, all_request_keys, make_request  # noqa: E402


def main() -> int:
    from lyubeznik.cli import main as cli_main

    work = os.path.abspath(os.path.join(".bench_work", "record"))
    shutil.rmtree(work, ignore_errors=True)
    inputs = gen.generate(POOL_SEED, work)
    for name, entry in inputs.items():
        entry["props"] = gen.describe(os.path.join(work, name))
    keys = all_request_keys(inputs)
    requests = [make_request(tuple(key.split(" ")), work, expect)
                for key, expect in sorted(keys.items())]
    outputs = {}
    for request in requests:
        record = run_requests([request], cli_main)[0]
        if record["code"] != request.expect:
            print(f"unexpected exit {record['code']}: {request.key}",
                  file=sys.stderr)
            return 1
        outputs[request.key] = {"code": record["code"],
                                "sha256": record["sha256"]}
        print(f"{record['end'] - record['start']:8.3f} s  {request.key}",
              flush=True)
    shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump({"pool_seed": POOL_SEED, "inputs": inputs,
                   "outputs": outputs}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
