"""The checks past the CLI's bound and the sweeps over the whole pool
(``ci/test_past_the_bound.py``) take about 40 s and run outside tier-1,
so tier-1 collects them: a renamed library name or test helper the
module imports, or a broken parametrization, fails here as well."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_the_checks_past_the_bound_collect():
    # no plugin is loaded: the hypothesis plugin alone takes 1.3 s
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "ci/test_past_the_bound.py"],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"})
    assert run.returncode == 0, run.stdout + run.stderr
    ids = [line for line in run.stdout.splitlines() if "::" in line]
    assert len(ids) == 51, run.stdout
