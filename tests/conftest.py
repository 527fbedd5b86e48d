"""Shared helpers for the test suite."""

import json
import subprocess
import sys
import warnings
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from lyubeznik import (MinimizationWarning, MonomialIdeal, VariableContext,
                       edge_ideal, parse_ideal, read_graph, read_ideal)

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


@pytest.fixture(scope="session")
def pool(tmp_path_factory):
    """The benchmark's seed-1 input pool, written by ``bench/gen.py``:
    (its directory, its manifest's inputs by file name)."""
    out = tmp_path_factory.mktemp("pool")
    subprocess.run([sys.executable, str(GEN), "--seed", "1", "--out",
                    str(out)], check=True, capture_output=True)
    with open(out / "manifest.json", encoding="utf-8") as handle:
        return out, json.load(handle)["inputs"]


def pool_ideal(path: Path) -> MonomialIdeal:
    """A pool file's ideal, a graph file's by its edge ideal."""
    return (edge_ideal(read_graph(path)) if path.suffix == ".graph"
            else read_ideal(path))


def ideal(text: str) -> MonomialIdeal:
    """Parse an inline ideal description (same grammar as the files)."""
    return parse_ideal(text)


def xyz_ideal(*gens: str) -> MonomialIdeal:
    """Ideal over fixed variables x, y, z, t from generator strings."""
    lines = ["vars x y z t"] + [f"gen {g}" for g in gens]
    return parse_ideal("\n".join(lines))


def exponent_ideal(rows) -> MonomialIdeal:
    """Ideal over x1..xn from explicit exponent tuples."""
    n = len(rows[0])
    context = VariableContext(tuple(f"x{i}" for i in range(1, n + 1)))
    from lyubeznik import Monomial
    return MonomialIdeal.from_generators(
        [Monomial(context, tuple(row)) for row in rows])


def exponent_rows(nvars):
    """A hypothesis strategy: 6 to 16 distinct nonzero exponent rows in
    nvars variables, each exponent at most 3."""
    # middle degrees first: hypothesis favours early elements, and
    # monomials of equal degree never divide one another
    rows = sorted((row for row in product(range(4), repeat=nvars) if any(row)),
                  key=lambda row: abs(2 * sum(row) - 3 * nvars))
    return st.lists(st.sampled_from(rows), min_size=min(6, len(rows)),
                    max_size=16, unique=True)


def small_ideal(rows, max_mu=6):
    """The ideal of the rows, cut to its first max_mu minimal generators."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MinimizationWarning)
        ideal = exponent_ideal(rows)
    return MonomialIdeal(ideal.context, ideal.gens[:max_mu])


def triangles_graph(triangles: int, edges: int) -> str:
    """Graph file text of disjoint triangles, then disjoint edges: one
    of the paper's totally Lyubeznik families."""
    groups = [[f"t{k}{c}" for c in "abc"] for k in range(triangles)]
    groups += [[f"e{k}{c}" for c in "ab"] for k in range(edges)]
    lines = ["vertex " + " ".join(v for group in groups for v in group)]
    lines += [f"edge {a} {b}" for group in groups
              for a, b in combinations(group, 2)]
    return "\n".join(lines) + "\n"
