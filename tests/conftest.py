"""Shared helpers for the test suite."""

from itertools import combinations

from hypothesis import HealthCheck, settings

from lyubeznik import MonomialIdeal, VariableContext, parse_ideal

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


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


def triangles_graph(triangles: int, edges: int) -> str:
    """Graph file text of disjoint triangles, then disjoint edges: one
    of the paper's totally Lyubeznik families."""
    groups = [[f"t{k}{c}" for c in "abc"] for k in range(triangles)]
    groups += [[f"e{k}{c}" for c in "ab"] for k in range(edges)]
    lines = ["vertex " + " ".join(v for group in groups for v in group)]
    lines += [f"edge {a} {b}" for group in groups
              for a, b in combinations(group, 2)]
    return "\n".join(lines) + "\n"
