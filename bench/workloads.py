"""Strata of generated inputs and the request mix of each workload.

A stratum is a pool of generated inputs of one shape (``gen.py`` writes
it from the pool seed).  A workload takes ``take`` inputs from each of
its strata, chosen by the run's seed, and issues the listed subcommands
on each, inputs in seeded order.  Every request that the pool allows
has its output digest recorded in ``reference.json``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

POOL_SEED = 1
SEARCH_FLAGS = ("--max-exhaustive", "9")
GF_P = ("--field", "p:32003")


@dataclass(frozen=True)
class Stratum:
    name: str
    kind: str                  # "ideal", "squarefree" or "graph"
    mus: tuple[int, ...]       # generator (or edge) counts, cycled over the pool
    pool: int
    nvars: int                 # variables (vertices for graphs)
    ordered: bool = False      # whether seeded --order words are generated


@dataclass(frozen=True)
class Mix:
    stratum: str
    take: int
    commands: tuple[tuple[str, ...], ...]
    expect: int = 0            # expected exit code (2: refused by a bound)


@dataclass(frozen=True)
class Request:
    cmd: str
    argv: tuple[str, ...]      # arguments for lyubeznik.cli.main
    key: str                   # digest key: the request without --jobs/--format
    expect: int
    searches: bool             # whether the request runs an order search


STRATA = {s.name: s for s in (
    # search: random ideals, 6 variables, exponents <= 3; graphs on 7 vertices
    Stratum("s7", "ideal", (7,), 30, 6),
    Stratum("s8", "ideal", (8,), 9, 6),
    Stratum("s9", "ideal", (9,), 1, 6),
    Stratum("a7", "ideal", (7,), 30, 6),
    Stratum("a8", "ideal", (8,), 1, 6),
    Stratum("g7", "graph", (7,), 18, 7),
    Stratum("g8", "graph", (8,), 12, 7),
    # oracle: squarefree ideals, 10 variables, generators of degree 2-3
    Stratum("o10", "squarefree", (10,), 6, 10),
    Stratum("o11", "squarefree", (11,), 3, 10),
    Stratum("o12", "squarefree", (12,), 1, 10),
    # per-order: non-squarefree random ideals with seeded orders
    Stratum("p10", "ideal", (10,), 20, 6, ordered=True),
    Stratum("p11", "ideal", (11,), 3, 6, ordered=True),
    Stratum("p12", "ideal", (12,), 1, 6, ordered=True),
    Stratum("c14", "ideal", (14,), 14, 6, ordered=True),
    Stratum("c16", "ideal", (16,), 1, 6, ordered=True),
    Stratum("ref", "ideal", (13, 14), 2, 6),
)}

_SEARCH = ("search",) + SEARCH_FLAGS
_ANALYZE_SEARCH = ("analyze", "--search", "exhaustive") + SEARCH_FLAGS
_GRAPH = ("graph", "--check-props") + SEARCH_FLAGS
_ORACLE = (("oracle-betti",), ("oracle-betti",) + GF_P, ("verify",),
           ("analyze",))
_PER_ORDER = (("complex",), ("analyze",), ("covers",), ("radical-gens",))

# Heavy strata are taken whole: their inputs' costs differ widely (a
# verify at mu 10 takes 0.05-1.2 s), so a seeded sample of them would make
# a run's figures depend on the seed.  The seed samples the light strata
# and picks the --order words.
WORKLOADS: dict[str, tuple[Mix, ...]] = {
    "search": (
        Mix("s7", 6, (_SEARCH,)),
        Mix("s8", 9, (_SEARCH,)),
        Mix("s9", 1, (_SEARCH,)),
        Mix("a7", 6, (_ANALYZE_SEARCH,)),
        Mix("a8", 1, (_ANALYZE_SEARCH,)),
        Mix("g7", 5, (_GRAPH,)),
        Mix("g8", 2, (_GRAPH,)),
    ),
    "oracle": (
        Mix("o10", 6, _ORACLE),
        Mix("o11", 3, _ORACLE),
        Mix("o12", 1, _ORACLE),
    ),
    "per-order": (
        Mix("p10", 4, _PER_ORDER),
        Mix("p11", 3, _PER_ORDER),
        Mix("p12", 1, _PER_ORDER),
        Mix("c14", 5, (("complex",),)),
        Mix("c16", 1, (("complex",),)),
        Mix("ref", 2, (("analyze",), ("covers",), ("verify",)), expect=2),
    ),
}

SEARCHING = {"search", "graph"}


def is_search(command: tuple[str, ...]) -> bool:
    return command[0] in SEARCHING or "--search" in command


def make_request(parts: tuple[str, ...], inputs_dir: str,
                 expect: int = 0) -> Request:
    """The request whose key is ``parts``: (subcommand, input file, *flags)."""
    searches = is_search(parts)
    extra = ("--jobs", "1") if searches else ()
    argv = ((parts[0], os.path.join(inputs_dir, parts[1])) + parts[2:] + extra
            + ("--format", "json"))
    return Request(parts[0], argv, " ".join(parts), expect, searches)


def pool_requests(command: tuple[str, ...], name: str,
                  orders: list[str]) -> list[tuple[str, ...]]:
    """Every request key the pool allows for one input and command."""
    base = (command[0], name) + command[1:]
    return [base + ("--order", o) for o in orders] if orders else [base]


def build_requests(workload: str, seed: int, inputs_dir: str,
                   inputs: dict[str, dict]) -> list[Request]:
    """The seeded request list of one workload pass.

    An input's requests run back to back in the order its mix lists
    them, all with the same seeded ``--order`` word, so the first one
    always pays for the library's per-ideal and per-order tables.  The
    strata run in the order the workload lists them, each stratum's
    inputs in seeded order, so that the heaviest requests meet the same
    cached tables whatever the seed, and peak memory depends little on it.
    """
    rng = random.Random(f"{seed}:{workload}")
    requests = []
    for mix in WORKLOADS[workload]:
        names = sorted(n for n, e in inputs.items()
                       if e["stratum"] == mix.stratum)
        for name in rng.sample(names, mix.take):
            orders = inputs[name]["orders"]
            order = ("--order", rng.choice(orders)) if orders else ()
            requests += [make_request((command[0], name) + command[1:] + order,
                                      inputs_dir, mix.expect)
                         for command in mix.commands]
    return requests


def all_request_keys(inputs: dict[str, dict]) -> dict[str, int]:
    """Every request key any workload can issue, with its expected code."""
    keys = {}
    for mixes in WORKLOADS.values():
        for mix in mixes:
            for name, entry in inputs.items():
                if entry["stratum"] != mix.stratum:
                    continue
                for command in mix.commands:
                    for parts in pool_requests(command, name, entry["orders"]):
                        keys[" ".join(parts)] = mix.expect
    return keys
