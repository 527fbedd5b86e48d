"""Seeded input generator for the benchmark.

Writes monomial ideals and simple graphs in the repository's file
syntax (``vars``/``gen`` lines, ``vertex``/``edge`` lines), plus seeded
``--order`` permutations, for every stratum named in ``workloads.py``.
The same seed gives the same bytes: each stratum draws from its own
``random.Random("<seed>:<stratum>")``, so editing one stratum leaves
the files of the others unchanged.

    python3 bench/gen.py --seed 1 --out DIR

``DIR/manifest.json`` lists each input's stratum, generator count,
``--order`` words and sha256.  ``describe`` measures an input's shape
(generator count, variables, squarefree, lcm-lattice size, cover-clutter
edges, mu!) with the library; ``record.py`` stores those shapes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from itertools import combinations
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import STRATA, Stratum  # noqa: E402

ORDERS_PER_IDEAL = 3
MAX_EXP = 3                   # exponent bound of random ideals
SQUAREFREE_DEGREES = (2, 3)   # generator degrees of squarefree ideals


def _comparable(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return (all(x <= y for x, y in zip(a, b))
            or all(x >= y for x, y in zip(a, b)))


MAX_REJECTIONS = 10_000


def antichain(rng: random.Random, mu: int, draw) -> list[tuple[int, ...]]:
    """mu pairwise incomparable exponent vectors, by rejection.

    Starts over when a run of rejections suggests that the vectors
    drawn so far leave no room for another.
    """
    gens: list[tuple[int, ...]] = []
    rejected = 0
    while len(gens) < mu:
        e = draw(rng)
        if sum(e) and not any(_comparable(e, g) for g in gens):
            gens.append(e)
            rejected = 0
        else:
            rejected += 1
            if rejected == MAX_REJECTIONS:
                gens, rejected = [], 0
    return gens


def random_ideal(rng: random.Random, mu: int, nvars: int
                 ) -> list[tuple[int, ...]]:
    """A minimal generating set with at least one non-squarefree generator."""
    while True:
        gens = antichain(rng, mu, lambda r: tuple(
            r.randint(0, MAX_EXP) for _ in range(nvars)))
        if any(x > 1 for g in gens for x in g):
            return gens


def squarefree_ideal(rng: random.Random, mu: int, nvars: int
                     ) -> list[tuple[int, ...]]:
    def draw(r: random.Random) -> tuple[int, ...]:
        support = set(r.sample(range(nvars), r.choice(SQUAREFREE_DEGREES)))
        return tuple(int(i in support) for i in range(nvars))
    return antichain(rng, mu, draw)


def random_graph(rng: random.Random, vertices: int, edges: int
                 ) -> tuple[list[str], list[tuple[str, str]]]:
    names = [f"v{i + 1}" for i in range(vertices)]
    chosen = sorted(rng.sample(list(combinations(range(vertices), 2)), edges))
    return names, [(names[a], names[b]) for a, b in chosen]


def random_order(rng: random.Random, mu: int) -> str:
    word = list(range(1, mu + 1))
    rng.shuffle(word)
    return ",".join(map(str, word))


def ideal_text(gens: list[tuple[int, ...]]) -> str:
    names = [f"x{i + 1}" for i in range(len(gens[0]))]
    lines = ["vars " + " ".join(names)]
    for g in gens:
        lines.append("gen " + "*".join(
            n if k == 1 else f"{n}^{k}" for n, k in zip(names, g) if k))
    return "\n".join(lines) + "\n"


def graph_text(names: list[str], edges: list[tuple[str, str]]) -> str:
    return ("vertex " + " ".join(names) + "\n"
            + "".join(f"edge {a} {b}\n" for a, b in edges))


def generate_stratum(seed: int, stratum: Stratum) -> list[dict]:
    """The pool of one stratum: file name, file text and orders."""
    rng = random.Random(f"{seed}:{stratum.name}")
    pool = []
    for k in range(stratum.pool):
        mu = stratum.mus[k % len(stratum.mus)]
        if stratum.kind == "graph":
            names, edges = random_graph(rng, stratum.nvars, mu)
            name, text = f"{stratum.name}-{k:02d}.graph", graph_text(names, edges)
        else:
            if stratum.kind == "squarefree":
                gens = squarefree_ideal(rng, mu, stratum.nvars)
            else:
                gens = random_ideal(rng, mu, stratum.nvars)
            name, text = f"{stratum.name}-{k:02d}.ideal", ideal_text(gens)
        orders = ([random_order(rng, mu) for _ in range(ORDERS_PER_IDEAL)]
                  if stratum.ordered else [])
        pool.append({"name": name, "text": text, "mu": mu, "orders": orders})
    return pool


def generate(seed: int, out_dir: str) -> dict[str, dict]:
    """Write every stratum's pool under out_dir; return entries by name."""
    os.makedirs(out_dir, exist_ok=True)
    entries = {}
    for stratum in STRATA.values():
        for entry in generate_stratum(seed, stratum):
            with open(os.path.join(out_dir, entry["name"]), "w",
                      encoding="utf-8") as handle:
                handle.write(entry["text"])
            entry["sha256"] = hashlib.sha256(
                entry["text"].encode()).hexdigest()
            entry["stratum"] = stratum.name
            entries[entry.pop("name")] = entry
            del entry["text"]
    return entries


def describe(path: str) -> dict:
    """Measured shape of one input file, using the library under src/."""
    from lyubeznik.covers import MAX_ENUMERATION_GENERATORS, cover_clutter
    from lyubeznik.graphs import edge_ideal, read_graph
    from lyubeznik.monomials import read_ideal
    from lyubeznik.orders import identity_order
    from lyubeznik.subsets import tables_for

    props = {}
    if path.endswith(".graph"):
        graph = read_graph(path)
        props["vertices"] = len(graph.vertices)
        props["edges"] = len(graph.edges)
        ideal = edge_ideal(graph)
    else:
        ideal = read_ideal(path)
    props.update(mu=ideal.mu, variables=len(ideal.context),
                 squarefree=ideal.is_squarefree(),
                 orders=factorial(ideal.mu))
    tables = tables_for(ideal)
    props["lcm_lattice"] = len(set(tables.lcm_exps[1:]))
    props["clutter_edges"] = (
        len(cover_clutter(identity_order(ideal)).edges)
        if ideal.mu <= MAX_ENUMERATION_GENERATORS else None)
    return props


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    entries = generate(args.seed, args.out)
    with open(os.path.join(args.out, "manifest.json"), "w") as handle:
        json.dump({"seed": args.seed, "inputs": entries}, handle, indent=1,
                  sort_keys=True)
    print(f"wrote {len(entries)} inputs and manifest.json to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
