"""Exact matrix rank over the rationals and over prime fields.

Boundary matrices here are sparse: a column of a simplicial boundary
has at most t nonzero entries, all of them +-1.  Rank is therefore
computed by one column-reduction loop that touches nonzeros only, the
loop persistent homology uses (Edelsbrunner-Letscher-Zomorodian 2002).
Each vector is a map {index: value}; it is reduced against the stored
pivot vectors by its largest index until it vanishes or lands on a free
index, where it becomes a new pivot.  The rank is the number of pivots.

Over Q the updates are fraction-free integer combinations, and every
stored pivot vector is divided by the gcd of its entries, so +-1 pivots
never grow the numbers.  Over GF(p) the same loop scales each pivot to
a leading 1 with a modular inverse.  No floating point anywhere.

The run over Q also certifies the ranks over prime fields
(``certified_rank``).  Its certificate holds, for each pivot, the gcd
its landing vector was divided by and the leading coefficient it is
stored with, each kept when it is not +-1.  If the prime p divides none
of these integers, the rank over GF(p) is the rank over Q: read mod p,
the run over Q is a valid run over GF(p).  A vector is rescaled only
when its leading entry is not a multiple of the pivot's, and then by
w[low] / gcd(c, w[low]), a divisor of a stored leading coefficient and
so a unit mod p; every other step subtracts a multiple of a pivot.  A
vector that vanishes over Q vanishes mod p.  A landing vector is g
times the stored pivot, whose leading coefficient is a unit mod p, as
g is, and nothing lies above its leading index; so it lands mod p at
the same index.  The pivots mod p thus have the same distinct leading
indices and span the same space as the input read mod p, and there
are as many of them.  Where the certificate names p, the rank over
GF(p) may be lower (it is on [[2]] and on [[1, 1], [1, -1]] at p = 2),
and ``rank_mod_p`` must be asked.

A matrix may be given as dense rows (sequences of ints) or as sparse
vectors (mappings); rank of the rows equals rank of the columns, so
either orientation gives the same answer.  The tests check this loop
against plain Fraction elimination.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Mapping, Sequence, Union

_Vector = Union[Mapping[int, int], Sequence[int]]


def _nonzeros(vec: _Vector, p: int) -> dict[int, int]:
    """A fresh {index: value} copy of the nonzero entries (mod p if p)."""
    # the oracle's columns are dicts: test for one before the ABC check
    mapping = isinstance(vec, dict) or isinstance(vec, Mapping)
    items = vec.items() if mapping else enumerate(vec)
    if p:
        return {i: x % p for i, x in items if x % p}
    return {i: x for i, x in items if x}


def _pivots(vectors: Sequence[_Vector], p: int,
            gcds: set[int] | None = None) -> dict[int, dict[int, int]]:
    """The stored pivot vectors, by leading index, of a vector family
    reduced over Q (p = 0) or GF(p); their number is its rank.

    Over Q, a ``gcds`` set receives each landing gcd that is not 1.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vec in vectors:
        v = _nonzeros(vec, p)
        while v:
            low = max(v)
            w = pivots.get(low)
            if w is None:
                if p:
                    inv = pow(v[low], -1, p)
                    v = {i: x * inv % p for i, x in v.items()}
                else:
                    g = gcd(*v.values())
                    if g != 1:
                        v = {i: x // g for i, x in v.items()}
                        if gcds is not None:
                            gcds.add(g)
                pivots[low] = v
                break
            c = v[low]
            if p:
                f = c  # pivots over GF(p) lead with 1
            elif c % w[low]:
                g = gcd(c, w[low])
                a, f = w[low] // g, c // g
                v = {i: a * x for i, x in v.items()}
            else:
                f = c // w[low]
            for i, x in w.items():
                y = v.get(i, 0) - f * x
                if p:
                    y %= p
                if y:
                    v[i] = y
                else:
                    del v[i]
    return pivots


def exact_rank(vectors: Sequence[_Vector]) -> int:
    """Rank over Q of integer vectors (dense rows or {index: value} maps)."""
    return len(_pivots(vectors, 0))


def certified_rank(vectors: Sequence[_Vector]) -> tuple[int, frozenset[int]]:
    """The rank over Q of integer vectors, as ``exact_rank``, and its
    certificate: integers above 1 such that the rank over GF(p) is the
    same for every prime p that divides none of them."""
    certificate: set[int] = set()
    pivots = _pivots(vectors, 0, certificate)
    certificate.update(abs(w[low]) for low, w in pivots.items())
    certificate.discard(1)
    return len(pivots), frozenset(certificate)


# Miller-Rabin with the primes up to 41 as bases is exact below this
# bound (Sorenson and Webster 2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def check_prime(p: int) -> None:
    """Raise ValueError unless p is a prime below ``PRIME_LIMIT``.

    Deterministic Miller-Rabin: its cost grows with the digits of p,
    not with sqrt(p) as trial division does.
    """
    if p >= PRIME_LIMIT:
        raise ValueError(f"primes must be below {PRIME_LIMIT}, got {p}")
    if p < 2 or any(p % q == 0 for q in _WITNESSES if q < p):
        raise ValueError(f"{p} is not a prime")
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _WITNESSES:
        if a >= p:
            break
        x = pow(a, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not a prime")


def rank_mod_p(vectors: Sequence[_Vector], p: int) -> int:
    """Rank over the prime field GF(p) of integer vectors, as in exact_rank."""
    check_prime(p)
    return len(_pivots(vectors, p))
