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
    items = vec.items() if isinstance(vec, Mapping) else enumerate(vec)
    if p:
        return {i: x % p for i, x in items if x % p}
    return {i: x for i, x in items if x}


def _reduced_rank(vectors: Sequence[_Vector], p: int) -> int:
    """Rank of a vector family over Q (p = 0) or GF(p)."""
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
    return len(pivots)


def exact_rank(vectors: Sequence[_Vector]) -> int:
    """Rank over Q of integer vectors (dense rows or {index: value} maps)."""
    return _reduced_rank(vectors, 0)


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
    return _reduced_rank(vectors, p)
