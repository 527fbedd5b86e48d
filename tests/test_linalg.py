from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lyubeznik.linalg import (PRIME_LIMIT, certified_rank, check_prime,
                              exact_rank, rank_mod_p)


def test_frozen_ranks():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    assert exact_rank([[2, 0], [0, 3], [2, 3]]) == 2


def test_rank_mod_p_can_drop():
    assert exact_rank([[2]]) == 1
    assert rank_mod_p([[2]], 2) == 0
    assert rank_mod_p([[2]], 3) == 1
    assert rank_mod_p([[6, 3], [2, 1]], 3) == 1
    assert rank_mod_p([[6, 3], [2, 1]], 5) == 1


def is_prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def passes_check(n):
    try:
        check_prime(n)
    except ValueError:
        return False
    return True


def test_check_prime_matches_trial_division():
    assert [n for n in range(-10, 20_000)
            if passes_check(n) != is_prime_by_trial_division(n)] == []


def test_check_prime_on_large_values():
    # strong pseudoprimes: 3215031751 to the bases 2-7, and
    # 3825123056546413051 to the bases 2-23
    for composite in (3215031751, 3825123056546413051, (2**31 - 1) ** 2):
        assert not passes_check(composite), composite
    for prime in (2**31 - 1, 2**61 - 1, 2**64 - 59):
        assert passes_check(prime), prime
    with pytest.raises(ValueError, match="below"):
        check_prime(PRIME_LIMIT + 2)


def test_rank_mod_p_rejects_composites():
    with pytest.raises(ValueError):
        rank_mod_p([[1]], 4)
    with pytest.raises(ValueError):
        rank_mod_p([[1]], 1)


def fraction_rank(rows):
    """Straight Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


matrices = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=1, max_size=4))


@given(matrices)
def test_rank_routes_agree(rows):
    reference = fraction_rank(rows)
    assert exact_rank(rows) == reference


@given(matrices, st.sampled_from([2, 3, 5, 7, 101]))
def test_modular_rank_is_a_lower_bound(rows, p):
    assert rank_mod_p(rows, p) <= exact_rank(rows)


@given(matrices)
def test_rank_bounded_by_shape(rows):
    assert 0 <= exact_rank(rows) <= min(len(rows), len(rows[0]))


@given(matrices)
def test_large_prime_preserves_rank(rows):
    # entries stay below the prime, so no pivot can vanish mod p
    assert rank_mod_p(rows, 1_000_003) == exact_rank(rows)


def dense_rank_mod_p(rows, p):
    """Straight Gaussian elimination over GF(p) on dense rows."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col] * inv % p
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# Mostly-zero matrices up to 12x12 with small entries, so that non-unit
# pivots (and pivots that vanish mod 2 or 3) occur.
sparse_matrices = st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
    lambda shape: st.lists(
        st.lists(st.one_of(st.just(0), st.just(0), st.integers(-3, 3)),
                 min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


def as_sparse_columns(rows):
    """The columns of a dense matrix as {row: entry} maps."""
    return [{r: row[c] for r, row in enumerate(rows) if row[c]}
            for c in range(len(rows[0]))]


@given(sparse_matrices)
def test_sparse_exact_rank_matches_fractions(rows):
    reference = fraction_rank(rows)
    assert exact_rank(rows) == reference
    assert exact_rank(as_sparse_columns(rows)) == reference


@given(sparse_matrices, st.sampled_from([2, 3, 32003]))
def test_sparse_modular_rank_matches_dense(rows, p):
    reference = dense_rank_mod_p(rows, p)
    assert rank_mod_p(rows, p) == reference
    assert rank_mod_p(as_sparse_columns(rows), p) == reference


def test_non_unit_pivots_do_not_lose_rank():
    # every pivot is 2 or 3 and the last column needs a fraction-free
    # combination of non-unit pivots to clear
    columns = [{0: 2, 1: 3}, {1: 2, 2: 3}, {0: 4, 1: 12, 2: 9}]
    assert exact_rank(columns) == 2
    assert rank_mod_p(columns, 3) == 2
    independent = columns[:2] + [{0: 4, 1: 12, 2: 8}]
    assert exact_rank(independent) == 3
    assert rank_mod_p(independent, 2) == 2


# -- the certificate of the rank over Q ---------------------------------------

CHECKED_PRIMES = (2, 3, 5, 7, 11, 13, 32003)


def check_certificate(vectors):
    """The rank over Q, and the rank over GF(p) for each checked prime
    that divides no certificate integer, which must be the same."""
    rank, certificate = certified_rank(vectors)
    assert rank == exact_rank(vectors)
    assert all(isinstance(n, int) and n > 1 for n in certificate)
    for p in CHECKED_PRIMES:
        if all(n % p for n in certificate):
            assert rank_mod_p(vectors, p) == rank, (p, certificate)
    return rank, certificate


@given(matrices)
def test_certificate_clears_primes_on_dense_rows(rows):
    assert check_certificate(rows)[0] == fraction_rank(rows)


@given(sparse_matrices)
def test_certificate_clears_primes_on_sparse_columns(rows):
    reference = fraction_rank(rows)
    assert check_certificate(rows)[0] == reference
    assert check_certificate(as_sparse_columns(rows))[0] == reference


@pytest.mark.parametrize("vectors", [[[2]], [[1, 1], [1, -1]],
                                     [{0: 1, 1: 1}, {0: 1, 1: -1}]])
def test_torsion_is_named_by_the_certificate(vectors):
    rank, certificate = check_certificate(vectors)
    assert any(n % 2 == 0 for n in certificate)
    assert rank_mod_p(vectors, 2) < rank


def test_unit_pivots_name_no_prime():
    assert certified_rank([[1, 0], [0, -1], [1, 1]]) == (2, frozenset())
    assert certified_rank([]) == (0, frozenset())

