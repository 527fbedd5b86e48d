import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import BoundExceededError, divides, lcm_of, read_ideal
from lyubeznik.cli import main
from lyubeznik.corpus import ideal_names, load_ideal
from lyubeznik.monomials import EXPONENT_LIMIT
from lyubeznik.subsets import (indices_of, iter_bits, mask_of, one_larger,
                               one_smaller, tables_for, up_closure)

from conftest import exponent_ideal, xyz_ideal
from test_cli_routes import ideal_file_text
from test_preserved_kernel import seeded_ideal
from test_scan_kernel import exponent_rows, small_ideal


def test_mask_helpers_round_trip():
    assert mask_of([1, 3, 4]) == 0b1101
    assert indices_of(0b1101) == (1, 3, 4)
    assert list(iter_bits(0b1101)) == [0, 2, 3]
    assert mask_of([]) == 0
    with pytest.raises(ValueError):
        mask_of([0])


@settings(max_examples=40)
@given(st.integers(0, 6).flatmap(
    lambda mu: st.lists(st.booleans(), min_size=1 << mu, max_size=1 << mu)))
def test_up_closure_marks_the_masks_above_a_marked_one(marks):
    closed = up_closure(np.array(marks))
    for mask in range(len(marks)):
        assert closed[mask] == any(marks[sub] for sub in range(len(marks))
                                   if sub & mask == sub), mask


def neighbour_or(values, neighbours):
    """The OR of ``values`` over the given masks, one at a time."""
    total = values.dtype.type(0)
    for other in neighbours:
        total |= values[other]
    return total


@pytest.mark.parametrize("dtype", [bool, np.int64])
@pytest.mark.parametrize("mu", range(9))
def test_one_smaller_and_one_larger_match_the_neighbours(mu, dtype):
    rng = np.random.default_rng(mu)
    size = 1 << mu
    if dtype is bool:
        values = rng.random(size) < 0.3
    else:
        values = rng.integers(0, 1 << 62, size, dtype=np.int64)
    values.flags.writeable = False
    full = size - 1
    smaller, larger = one_smaller(values), one_larger(values)
    for out in (smaller, larger):
        assert out.dtype == values.dtype and out.shape == (size,)
    for mask in range(size):
        assert smaller[mask] == neighbour_or(
            values, [mask ^ (1 << b) for b in iter_bits(mask)]), mask
        assert larger[mask] == neighbour_or(
            values, [mask | (1 << b) for b in iter_bits(full & ~mask)]), \
            mask


def brute_tables(ideal, masks=None):
    """Recompute table entries from the definitions, one subset at a time."""
    for mask in masks or range(1, 2 ** ideal.mu):
        members = indices_of(mask)
        lcm = ideal.lcm(members)
        divisors = [u for u in ideal.indices() if divides(ideal.gen(u), lcm)]
        outside = [u for u in divisors if u not in members]
        covered = [u for u in members
                   if len(members) > 1
                   and divides(ideal.gen(u),
                               lcm_of([ideal.gen(v) for v in members
                                       if v != u]))]
        yield mask, lcm, divisors, outside, covered


def check_tables(ideal, masks=None):
    """The tables equal ``brute_tables``: the masks as int64 arrays over
    the 2^mu subsets, the lcms as tuples of Python ints."""
    tables = tables_for(ideal)
    assert tables.size == 2 ** ideal.mu
    assert tables.lcm_exps[0] is None
    assert tables.divisor_mask[0] == 0
    assert tables.covered_mask[0] == 0
    assert type(tables.lcm_exps) is list
    assert len(tables.lcm_exps) == tables.size
    for table in (tables.divisor_mask, tables.covered_mask):
        assert type(table) is np.ndarray and table.dtype == np.int64
        assert table.shape == (tables.size,)
    assert all(type(e) is tuple and all(type(a) is int for a in e)
               for e in tables.lcm_exps[1:])
    checked, lcms = [0], [(0,) * len(ideal.context)]
    for mask, lcm, divisors, outside, covered in brute_tables(ideal, masks):
        checked.append(mask)
        lcms.append(lcm.exponents)
        assert tables.lcm_exps[mask] == lcm.exponents
        assert tables.divisor_mask[mask] == mask_of(divisors)
        # the members and the outside divisors, the possible courts
        assert int(tables.divisor_mask[mask]) & ~mask == mask_of(outside)
        assert tables.covered_mask[mask] == mask_of(covered)
        assert str(tables.lcm_monomial(mask)) == str(lcm)
    # the one gather names the empty mask's lcm by the zero tuple
    assert tables.lcm_tuples(checked) == lcms


INLINE_IDEALS = {
    "mixed_powers": xyz_ideal("x^2*y", "y^2*z", "x^3", "y^3", "z^3"),
    "four_cycle": xyz_ideal("x*y", "y*z", "z*t", "x*t"),
    "koszul": xyz_ideal("x", "y"),
    "two_var_staircase": xyz_ideal("x^4", "x^2*y^2", "y^3"),
    # mu = 1: one mask besides the empty one
    "single_generator": xyz_ideal("x^2*y*t"),
    # exponents at the parser's limit catch a narrowed or wrapping dtype
    "exponent_limit": exponent_ideal([
        (EXPONENT_LIMIT, 0, 0), (EXPONENT_LIMIT - 1, 1, 0),
        (0, EXPONENT_LIMIT, 0), (1, 0, 2), (0, 1, 1)]),
    # the tables work on each variable's exponent ranks: ties, a
    # variable no generator holds (all rank 0), and ranks that map back
    # to exponents at the limit
    "tied_exponents": exponent_ideal([
        (2, 1, 0, 1), (2, 0, 1, 1), (1, 2, 1, 0), (0, 2, 2, 1),
        (1, 1, 2, 0), (2, 2, 0, 0), (0, 0, 2, 2)]),
    "absent_variable": exponent_ideal([
        (2, 0, 1), (1, 0, 2), (0, 0, 3), (3, 0, 0)]),
    "ties_at_the_limit": exponent_ideal([
        (EXPONENT_LIMIT, EXPONENT_LIMIT, 0), (EXPONENT_LIMIT, 0, 1),
        (EXPONENT_LIMIT - 1, 1, 1), (0, EXPONENT_LIMIT, EXPONENT_LIMIT),
        (1, EXPONENT_LIMIT - 1, EXPONENT_LIMIT)]),
}


@pytest.mark.parametrize("name", [*INLINE_IDEALS, *ideal_names()])
def test_tables_match_definitions(name):
    check_tables(INLINE_IDEALS.get(name) or load_ideal(name))


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_tables_match_definitions_on_random_ideals(rows):
    check_tables(small_ideal(rows, max_mu=7))


def test_tables_at_fourteen_generators_match_on_sampled_masks():
    rng = random.Random(14)
    degree_four = [e for e in product(range(5), repeat=4) if sum(e) == 4]
    ideal = exponent_ideal(rng.sample(degree_four, 14))
    masks = sorted(rng.sample(range(1, 2 ** 14), 2000)) + [2 ** 14 - 1]
    check_tables(ideal, masks)


def test_tables_at_sixteen_generators_match_on_sampled_masks():
    ideal = seeded_ideal(16, 0)
    assert ideal.mu == 16
    rng = random.Random(16)
    masks = sorted(rng.sample(range(1, 2 ** 16), 1500)) + [2 ** 16 - 1]
    check_tables(ideal, masks)


def test_tables_keep_the_lcms_as_int8_ranks_until_read():
    ideal = seeded_ideal(16, 1)
    tables_for.cache_clear()
    tables = tables_for(ideal)
    assert tables._lcm.dtype == np.int8
    assert tables._lcm.shape == (len(ideal.context), 2 ** 16)
    assert tables._lcm_exps is None
    assert tables.lcm_exps[-1] == ideal.lcm(ideal.indices()).exponents
    # the tuples are one gather of the ranks, which the oracle and the
    # preserved-set counts read gather by gather: the ranks stay
    assert tables._lcm.dtype == np.int8
    masks = [1, 12345, 2 ** 16 - 1]
    assert tables.lcm_tuples(masks) == [tables.lcm_exps[m] for m in masks]


def test_complex_never_builds_the_lcm_tuples(tmp_path, capsys):
    # the lcms become tuples on their first read, and complex reads none
    ideal = seeded_ideal(14, 0)
    path = tmp_path / "seeded.ideal"
    path.write_text(ideal_file_text(ideal), encoding="utf-8")
    assert main(["complex", "--format", "json", str(path)]) == 0
    capsys.readouterr()
    misses = tables_for.cache_info().misses
    tables = tables_for(read_ideal(path))
    assert tables_for.cache_info().misses == misses
    assert tables._lcm_exps is None
    # a later read builds them on these tables, equal to the definitions
    assert tables_for(ideal) is tables
    rng = random.Random(14)
    masks = sorted(rng.sample(range(1, 2 ** 14), 500)) + [2 ** 14 - 1]
    check_tables(ideal, masks)
    assert tables._lcm_exps is not None


def test_is_cover_flag():
    ideal = xyz_ideal("x^2*y", "y^2*z", "x^3", "y^3", "z^3")
    tables = tables_for(ideal)
    assert tables.is_cover(mask_of([1, 2, 3]))
    assert not tables.is_cover(mask_of([1, 2]))
    assert not tables.is_cover(mask_of([3]))


def test_lcm_monomial_rejects_empty():
    tables = tables_for(xyz_ideal("x", "y"))
    with pytest.raises(ValueError):
        tables.lcm_monomial(0)


def test_tables_are_cached():
    ideal = xyz_ideal("x*y", "y*z")
    assert tables_for(ideal) is tables_for(ideal)


def test_generator_bound():
    rows = [[1 if i == j else 0 for j in range(17)] for i in range(17)]
    ideal = exponent_ideal(rows)
    with pytest.raises(BoundExceededError):
        tables_for(ideal)


exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                 st.integers(0, 3))


@given(st.lists(exps.filter(lambda e: any(e)), min_size=1, max_size=5,
                unique=True))
def test_divisor_mask_is_monotone(rows):
    import warnings
    from lyubeznik import MinimizationWarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MinimizationWarning)
        ideal = exponent_ideal(rows)
    tables = tables_for(ideal)
    # enlarging a subset can only enlarge its lcm, hence its divisor set
    for mask in range(1, tables.size):
        for b in iter_bits(tables.size - 1):
            bigger = mask | (1 << b)
            assert tables.divisor_mask[mask] & ~tables.divisor_mask[bigger] == 0


def test_covers_are_upward_closed():
    ideal = xyz_ideal("x^2*y", "y^2*z", "x^3", "y^3", "z^3")
    tables = tables_for(ideal)
    full = tables.size - 1
    for mask in range(1, tables.size):
        covered = tables.covered_mask[mask]
        for b in iter_bits(full ^ mask):
            bigger = mask | (1 << b)
            # everything covered inside mask stays covered after growing it
            assert covered & ~tables.covered_mask[bigger] == 0
