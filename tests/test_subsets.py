import gc
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (BoundExceededError, Monomial, divides, edge_ideal,
                       identity_order, l_length, lcm_of, parse_order,
                       read_graph, read_ideal, search_scan, taylor_betti,
                       verify_resolution_report)
from lyubeznik.cli import main
from lyubeznik.complexes import order_analysis
from lyubeznik.corpus import ideal_names, load_ideal
from lyubeznik.covers import _CoverTable, cover_table
from lyubeznik.monomials import EXPONENT_LIMIT
from lyubeznik.oracle import (_LcmClasses, _Strands, _cone_verdicts,
                              _critical_strands, _lcm_classes)
from lyubeznik.subsets import (SubsetTables, bit_pairs, indices_of,
                               iter_bits, lone_bits, mask_of, one_smaller,
                               tables_for, up_closure)

from conftest import exponent_ideal, xyz_ideal
from reference_routes import (CoverWalk, RankTables, cones_per_apex,
                              covered_by_gathers, critical_by_gathers,
                              equivalence_audit, exhaustive_scan,
                              homology_of_critical)
from test_cli_routes import ideal_file_text
from test_oracle import RP2
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


def neighbour_or(values):
    """Entry m: the OR of ``values`` over m's one-smaller subsets, by one
    fancy-indexed gather per bit, which shares no view with the lattice
    passes."""
    masks = np.arange(len(values))
    out = np.zeros_like(values)
    for b in range(len(values).bit_length() - 1):
        high = masks[masks >> b & 1 == 1]
        out[high] |= values[high ^ (1 << b)]
    return out


def closure_by_gathers(marks):
    """The up-closure, one fancy-indexed gather per bit."""
    closed = marks.copy()
    masks = np.arange(len(marks))
    for b in range(len(marks).bit_length() - 1):
        high = masks[masks >> b & 1 == 1]
        closed[high] |= closed[high ^ (1 << b)]
    return closed


def random_values(mu, dtype):
    rng = np.random.default_rng(mu)
    if dtype is bool:
        return rng.random(1 << mu) < 0.3
    return rng.integers(0, np.iinfo(dtype).max, 1 << mu, dtype=dtype,
                        endpoint=True)


# both layouts of the split: the one reshaped pair below 2^12 masks and
# at bits 3 and up, the strided columns at bits 0-2 from 2^12 masks on
LAYOUT_MUS = [*range(9), 12, 13, 14]


@pytest.mark.parametrize("mu", LAYOUT_MUS)
def test_bit_pairs_split_the_masks_by_the_bit(mu):
    values = np.arange(1 << mu)
    for b in range(mu):
        pairs = bit_pairs(values, b)
        columns = b < 3 and mu >= 12
        assert len(pairs) == (1 << b if columns else 1)
        lows = np.concatenate([low.ravel() for low, _ in pairs])
        highs = np.concatenate([high.ravel() for _, high in pairs])
        # every mask without the bit once, each beside its partner
        assert np.array_equal(np.sort(lows),
                              np.flatnonzero(values >> b & 1 == 0))
        assert np.array_equal(highs, lows | 1 << b)
        for low, high in pairs:
            assert low.ndim == (1 if columns else 2)
            assert np.shares_memory(low, values)
            assert np.shares_memory(high, values)


@pytest.mark.parametrize("dtype", [bool, np.uint16, np.int64])
@pytest.mark.parametrize("mu", LAYOUT_MUS)
def test_lattice_passes_match_the_neighbours(mu, dtype):
    values = random_values(mu, dtype)
    values.flags.writeable = False
    smaller = one_smaller(values)
    assert smaller.dtype == values.dtype and smaller.shape == values.shape
    assert np.array_equal(smaller, neighbour_or(values))
    # a few marked masks, so that the closure does not mark them all
    marks = np.zeros_like(values)
    at = np.random.default_rng(mu).integers(0, 1 << mu, 4)
    marks[at] = values[at] | 1
    closed = up_closure(marks.copy())
    assert closed.dtype == marks.dtype
    assert np.array_equal(closed, closure_by_gathers(marks))


@pytest.mark.parametrize("mu", [0, 1, 5, 8, 9, 13])
def test_lone_bits_read_the_unmarked_toggles(mu):
    # at mu 13 about 4,100 and 8,200 marks cross the gathers' block of
    # 4,096; mu 8 and 9 cross the narrow dtype from uint8 to uint16
    rng = np.random.default_rng(mu)
    narrow = np.min_scalar_type((1 << mu) - 1)
    for density in (0.0, 0.5, 1.0, 4100 / 8192):
        marked = rng.random(1 << mu) < density
        lone = lone_bits(marked)
        assert lone.dtype == narrow
        masks = np.flatnonzero(marked)
        assert lone.shape == masks.shape
        for b in range(mu):
            assert np.array_equal(lone >> b & 1 == 1,
                                  ~marked[masks ^ 1 << b])
        assert not np.any(lone >> mu)


def pool_ideals(pool):
    """(file name, ideal) for every input of the pool, a graph file by
    its edge ideal."""
    out, inputs = pool
    for name in sorted(inputs):
        if name.endswith(".graph"):
            yield name, edge_ideal(read_graph(out / name))
        else:
            yield name, read_ideal(out / name)


def test_passes_match_the_gathers_on_the_pool_at_mu_14_and_16(pool):
    # each lattice pass at 2^14 and 2^16 masks, where its low bits are
    # strided columns: the covered masks, the clutter and the cone
    # verdicts, against routes that gather with fancy indices or walk
    # the masks (the strands are checked on the whole pool below)
    out, inputs = pool
    names = [n for n in sorted(inputs) if n.startswith(("c14-", "c16-00"))]
    assert len(names) == 15
    for name in names:
        ideal = read_ideal(out / name)
        tables = tables_for(ideal)
        assert np.array_equal(tables.covered_mask,
                              covered_by_gathers(tables)), name
        assert cover_table(ideal).clutter == CoverWalk(ideal).clutter, name
        classes = _lcm_classes(ideal)
        for word in inputs[name]["orders"][:1]:
            ordered = parse_order(word, ideal)
            analysis = order_analysis(ordered)
            apexes = 1 << (np.array(ordered.order)[
                analysis.least[classes.vertex_sets]] - 1)
            faces = analysis.preserved
            assert np.array_equal(
                _cone_verdicts(faces, lone_bits(faces), classes.vertex_sets,
                               apexes),
                cones_per_apex(faces, classes.vertex_sets,
                               apexes)), (name, word)


def check_strands(ideal, name=None):
    """The strands' critical masks, read off the covered masks, and
    their homology over Q and GF(2), ranked once over Z, against the
    gathers of ``class_of`` ranked per field."""
    strands = _critical_strands(ideal)
    critical = critical_by_gathers(tables_for(ideal))
    assert strands.critical == critical, name
    for prime in (None, 2):
        assert strands.homology(prime) == \
            homology_of_critical(critical, prime), (name, prime)


def test_strands_match_the_gathers_on_the_pool(pool):
    mus = set()
    for name, ideal in pool_ideals(pool):
        check_strands(ideal, name)
        mus.add(ideal.mu)
    assert min(mus) == 7 and max(mus) == 16


@settings(max_examples=40)
@given(st.integers(2, 5).flatmap(exponent_rows))
def test_strands_match_the_gathers_on_random_ideals(rows):
    check_strands(small_ideal(rows, max_mu=10))


def test_strands_match_the_gathers_on_the_rp2_ideal():
    # the strand at x1*...*x6 has homology over GF(2) only
    check_strands(RP2)
    homology = _critical_strands(RP2).homology
    assert homology(2).items() - homology().items() == {
        ((3, (1,) * 6), 1), ((4, (1,) * 6), 1)}


@pytest.mark.parametrize("mu", [12, 14])
def test_cones_match_the_per_apex_route_on_random_families(mu):
    # an order's faces are cones over every apex; random families are
    # mostly not, so both verdicts are met
    rng = np.random.default_rng(mu)
    family = rng.random(1 << mu) < 0.97
    vertex_sets = np.unique(rng.integers(1, 1 << mu, 300))
    apexes = 1 << rng.integers(0, mu, len(vertex_sets))
    apexes = np.where(vertex_sets & apexes, apexes, vertex_sets & -vertex_sets)
    verdicts = _cone_verdicts(family, lone_bits(family), vertex_sets,
                              apexes)
    assert np.array_equal(verdicts,
                          cones_per_apex(family, vertex_sets, apexes))
    assert 0 < verdicts.sum() < len(verdicts)


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
    # the empty mask's lcm is the zero tuple
    assert tables.lcm_tuples(checked) == lcms
    check_rank_route(ideal)


def check_rank_route(ideal):
    """The tables of every mask equal those read in exponent-rank
    space (``reference_routes.RankTables``)."""
    tables, ranks = tables_for(ideal), RankTables(ideal)
    assert np.array_equal(tables.divisor_mask, ranks.divisor_mask)
    assert np.array_equal(tables.covered_mask, ranks.covered_mask)
    masks = np.arange(tables.size)
    lcms = ranks.lcm_tuples(masks)
    assert tables.lcm_tuples(masks) == lcms
    assert tables.lcm_exps[1:] == lcms[1:]
    for mask in (1, tables.size >> 1, tables.size - 1):
        assert tables.lcm_monomial(mask) == Monomial(ideal.context,
                                                     lcms[mask])


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


def limit_ideal(mu):
    """``seeded_ideal(mu, 0)`` with its exponents 2 and 3 moved to
    EXPONENT_LIMIT - 1 and EXPONENT_LIMIT, which keeps every
    comparison of exponents."""
    top = {0: 0, 1: 1, 2: EXPONENT_LIMIT - 1, 3: EXPONENT_LIMIT}
    return exponent_ideal([[top[e] for e in m.exponents]
                           for m in seeded_ideal(mu, 0).gens])


@pytest.mark.parametrize("mu", range(1, 17))
def test_tables_match_the_rank_route_at_the_exponent_limit(mu):
    ideal = limit_ideal(mu)
    assert ideal.mu == mu
    if mu >= 4:
        assert {EXPONENT_LIMIT - 1, EXPONENT_LIMIT} <= {
            e for m in ideal.gens for e in m.exponents}
    check_rank_route(ideal)


def test_tables_match_the_rank_route_on_the_pool(pool):
    mus = set()
    for name, ideal in pool_ideals(pool):
        check_rank_route(ideal)
        mus.add(ideal.mu)
    assert min(mus) == 7 and max(mus) == 16


def test_tables_of_the_sixteen_variable_simplex():
    # x1, ..., x16: a generator divides an lcm only as one of its
    # members, and no member is covered
    ideal = exponent_ideal([[int(i == j) for j in range(16)]
                            for i in range(16)])
    check_rank_route(ideal)
    tables = tables_for(ideal)
    assert np.array_equal(tables.divisor_mask, np.arange(tables.size))
    assert not tables.covered_mask.any()
    assert tables.lcm_exps[0b1010] == (0, 1, 0, 1) + (0,) * 12


def test_tables_hold_no_subset_array_besides_the_two_masks():
    # the lcms are computed for the masks a caller names, from the
    # generators' exponent rows, and kept for all masks only once
    # lcm_exps is read
    ideal = seeded_ideal(16, 1)
    tables_for.cache_clear()
    tables = tables_for(ideal)

    def arrays():
        return {name: getattr(tables, name) for name in SubsetTables.__slots__
                if isinstance(getattr(tables, name), np.ndarray)}
    held = arrays()
    assert {name for name, a in held.items() if a.size >= tables.size} \
        == {"divisor_mask", "covered_mask"}
    assert sum(a.size for name, a in held.items()
               if name not in ("divisor_mask", "covered_mask")) \
        == ideal.mu * len(ideal.context)
    assert tables._lcm_exps is None and tables._derived == {}
    masks = [1, 12345, 2 ** 16 - 1]
    assert tables.lcm_tuples(masks) == [
        ideal.lcm(indices_of(m)).exponents for m in masks]
    assert tables._lcm_exps is None
    assert arrays().keys() == held.keys()


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
    assert tables.covered_mask[mask_of([1, 2, 3])] != 0
    assert tables.covered_mask[mask_of([1, 2])] == 0
    assert tables.covered_mask[mask_of([3])] == 0


def test_lcm_monomial_rejects_empty():
    tables = tables_for(xyz_ideal("x", "y"))
    with pytest.raises(ValueError):
        tables.lcm_monomial(0)


def test_tables_are_cached():
    ideal = xyz_ideal("x*y", "y*z")
    assert tables_for(ideal) is tables_for(ideal)


def test_an_ideal_s_state_goes_with_its_tables():
    # the cover table, the walks' closed masks, the lcm classes and the
    # strands are kept with the ideal's subset tables, so once the one
    # tables_for entry moves to another ideal nothing built for the
    # first one is left, whatever read it
    kinds = (SubsetTables, _CoverTable, _LcmClasses, _Strands)
    first, second = load_ideal("mixed_powers_xyz"), xyz_ideal("x*y", "y*z")
    tables_for.cache_clear()
    order_analysis.cache_clear()
    gc.collect()
    # held, so that their ids stay theirs
    before = [o for o in gc.get_objects() if isinstance(o, kinds)]
    seen = {id(o) for o in before}

    def new():
        return [o for o in gc.get_objects()
                if isinstance(o, kinds) and id(o) not in seen]

    scan = search_scan(first)
    assert scan.min_l >= scan.projdim and scan.tobsl >= 0
    assert scan.totally_lyubeznik == exhaustive_scan(first).totally_lyubeznik
    ordered = identity_order(first)
    taylor_betti(first)
    assert all(ok for _, ok in verify_resolution_report(ordered))
    assert equivalence_audit(ordered).consistent
    # each of the four was built, and the collector sees it
    assert sorted(type(o).__name__ for o in new()) == sorted(
        kind.__name__ for kind in kinds)
    del scan, ordered
    l_length(identity_order(second))
    gc.collect()
    left = new()
    assert [type(o) for o in left] == [SubsetTables]
    assert left[0].ideal == second


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
