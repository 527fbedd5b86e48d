"""Betti table construction, aggregation, and the quotient/ideal shift."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lyubeznik import (
    IDEAL,
    QUOTIENT,
    BettiTable,
    Monomial,
    VariableContext,
    parse_ideal,
    taylor_betti,
)

XY = VariableContext(("x", "y"))
ZERO2 = (0, 0)

KOSZUL2 = parse_ideal("vars x y\ngen x\ngen y")


def quotient_table(counts):
    return BettiTable.from_multigraded(QUOTIENT, XY, counts)


def test_subject_is_checked():
    with pytest.raises(ValueError, match="subject"):
        BettiTable("module", XY, ((0, ZERO2, 1),))


def test_entries_are_canonicalized():
    scrambled = BettiTable(IDEAL, XY, ((1, (1, 1), 1), (0, (1, 0), 1)))
    assert scrambled.entries == ((0, (1, 0), 1), (1, (1, 1), 1))


ENTRY = st.tuples(st.integers(0, 3), st.tuples(st.integers(0, 2),
                                               st.integers(0, 2)),
                  st.integers(1, 3))


@given(st.lists(ENTRY, max_size=12), st.randoms())
def test_entries_in_any_order_are_sorted_or_rejected_as_duplicates(entries,
                                                                  rng):
    # entries given in any order come out sorted; a key (i, multidegree)
    # given twice is refused in any order and with any counts
    rng.shuffle(entries)
    keys = [(i, exps) for i, exps, _ in entries]
    if len(set(keys)) < len(keys):
        with pytest.raises(ValueError, match="duplicate"):
            BettiTable(IDEAL, XY, tuple(entries))
    else:
        table = BettiTable(IDEAL, XY, tuple(entries))
        assert table.entries == tuple(sorted(entries))


def test_bad_entries_rejected():
    with pytest.raises(ValueError, match="positive"):
        BettiTable(IDEAL, XY, ((0, (1, 0), 0),))
    with pytest.raises(ValueError, match="positive"):
        BettiTable(IDEAL, XY, ((-1, (1, 0), 1),))
    with pytest.raises(ValueError, match="length"):
        BettiTable(IDEAL, XY, ((0, (1, 0, 0), 1),))
    with pytest.raises(ValueError, match="duplicate"):
        BettiTable(IDEAL, XY, ((0, (1, 0), 1), (0, (1, 0), 2)))


def test_quotient_needs_exactly_one_unit():
    with pytest.raises(ValueError, match="beta"):
        quotient_table({(1, (1, 0)): 1})
    with pytest.raises(ValueError, match="beta"):
        quotient_table({(0, ZERO2): 1, (0, (1, 0)): 1})
    with pytest.raises(ValueError, match="beta"):
        quotient_table({(0, ZERO2): 2})
    with pytest.raises(ValueError, match="beta"):
        quotient_table({})
    with pytest.raises(ValueError, match="beta"):
        BettiTable(QUOTIENT, XY, ((1, (1, 0), 1), (0, (0, 1), 1),
                                  (0, ZERO2, 1)))
    table = BettiTable(QUOTIENT, XY, ((1, (1, 0), 1), (0, ZERO2, 1)))
    assert table.entries == ((0, ZERO2, 1), (1, (1, 0), 1))


def test_from_multigraded_drops_zero_counts():
    table = BettiTable.from_multigraded(
        IDEAL, XY, {(0, (1, 0)): 1, (1, (1, 1)): 0})
    assert table.entries == ((0, (1, 0), 1),)


def test_graded_aggregates_total_degree():
    table = BettiTable.from_multigraded(
        IDEAL, XY, {(0, (2, 0)): 1, (0, (1, 1)): 3, (1, (2, 1)): 2})
    assert table.graded == {(0, 2): 4, (1, 3): 2}
    assert table.betti(0) == 4
    assert table.betti(0, 2) == 4
    assert table.betti(0, 5) == 0
    assert table.betti(7) == 0
    assert table.projective_dimension == 1


def test_shift_between_quotient_and_ideal():
    q = quotient_table({(0, ZERO2): 1, (1, (1, 0)): 1,
                        (1, (0, 1)): 1, (2, (1, 1)): 1})
    i = q.as_ideal()
    assert i.subject == IDEAL
    assert i.multigraded_raw == {(0, (1, 0)): 1, (0, (0, 1)): 1, (1, (1, 1)): 1}
    assert i.as_quotient() == q
    assert q.as_quotient() is q
    assert i.as_ideal() is i


def test_koszul_oracle_table():
    table = taylor_betti(KOSZUL2)
    assert table.subject == QUOTIENT
    assert table.context == KOSZUL2.context
    assert table.multigraded_raw == {
        (0, (0, 0)): 1,
        (1, (1, 0)): 1,
        (1, (0, 1)): 1,
        (2, (1, 1)): 1,
    }
    assert table.graded == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert table.projective_dimension == 2


def test_multigraded_view_uses_monomials():
    table = taylor_betti(KOSZUL2)
    ctx = KOSZUL2.context
    assert table.multigraded[(1, Monomial(ctx, (1, 0)))] == 1
    assert table.multigraded[(2, Monomial(ctx, (1, 1)))] == 1


def test_row_views():
    table = taylor_betti(KOSZUL2)
    assert table.graded_rows() == ((0, 0, 1), (1, 1, 2), (2, 2, 1))
    assert table.multigraded_rows() == (
        (0, "1", 1), (1, "y", 1), (1, "x", 1), (2, "x*y", 1))


entry_keys = st.tuples(st.integers(min_value=1, max_value=4),
                       st.tuples(st.integers(0, 3), st.integers(0, 3)))


@given(st.dictionaries(entry_keys, st.integers(min_value=1, max_value=5),
                       min_size=1, max_size=8))
def test_graded_totals_match_multigraded(counts):
    counts = dict(counts)
    counts[(0, ZERO2)] = 1
    table = quotient_table(counts)
    assert sum(table.graded.values()) == sum(counts.values())
    for i in {k for k, _ in counts}:
        assert table.betti(i) == sum(c for (k, _), c in counts.items() if k == i)


@given(st.dictionaries(entry_keys, st.integers(min_value=1, max_value=5),
                       max_size=8))
def test_shift_round_trips(counts):
    counts = dict(counts)
    counts[(0, ZERO2)] = 1
    q = quotient_table(counts)
    assert q.as_ideal().as_quotient() == q
    if len(counts) > 1:
        assert q.as_ideal().projective_dimension == q.projective_dimension - 1
