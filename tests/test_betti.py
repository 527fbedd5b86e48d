"""Betti table construction and aggregation."""

from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lyubeznik import (
    QUOTIENT,
    BettiTable,
    VariableContext,
    parse_ideal,
    taylor_betti,
)

XY = VariableContext(("x", "y"))
ZERO2 = (0, 0)

KOSZUL2 = parse_ideal("vars x y\ngen x\ngen y")


UNIT = (0, ZERO2, 1)


def quotient_table(counts):
    return BettiTable.from_multigraded(XY, counts)


def test_subject_is_the_quotient():
    # every table is of R/I: the subject is a class constant, not a field
    assert [f.name for f in fields(BettiTable)] == ["context", "entries"]
    assert BettiTable(XY, (UNIT,)).subject == BettiTable.subject == QUOTIENT


def test_entries_are_canonicalized():
    scrambled = BettiTable(XY, ((2, (1, 1), 1), (1, (1, 0), 1), UNIT))
    assert scrambled.entries == (UNIT, (1, (1, 0), 1), (2, (1, 1), 1))


ENTRY = st.tuples(st.integers(1, 3), st.tuples(st.integers(0, 2),
                                               st.integers(0, 2)),
                  st.integers(1, 3))


@given(st.lists(ENTRY, max_size=12), st.randoms())
def test_entries_in_any_order_are_sorted_or_rejected_as_duplicates(entries,
                                                                  rng):
    # entries given in any order come out sorted; a key (i, multidegree)
    # given twice is refused in any order and with any counts
    entries.append(UNIT)
    rng.shuffle(entries)
    keys = [(i, exps) for i, exps, _ in entries]
    if len(set(keys)) < len(keys):
        with pytest.raises(ValueError, match="duplicate"):
            BettiTable(XY, tuple(entries))
    else:
        table = BettiTable(XY, tuple(entries))
        assert table.entries == tuple(sorted(entries))


def test_bad_entries_rejected():
    with pytest.raises(ValueError, match="positive"):
        BettiTable(XY, (UNIT, (1, (1, 0), 0)))
    with pytest.raises(ValueError, match="positive"):
        BettiTable(XY, ((-1, (1, 0), 1), UNIT))
    with pytest.raises(ValueError, match="length"):
        BettiTable(XY, (UNIT, (1, (1, 0, 0), 1)))
    with pytest.raises(ValueError, match="duplicate"):
        BettiTable(XY, (UNIT, (1, (1, 0), 1), (1, (1, 0), 2)))


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
        BettiTable(XY, ((1, (1, 0), 1), (0, (0, 1), 1), (0, ZERO2, 1)))
    table = BettiTable(XY, ((1, (1, 0), 1), (0, ZERO2, 1)))
    assert table.entries == ((0, ZERO2, 1), (1, (1, 0), 1))


def test_from_multigraded_drops_zero_counts():
    table = quotient_table({(0, ZERO2): 1, (1, (1, 0)): 1, (2, (1, 1)): 0})
    assert table.entries == (UNIT, (1, (1, 0), 1))


def test_graded_aggregates_total_degree():
    table = quotient_table({(0, ZERO2): 1, (1, (2, 0)): 1, (1, (1, 1)): 3,
                            (2, (2, 1)): 2})
    assert table.graded == {(0, 0): 1, (1, 2): 4, (2, 3): 2}
    assert table.projective_dimension == 2


def test_koszul_oracle_table():
    table = taylor_betti(KOSZUL2)
    assert table.context == KOSZUL2.context
    assert table.multigraded_raw == {
        (0, (0, 0)): 1,
        (1, (1, 0)): 1,
        (1, (0, 1)): 1,
        (2, (1, 1)): 1,
    }
    assert table.graded == {(0, 0): 1, (1, 1): 2, (2, 2): 1}
    assert table.projective_dimension == 2


def test_row_views():
    table = taylor_betti(KOSZUL2)
    assert table.graded_rows() == ((0, 0, 1), (1, 1, 2), (2, 2, 1))


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
        assert sum(c for (k, _), c in table.graded.items() if k == i) == \
            sum(c for (k, _), c in counts.items() if k == i)
