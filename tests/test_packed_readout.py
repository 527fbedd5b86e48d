"""The scanner's bit-packed closure and readout against the unpacked one.

``_BlockScanner`` reads each order's length and obstruction off the
unpreserved sets packed 64 orders to a word.  ``unpacked_readout`` in
``reference_routes`` up-closes the same kernel's broken sets as one
bool per (mask, order) and reads them the way the scanner did before
packing.  Both must agree on every block of a seeded mu = 9 scan, and
on blocks whose length is not a multiple of 8 or of 64, where the last
packed word is padded.
"""

from itertools import islice

import numpy as np

from lyubeznik import load_ideal, orders_for_search
from lyubeznik.complexes import PreservedKernel
from lyubeznik.invariants import _BlockScanner, _word_blocks
from lyubeznik.subsets import tables_for

from reference_routes import unpacked_readout
from test_preserved_kernel import seeded_ideal
from test_scan_kernel import SCAN_NAMES


def check_blocks(ideal, blocks):
    scanner = _BlockScanner(ideal)
    kernel = PreservedKernel(tables_for(ideal).outside_mask)
    for block in blocks:
        least, court_rank, _ = kernel(block)
        expected = unpacked_readout(ideal, least, court_rank)
        for got, want in zip(scanner(block), expected):
            assert np.array_equal(got, want), (ideal, block[0])


def test_packed_readout_on_every_block_of_a_mu_9_scan():
    ideal = seeded_ideal(9, seed=9)
    assert ideal.mu == 9
    words, _ = orders_for_search(ideal, "exhaustive", max_exhaustive=ideal.mu)
    check_blocks(ideal, _word_blocks(words, ideal.mu, 4096))


def test_packed_readout_on_ragged_blocks():
    # the Koszul ideal's full set is preserved: a length of mu
    names = SCAN_NAMES + ["koszul_three_vars"]
    ideals = [load_ideal(name) for name in names] + [seeded_ideal(9, 9)]
    for ideal in ideals:
        for chunk in (1, 7, 13, 63, 65, 4097):
            words, _ = orders_for_search(ideal, "exhaustive", max_exhaustive=ideal.mu)
            check_blocks(ideal, islice(_word_blocks(words, ideal.mu, chunk),
                                       3))

