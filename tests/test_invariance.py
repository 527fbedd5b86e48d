"""The ``covers`` output against transforms of the ideal that keep its
lcm lattice with generator labels.

Whether a set covers a generator depends only on divisibility among
the lcms of generators, and so do the E-minimal covers and the
clutter.  Polarizing an ideal (each x^a becomes x_1*...*x_a, one new
variable per power) and permuting its variables keep that
divisibility, generator by generator.  So the ``covers --format json``
payload, but for its ``ideal`` field, must be the same for the ideal,
its polarization and the ideal with its variables permuted.  The
inputs are the corpus ideals that are not squarefree, seeded ideals at
mu 8 to 11 and hypothesis ideals.

The order search's answers are checked from outside the same way:
renumbering the generators permutes the mu! orders, so every search
aggregate is the same for the ideal with its generators permuted, and
each witness, renumbered, has the same length and obstruction under
the permuted ideal.  The words themselves are compared only under the
identity permutation, since the lexicographically least witness
depends on the numbering.  Polarizing, and replacing each variable's
exponents by their ranks among 0 and that variable's exponents, keep
divisibility among the lcms generator by generator and keep the
numbering, so under both every aggregate, both witness words and the
projective dimension are the same, and under polarization, which keeps
degrees, so is the graded Betti table.  The inputs are the sweep
corpus, seeded ideals at mu 8 to 10 and hypothesis ideals.
"""

import contextlib
import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (Monomial, MonomialIdeal, OrderedIdeal, VariableContext,
                       all_ideals, l_length, obstruction, search_scan,
                       sweep_ideals, taylor_betti)
from lyubeznik.cli import main

from test_cli_routes import ideal_file_text
from test_preserved_kernel import seeded_ideal
from test_scan_kernel import exponent_rows, small_ideal


def rebuilt(names, rows) -> MonomialIdeal:
    context = VariableContext(tuple(names))
    return MonomialIdeal.from_generators(
        [Monomial(context, tuple(row)) for row in rows])


def polarized(ideal) -> MonomialIdeal:
    """Each power x^a of a generator becomes x_1*...*x_a."""
    tops = [max(column) for column in
            zip(*(m.exponents for m in ideal.gens))]
    names = [f"{name}_{k}" for name, top in zip(ideal.context.names, tops)
             for k in range(1, top + 1)]
    return rebuilt(names, [[int(k <= e)
                            for e, top in zip(m.exponents, tops)
                            for k in range(1, top + 1)]
                           for m in ideal.gens])


def ranked(ideal) -> MonomialIdeal:
    """Each exponent replaced by its rank among 0 and the exponents of
    its variable."""
    ranks = [{e: r for r, e in enumerate(sorted({0, *column}))}
             for column in zip(*(m.exponents for m in ideal.gens))]
    return rebuilt(ideal.context.names,
                   [[rank[e] for rank, e in zip(ranks, m.exponents)]
                    for m in ideal.gens])


def permuted(ideal, perm) -> MonomialIdeal:
    """The ideal with variable ``perm[i]`` in place ``i``."""
    return rebuilt([ideal.context.names[i] for i in perm],
                   [[m.exponents[i] for i in perm] for m in ideal.gens])


def covers_payload(ideal, directory) -> dict:
    """The ``covers --format json`` payload of the ideal, but for its
    ``ideal`` field."""
    path = os.path.join(directory, "transformed.ideal")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(ideal_file_text(ideal))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["covers", "--format", "json", path]) == 0
    payload = json.loads(stdout.getvalue())
    del payload["ideal"]
    return payload


def check_invariance(ideal, seed):
    n = len(ideal.context)
    # a shuffle that moves the first variable (when there are two), and
    # the reversal
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    if perm[0] == 0:
        perm = perm[1:] + perm[:1]
    with tempfile.TemporaryDirectory() as tmp:
        payload = covers_payload(ideal, tmp)
        assert covers_payload(polarized(ideal), tmp) == payload
        for order in (perm, list(reversed(range(n)))):
            assert covers_payload(permuted(ideal, order), tmp) == payload


NOT_SQUAREFREE = [(name, ideal) for name, ideal in all_ideals()
                  if any(e > 1 for m in ideal.gens for e in m.exponents)]


def test_the_corpus_has_ideals_that_are_not_squarefree():
    assert len(NOT_SQUAREFREE) >= 5


@pytest.mark.parametrize("name,ideal", NOT_SQUAREFREE,
                         ids=[name for name, _ in NOT_SQUAREFREE])
def test_covers_are_invariant_on_the_corpus(name, ideal):
    check_invariance(ideal, 0)


@pytest.mark.parametrize("mu,seed", [(8, 0), (9, 1), (10, 2), (11, 3)])
def test_covers_are_invariant_on_seeded_ideals(mu, seed):
    check_invariance(seeded_ideal(mu, seed), seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4).flatmap(exponent_rows), st.integers(0, 2**16))
def test_covers_are_invariant_on_random_ideals(rows, seed):
    check_invariance(small_ideal(rows), seed)


SEARCH_FIELDS = ("minimal_count", "lyubeznik", "totally_lyubeznik", "tobsl",
                 "projdim", "min_l")
# what depends on the generators' numbering as well
NUMBERED_FIELDS = SEARCH_FIELDS + ("almost_lyubeznik", "min_l_witness",
                                   "tobsl_witness")


def measures(ideal, word):
    ordered = OrderedIdeal(ideal, word)
    return l_length(ordered), obstruction(ordered)


def check_search_invariance(ideal, seed):
    mu = ideal.mu
    # the identity, a shuffle that moves the first generator (when there
    # are two), and the reversal
    shuffle = list(range(mu))
    random.Random(seed).shuffle(shuffle)
    if shuffle[0] == 0:
        shuffle = shuffle[1:] + shuffle[:1]
    scan = search_scan(ideal)
    witnesses = (scan.min_l_witness, scan.tobsl_witness)
    for perm in (list(range(mu)), shuffle, list(reversed(range(mu)))):
        # generator perm[i] + 1 of the ideal is generator i + 1 of moved
        moved = MonomialIdeal(ideal.context,
                              tuple(ideal.gens[i] for i in perm))
        found = search_scan(moved)
        for field in SEARCH_FIELDS:
            assert getattr(found, field) == getattr(scan, field), (perm,
                                                                   field)
        place = {old + 1: new + 1 for new, old in enumerate(perm)}
        for word in witnesses:
            assert measures(moved, tuple(place[g] for g in word)) == \
                measures(ideal, word), perm
        if perm == sorted(perm):
            assert (found.min_l_witness, found.tobsl_witness) == witnesses
    for transform in (polarized, ranked):
        found = search_scan(transform(ideal))
        for field in NUMBERED_FIELDS:
            assert getattr(found, field) == getattr(scan, field), (
                transform.__name__, field)
    assert (taylor_betti(polarized(ideal)).graded
            == taylor_betti(ideal).graded)


SWEEP = sweep_ideals()


@pytest.mark.parametrize("name,ideal", SWEEP, ids=[name for name, _ in SWEEP])
def test_search_is_invariant_on_the_corpus(name, ideal):
    check_search_invariance(ideal, 0)


@pytest.mark.parametrize("mu,seed", [(8, 0), (9, 1), (10, 2)])
def test_search_is_invariant_on_seeded_ideals(mu, seed):
    check_search_invariance(seeded_ideal(mu, seed), seed)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4).flatmap(exponent_rows), st.integers(0, 2**16))
def test_search_is_invariant_on_random_ideals(rows, seed):
    check_search_invariance(small_ideal(rows), seed)
