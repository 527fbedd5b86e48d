"""The oracle's callers against the routes they replaced.

A search's ``projdim`` reads pd(R/I) off the Morse-reduced strands,
from the top level down (``oracle._projective_dimension``), without a
Betti table.  It must equal the top index of the whole table
(``reference_routes.table_projective_dimension``) over Q, GF(2) and
GF(32003) on every corpus ideal, on the benchmark's seed-1 pool up to
mu 14 and on hypothesis ideals.  ``taylor_betti`` reads a one-level
strand's count as its homology, and no rank is taken for it.

``height`` searches the generators' support bitmasks by branch and
bound; the checking route searches the supports of the re-minimised
radical as sets by increasing size, on the corpus, the seed-1 pool and
hypothesis ideals.  The
Betti rows are written by ``monomials.monomial_text`` from exponent
tuples; the checking route is ``Monomial.__str__`` as it was.  And
with ``lcm_exps`` made to raise, the oracle and the preserved-set
counts still answer: they gather the lcm tuples they read.  On the
seed-1 o10-o12 ideals the benchmark's four oracle requests take every
rank in the table over Q, and write each lattice point's text at most
once.
"""

import io
import warnings
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import lyubeznik.cli as cli
import lyubeznik.oracle as oracle
from lyubeznik import (Monomial, OrderedIdeal, VariableContext, all_ideals,
                       analyze, identity_order, is_lyubeznik, read_ideal,
                       sweep_ideals, taylor_betti, verify_chain_complex,
                       verify_resolution_report)
from lyubeznik.complexes import order_analysis
from lyubeznik.graphs import edge_ideal, read_graph
from lyubeznik.invariants import _preserved_betti, height
from lyubeznik.monomials import (EXPONENT_LIMIT, MinimizationWarning,
                                 monomial_text)
from lyubeznik.oracle import _projective_dimension
from lyubeznik.subsets import SubsetTables, tables_for

from conftest import exponent_ideal, xyz_ideal
import reference_routes as reference
from test_oracle_routes import FIELDS
from test_scan_kernel import exponent_rows, small_ideal


def check_projective_dimension(ideal):
    for prime in FIELDS:
        assert _projective_dimension(ideal, prime=prime) == \
            reference.table_projective_dimension(ideal, prime), prime


def test_projective_dimension_matches_the_table_on_the_corpus():
    for name, ideal in all_ideals():
        check_projective_dimension(ideal)


def test_projective_dimension_matches_the_table_on_the_pool(pool):
    out, inputs = pool
    names = [n for n, e in inputs.items()
             if n.endswith(".ideal") and e["mu"] <= 14]
    assert len(names) > 100
    for name in sorted(names):
        check_projective_dimension(read_ideal(out / name))


@settings(max_examples=40)
@given(st.integers(2, 5).flatmap(exponent_rows))
def test_projective_dimension_matches_the_table_on_random_ideals(rows):
    check_projective_dimension(small_ideal(rows, max_mu=10))


def test_projective_dimension_builds_no_betti_table(monkeypatch):
    ideal = xyz_ideal("x*y", "y*z", "z*t", "x*t", "x^2*z")
    expected = reference.table_projective_dimension(ideal)
    monkeypatch.setattr(oracle, "BettiTable", None)
    monkeypatch.setattr(oracle, "_strand_homology", None)
    assert _projective_dimension(ideal) == expected


def test_one_level_strands_never_reach_the_rank_path(monkeypatch):
    levels = []

    def strand_homology(by_size, rank):
        levels.append(len(by_size))
        return reference_homology(by_size, rank)

    reference_homology = oracle._strand_homology
    monkeypatch.setattr(oracle, "_strand_homology", strand_homology)
    for name, ideal in sweep_ideals():
        tables_for.cache_clear()
        strands = oracle._critical_strands(ideal)
        levels.clear()
        assert taylor_betti(ideal) == reference.full_strand_betti(ideal)
        assert levels == [len(s) for s in strands.critical.values()
                          if len(s) > 1]

    # a complete intersection's strands each have one level: no rank
    def refuse(vectors):
        raise AssertionError("a one-level strand was ranked")

    monkeypatch.setattr(oracle, "_rank_function", lambda prime: refuse)
    monkeypatch.setattr(oracle, "certified_rank", refuse)
    koszul = xyz_ideal("x", "y", "z")
    assert taylor_betti(koszul).projective_dimension == 3


def check_height(ideal):
    assert height(ideal) == reference.height(ideal)


def test_height_matches_the_radical_route_on_the_corpus():
    for name, ideal in all_ideals():
        check_height(ideal)


def test_height_matches_the_radical_route_on_the_pool(pool):
    # every seed-1 ideal file and graph's edge ideal
    out, inputs = pool
    for name in sorted(inputs):
        if name.endswith(".graph"):
            check_height(edge_ideal(read_graph(out / name)))
        else:
            check_height(read_ideal(out / name))


def test_height_with_powers_and_unused_variables():
    # t divides no generator; the supports of x^2*y and x*y^3 coincide
    check_height(xyz_ideal("x^2*y", "x*y^3", "z^2"))
    check_height(xyz_ideal("x^3", "y^2*z"))
    assert height(xyz_ideal("x^2*y", "x*y^3", "z^2")) == 2
    assert height(xyz_ideal("x^4")) == 1


@settings(max_examples=60)
@given(st.integers(2, 5).flatmap(exponent_rows), st.integers(0, 2))
def test_height_matches_the_radical_route_on_random_ideals(rows, unused):
    # trailing zero columns: variables that divide no generator
    rows = [row + (0,) * unused for row in rows]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MinimizationWarning)
        check_height(exponent_ideal(rows))


@settings(max_examples=100)
@given(st.lists(st.integers(0, EXPONENT_LIMIT) | st.integers(0, 3),
                min_size=1, max_size=6)
       | st.lists(st.integers(0, 1) | st.booleans(), min_size=1, max_size=6))
def test_monomial_text_matches_the_old_str(exps):
    # squarefree rows, bools among them, take the names in one pass
    names = tuple(f"x{i}" for i in range(1, len(exps) + 1))
    text = reference.monomial_text(names, exps)
    assert monomial_text(names, exps) == text
    assert str(Monomial(VariableContext(names), tuple(exps))) == text


def test_betti_rows_match_the_monomial_route():
    # the texts the commands write each multidegree with
    for name, ideal in all_ideals():
        texts = oracle._lcm_classes(ideal).texts
        for _, exps, _ in taylor_betti(ideal).entries:
            assert texts[exps] == str(Monomial(ideal.context, exps)), name


def test_the_oracle_and_the_counts_never_build_lcm_exps(monkeypatch):
    # expected values first: the checking routes read lcm_exps
    cases = []
    for name, ideal in sweep_ideals():
        verdict = is_lyubeznik(ideal)
        if verdict.verdict:
            ordered = verdict.witness
            cases.append((ideal, ordered, reference.preserved_betti(ordered),
                          reference.full_strand_betti(ideal)))
    assert len(cases) > 10

    def refuse(self):
        raise AssertionError("lcm_exps was read")

    monkeypatch.setattr(SubsetTables, "lcm_exps", property(refuse))
    tables_for.cache_clear()
    order_analysis.cache_clear()
    for ideal, ordered, counts, betti in cases:
        assert taylor_betti(ideal) == betti
        assert all(ok for _, ok in verify_resolution_report(ordered))
        assert verify_chain_complex(ordered)
        assert _preserved_betti(ordered) == counts
        report = analyze(ordered)
        assert report.betti == counts == betti
        assert report.ara.lower <= report.ara.upper


@pytest.mark.parametrize("order", ["identity", "reversed"])
def test_preserved_counts_match_the_lcm_exps_route(order):
    for name, ideal in sweep_ideals():
        ordered = identity_order(ideal)
        if order == "reversed":
            ordered = OrderedIdeal(ideal, ordered.order[::-1])
        assert _preserved_betti(ordered) == reference.preserved_betti(ordered)


def test_oracle_requests_rank_and_write_each_lattice_point_once(pool,
                                                                monkeypatch):
    # the benchmark's oracle requests on each seed-1 o10-o12 ideal: the
    # table over Q ranks every strand once, over Z; the table over
    # GF(32003), analyze's projective dimension and verify's report read
    # that homology and rank nothing; and the Betti and verify rows write
    # each lattice point's text at most once over the four requests (the
    # ideal's own generators, written by every request, are not rows)
    out, inputs = pool
    names = sorted(n for n in inputs if n.startswith("o1"))
    assert len(names) == 10
    ranks, texts = [], Counter()

    def counted(rank):
        def call(*args):
            ranks.append(rank.__name__)
            return rank(*args)
        return call

    def counted_text(variables, exps):
        texts[tuple(exps)] += 1
        return monomial_text(variables, exps)

    for rank in ("certified_rank", "exact_rank", "rank_mod_p"):
        monkeypatch.setattr(oracle, rank, counted(getattr(oracle, rank)))
    for module in (oracle, cli):
        monkeypatch.setattr(module, "monomial_text", counted_text)
    requests = (["oracle-betti"], ["oracle-betti", "--field", "p:32003"],
                ["analyze"], ["verify"])
    for name in names:
        tables_for.cache_clear()
        order_analysis.cache_clear()
        ranks.clear()
        texts.clear()
        after = []
        for words in requests:
            with redirect_stdout(io.StringIO()):
                code = cli.main([words[0], str(out / name), *words[1:],
                                 "--format", "json"])
            assert code == 0, (name, words)
            after.append(len(ranks))
        assert after[0] > 0 and after == after[:1] * 4, (name, after)
        assert set(ranks) == {"certified_rank"}, name
        ideal = read_ideal(out / name)
        points = set(oracle._lcm_classes(ideal).exponents)
        assert set(texts) <= points | {(0,) * len(ideal.context)}, name
        assert max(texts.values()) == 1, name
