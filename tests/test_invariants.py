"""Per-order invariants, the vectorized scanner, and order searches.

The scanner in ``_scan_words`` computes obstruction, length, and
minimality for whole batches of orders with numpy.  Here its arrays are
checked, order by order, against the per-order functions, which read
the same kernel one word at a time; ``tests/test_scan_kernel.py`` and
``tests/test_preserved_kernel.py`` compare both with the plain-Python
reference routes.
"""

import dataclasses
from itertools import islice

import pytest

from lyubeznik import (
    AraBounds,
    BoundExceededError,
    NotMinimalError,
    OrderedIdeal,
    all_orders,
    analyze,
    ara_bounds,
    betti_from_preserved,
    edge_ideal,
    equivalence_audit,
    height,
    identity_order,
    is_almost_lyubeznik,
    is_lyubeznik,
    is_minimal_resolution,
    is_totally_lyubeznik,
    l_length,
    load_graph,
    load_ideal,
    min_l_length,
    obstruction,
    parse_ideal,
    preserved_size,
    search_scan,
    taylor_betti,
    total_obstruction,
)
from lyubeznik.invariants import (DEFAULT_CHUNK, _BlockScanner, _scan_words,
                                  _scanner_for, _word_blocks)
from lyubeznik.orders import orders_for_search

from reference_routes import exhaustive_scan

KOSZUL2 = parse_ideal("vars x y\ngen x\ngen y")

SCAN_NAMES = ["chain_three_squares", "square_edges", "chain_five_mixed",
              "mixed_powers_xyz", "five_gen_squarefree"]


def test_scanner_matches_per_order_functions():
    # The one test that licenses trusting the batch engine anywhere else:
    # every order of every small ideal, all three outputs.
    for name in SCAN_NAMES:
        ideal = load_ideal(name)
        words = [o.order for o in all_orders(ideal)]
        obs, length, minimal = _scan_words(ideal, words)
        for k, word in enumerate(words):
            ordered = OrderedIdeal(ideal, word)
            assert obs[k] == obstruction(ordered), (name, word)
            assert length[k] == l_length(ordered), (name, word)
            assert length[k] == preserved_size(ordered), (name, word)
            assert bool(minimal[k]) == is_minimal_resolution(ordered), (name, word)


def test_workers_build_one_scanner_per_ideal(monkeypatch):
    built = []
    init = _BlockScanner.__init__

    def counting_init(self, ideal):
        built.append(ideal)
        init(self, ideal)

    monkeypatch.setattr(_BlockScanner, "__init__", counting_init)
    _scanner_for.cache_clear()
    ideal = load_ideal("mixed_powers_xyz")
    words, _ = orders_for_search(ideal, "exhaustive")
    first, second = islice(_word_blocks(words, ideal.mu, 64), 2)
    _scan_words(ideal, first)
    _scan_words(ideal, second)
    # the --jobs workers call this once per block
    assert built == [ideal]


def test_search_aggregates():
    expected = {
        "mixed_powers_xyz": (0, 3, 8, 120, (1, 3, 4, 2, 5)),
        "five_gen_squarefree": (3, 3, 0, 120, (1, 2, 3, 4, 5)),
        "square_edges": (3, 3, 0, 24, (1, 2, 3, 4)),
        "chain_three_squares": (0, 2, 2, 6, (1, 2, 3)),
        "chain_four_squares": (3, 3, 0, 24, (1, 2, 3, 4)),
        "chain_five_mixed": (0, 3, 24, 120, (1, 2, 3, 4, 5)),
        "triangle_edges": (0, 2, 6, 6, None),
    }
    for name, (tobsl, min_l, count, scanned, nonmin) in expected.items():
        scan = search_scan(load_ideal(name))
        assert scan.exact and not scan.stopped_early
        assert (scan.tobsl, scan.min_l, scan.minimal_count,
                scan.scanned, scan.nonminimal_witness) == (
                    tobsl, min_l, count, scanned, nonmin), name


def test_witnesses_are_lex_least():
    scan = search_scan(load_ideal("chain_three_squares"))
    assert scan.tobsl_witness == (3, 1, 2)
    assert obstruction(OrderedIdeal(load_ideal("chain_three_squares"),
                                    (3, 1, 2))) == 0
    scan = search_scan(load_ideal("chain_five_mixed"))
    assert scan.tobsl_witness == (5, 1, 2, 3, 4)


def test_parallel_scan_is_deterministic():
    ideal = load_ideal("mixed_powers_xyz")
    serial = exhaustive_scan(ideal)
    assert exhaustive_scan(ideal, jobs=2, chunk_size=7) == serial
    assert exhaustive_scan(ideal, jobs=3, chunk_size=1) == serial
    assert search_scan(ideal) == serial


def test_stop_policies():
    # the block scan, one order per block, stops where the policy is met
    ideal = load_ideal("mixed_powers_xyz")
    scan = exhaustive_scan(ideal, stop_when="zero-obstruction", chunk_size=1)
    assert scan.stopped_early and scan.scanned == 1
    assert scan.tobsl == 0 and scan.tobsl_witness == (1, 2, 3, 4, 5)

    # Policies that never trigger leave the scan exhaustive.
    scan = exhaustive_scan(load_ideal("five_gen_squarefree"),
                           stop_when="zero-obstruction")
    assert not scan.stopped_early and scan.scanned == 120

    # The exhaustive search answers for every order whatever the policy.
    for stop_when in STOPS:
        scan = search_scan(ideal, stop_when=stop_when, chunk_size=1)
        assert scan == exhaustive_scan(ideal), stop_when
        assert scan.exact and not scan.stopped_early and scan.scanned == 120

    with pytest.raises(ValueError, match="stop policy"):
        search_scan(ideal, stop_when="sometimes")


def test_search_respects_generator_bound():
    ideal = load_ideal("mixed_powers_xyz")
    with pytest.raises(BoundExceededError):
        search_scan(ideal, max_exhaustive=4)
    assert search_scan(ideal, max_exhaustive=ideal.mu).scanned == 120


def test_courts_first_search_respects_the_same_bound():
    # every edge of the 5-cycle is a possible court, so the courts-first
    # stream is all 5! = 120 orders
    ideal = load_ideal("pentagon_edges")
    with pytest.raises(BoundExceededError, match="--max-exhaustive"):
        search_scan(ideal, "courts-first", max_exhaustive=4)
    scan = search_scan(ideal, "courts-first", max_exhaustive=ideal.mu)
    assert scan.exact and scan.scanned == 120
    # a short courts-first stream passes a bound that exhaustive fails:
    # mixed_powers_xyz has 2 possible courts, so 2! * 3! = 12 <= 4! orders
    scan = search_scan(load_ideal("mixed_powers_xyz"), "courts-first",
                       max_exhaustive=4)
    assert not scan.exact and scan.scanned == 12


def test_convenience_searches():
    ideal = load_ideal("mixed_powers_xyz")
    tobsl, witness = total_obstruction(ideal)
    assert tobsl == 0 and obstruction(witness) == 0
    best, at = min_l_length(ideal)
    assert best == 3 and l_length(at) == 3


def test_betti_from_preserved_requires_minimality():
    ordered = identity_order(load_ideal("five_gen_squarefree"))
    with pytest.raises(NotMinimalError, match="taylor_betti"):
        betti_from_preserved(ordered)


def test_betti_from_preserved_matches_oracle():
    ideal = load_ideal("chain_three_squares")
    ordered = OrderedIdeal(ideal, (3, 1, 2))
    assert betti_from_preserved(ordered) == taylor_betti(ideal)


def test_equivalence_audit_consistent_everywhere():
    for name in ["chain_three_squares", "square_edges", "triangle_edges"]:
        ideal = load_ideal(name)
        for ordered in all_orders(ideal):
            audit = equivalence_audit(ordered)
            assert audit.consistent, (name, ordered.order)
            assert audit.minimal == is_minimal_resolution(ordered)


def test_audit_fields_track_minimality():
    ideal = load_ideal("chain_three_squares")
    good = equivalence_audit(OrderedIdeal(ideal, (3, 1, 2)))
    assert good.minimal and good.eminimal_witness_condition
    bad = equivalence_audit(identity_order(ideal))
    assert not bad.minimal and not bad.cover_witness_condition


def test_lyubeznik_verdicts():
    v = is_lyubeznik(load_ideal("chain_three_squares"))
    assert (v.verdict, v.witness.order, v.exact) == (True, (3, 1, 2), True)
    v = is_lyubeznik(load_ideal("chain_four_squares"))
    assert (v.verdict, v.witness, v.exact, v.scanned) == (False, None, True, 24)
    v = is_lyubeznik(load_ideal("chain_five_mixed"))
    assert (v.verdict, v.witness.order) == (True, (5, 1, 2, 3, 4))
    verdict, witness = is_lyubeznik(load_ideal("triangle_edges"))
    assert verdict and is_minimal_resolution(witness)


def test_heuristic_cannot_certify_failure():
    # Courts-first on an ideal whose courts are a proper subset scans an
    # incomplete stream; finding no minimal order there proves nothing.
    v = is_lyubeznik(load_ideal("five_gen_squarefree"), "courts-first")
    assert v.verdict is None and not v.exact and v.scanned == 24


def test_totally_and_almost():
    assert is_totally_lyubeznik(load_ideal("triangle_edges"))
    assert not is_totally_lyubeznik(load_ideal("mixed_powers_xyz"))
    assert is_totally_lyubeznik(KOSZUL2)
    assert is_almost_lyubeznik(load_ideal("mixed_powers_xyz"))
    assert is_almost_lyubeznik(load_ideal("five_gen_squarefree"))
    assert is_almost_lyubeznik(load_ideal("chain_four_squares"))


def courts_first_counterexample(ideal):
    """The first courts-first order whose resolution is not minimal."""
    return search_scan(ideal, "courts-first").nonminimal_witness


def test_courts_first_claim_fails_in_the_corpus():
    ideal = load_ideal("chain_five_mixed")
    counterexample = courts_first_counterexample(ideal)
    assert counterexample == (1, 2, 3, 4, 5)
    assert obstruction(OrderedIdeal(ideal, counterexample)) > 0
    # Even with only two possible courts the claim can fail.
    counterexample = courts_first_counterexample(load_ideal("mixed_powers_xyz"))
    assert counterexample == (2, 1, 3, 4, 5)


def test_heights():
    assert height(load_ideal("mixed_powers_xyz")) == 3
    assert height(KOSZUL2) == 2
    assert height(load_ideal("triangle_edges")) == 2
    assert height(load_ideal("square_edges")) == 2
    assert height(edge_ideal(load_graph("star3"))) == 1
    assert height(load_ideal("chain_three_squares")) == 2


def test_ara_bounds():
    assert tuple(ara_bounds(KOSZUL2)) == (2, 2)
    assert ara_bounds(KOSZUL2).equality
    assert ara_bounds(load_ideal("mixed_powers_xyz")) == AraBounds(3, 3, True)
    assert ara_bounds(load_ideal("five_gen_squarefree")) == AraBounds(3, 3, True)
    # Non-squarefree: the lower bound comes from the height instead.
    assert ara_bounds(load_ideal("chain_three_squares")) == AraBounds(2, 2, True)


def test_ara_never_exceeds_generator_count():
    for name in SCAN_NAMES:
        ideal = load_ideal(name)
        lower, upper = ara_bounds(ideal)
        assert lower <= upper <= ideal.mu


def test_analyze_without_search():
    report = analyze(identity_order(load_ideal("five_gen_squarefree")))
    assert not report.minimal and report.obstruction == 3
    assert report.l_length == report.ps == 3
    assert report.betti is None
    assert report.lyubeznik is None
    assert report.almost_lyubeznik is None
    assert report.ara.upper == 3  # this order's length, a valid upper bound


def test_analyze_with_search():
    report = analyze(identity_order(load_ideal("mixed_powers_xyz")),
                     search_mode="exhaustive")
    assert report.minimal and report.obstruction == 0
    assert report.l_length == report.ps == 3
    assert report.betti is not None
    assert report.betti == taylor_betti(load_ideal("mixed_powers_xyz"))
    assert report.height == 3
    assert tuple(report.ara) == (3, 3)
    assert report.lyubeznik is True
    assert report.almost_lyubeznik is True
    assert report.totally_lyubeznik is False


def test_analyze_with_heuristic_search_leaves_unknowns():
    report = analyze(identity_order(load_ideal("five_gen_squarefree")),
                     search_mode="courts-first")
    assert report.lyubeznik is None
    assert report.almost_lyubeznik is None
    assert report.totally_lyubeznik is None


def test_report_is_frozen():
    report = analyze(identity_order(KOSZUL2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.minimal = False


@pytest.mark.parametrize("name", ["five_gen_squarefree", "mixed_powers_xyz"])
@pytest.mark.parametrize("mode", ["exhaustive", "courts-first"])
def test_analyze_scans_once_and_matches_ara_bounds(monkeypatch, name, mode):
    ideal = load_ideal(name)
    expected = ara_bounds(ideal, mode)
    calls = {"search_scan": 0, "taylor_betti": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    import lyubeznik.invariants as inv
    monkeypatch.setattr(inv, "search_scan", counted(inv.search_scan))
    monkeypatch.setattr(inv, "taylor_betti", counted(inv.taylor_betti))
    report = analyze(identity_order(ideal), search_mode=mode)
    assert calls["search_scan"] == 1
    assert calls["taylor_betti"] <= 1
    assert report.ara == expected


def test_search_rejects_non_positive_jobs_and_chunks():
    ideal = load_ideal("chain_three_squares")
    for kwargs in ({"jobs": 0}, {"jobs": -3}, {"chunk_size": 0}):
        with pytest.raises(ValueError, match="at least 1"):
            search_scan(ideal, **kwargs)


def test_analyze_builds_the_complex_once(monkeypatch, capsys):
    # the report reads the order's tables only: no frozenset complex
    import sys
    from lyubeznik.cli import main
    from lyubeznik.corpus import _data_dir
    calls = []
    for module in list(sys.modules.values()):
        if not (module.__name__ or "").startswith("lyubeznik"):
            continue
        original = vars(module).get("lyubeznik_complex")
        if original is None:
            continue

        def counted(ordered, _original=original):
            calls.append(ordered.order)
            return _original(ordered)

        monkeypatch.setattr(module, "lyubeznik_complex", counted)
    path = _data_dir() / "mixed_powers_xyz.ideal"
    assert main(["analyze", str(path)]) == 0
    assert "minimal resolution: yes" in capsys.readouterr().out
    assert calls == []


# -- verdicts on SearchResult against the callers' former inline formulas ----

STOPS = [None, "zero-obstruction"]


def old_lyubeznik(scan):
    # the search command, is_lyubeznik and analyze
    return True if scan.tobsl == 0 else (False if scan.exact else None)


def old_totally_from_count(scan):
    # analyze, on an unstopped scan
    return scan.minimal_count == scan.scanned if scan.exact else None


def old_totally_from_witness(scan):
    # is_totally_lyubeznik and the graph checks, on exhaustive streams
    return scan.nonminimal_witness is None


def old_almost(scan, projdim):
    # analyze and is_almost_lyubeznik, on unstopped scans
    return scan.min_l == projdim if scan.exact else None


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", SCAN_NAMES)
def test_search_verdicts_match_the_former_formulas(name, jobs):
    ideal = load_ideal(name)
    truth = search_scan(ideal)
    assert truth.exact and not truth.stopped_early
    projdim = taylor_betti(ideal).projective_dimension
    for mode in ("exhaustive", "courts-first"):
        for stop_when in STOPS:
            for chunk in (1, DEFAULT_CHUNK):
                scan = search_scan(ideal, mode, jobs=jobs, chunk_size=chunk,
                                   stop_when=stop_when)
                where = (mode, stop_when, chunk)
                # the stop never cuts a scan short while tobsl > 0
                assert scan.lyubeznik == old_lyubeznik(scan), where
                if stop_when is None:
                    assert (scan.totally_lyubeznik
                            == old_totally_from_count(scan)), where
                    assert (scan.almost_lyubeznik(projdim)
                            == old_almost(scan, projdim)), where
                if mode == "exhaustive":
                    assert (scan.totally_lyubeznik
                            == old_totally_from_witness(scan)), where
                # whatever a scan settles agrees with the full scan
                for verdict in ("lyubeznik", "totally_lyubeznik"):
                    value = getattr(scan, verdict)
                    assert value in (None, getattr(truth, verdict)), \
                        (where, verdict)
                almost = scan.almost_lyubeznik(projdim)
                assert almost in (None, truth.almost_lyubeznik(projdim)), where


def test_inexact_stream_with_a_non_minimal_order_leaves_totally_open():
    # mixed_powers_xyz has 2 possible courts: 12 of its 120 orders are
    # courts first, and (2,1,3,4,5) among them is not minimal
    scan = search_scan(load_ideal("mixed_powers_xyz"), "courts-first")
    assert not scan.exact and scan.scanned == 12
    assert scan.nonminimal_witness == (2, 1, 3, 4, 5)
    assert scan.totally_lyubeznik is None
    assert scan.totally_lyubeznik == old_totally_from_count(scan)
    assert scan.lyubeznik is True and scan.almost_lyubeznik(3) is None
