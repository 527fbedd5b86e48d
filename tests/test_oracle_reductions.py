"""The oracle's reductions against their checking routes.

* ``taylor_betti`` ranks only the critical sets of an acyclic matching
  on each Taylor strand; its one checking route,
  ``reference_routes.full_strand_betti``, ranks whole strands.  Both
  must give the same Betti table over Q, GF(2) and GF(32003), on seeded
  squarefree ideals at mu 10-12, on seeded six-variable ideals at mu 14,
  above the oracle's default bound, and on hypothesis ideals
  (``tests/test_oracle.py`` compares them on the corpus, RP^2, the pool
  and more hypothesis ideals).
  Each critical family lies inside its strand and keeps the strand's
  Euler characteristic.
* ``verify_resolution_report`` reads a vertex set's verdict off one
  certificate: the faces inside it form a cone over the set's
  first-ranked member.  On every order's faces the certificate holds;
  the hand-built families that are not such cones read false, whatever
  their homology; and on random simplicial complexes a cone must be
  acyclic, its homology ranked over Q.
* Both certificates, the cones (``oracle._cone_verdicts``) and d^2 = 0
  (``oracle._chain_verdict``, closure under subsets), are read off the
  lone bits of the faces (``subsets.lone_bits``).  Their one checking
  route each is a pass over all 2^mu masks
  (``reference_routes.cones_by_lattice`` and
  ``closed_by_one_smaller``).  They must agree through the order's kept
  table as ``verify`` reads them, and through ``lone_bits`` on the
  order's faces and on families that are not an order's (a set put in,
  a face or a one-smaller subset taken out, a face {g} taken out): on
  every order of the sweep corpus, on the whole seed-1 pool under its
  manifest orders, on hypothesis ideals, on hypothesis families (any
  family, and down-closed ones less an inner face), and on random
  families at mu 12 and 14.
* ``verify``'s rows are ordered by (degree, exponents) with one
  ``np.lexsort`` of the lattice points' exponent matrix
  (``oracle._by_degree``, the degree taken as two exact int64 keys);
  rows and verdicts must equal Python's sort of the tuples
  (``reference_routes.verify_rows_by_sort``) on the corpus (also with
  verdicts that differ from row to row), on the seed-1 pool under its
  manifest orders, and on hypothesis ideals, some with exponents whose
  sums overflow int64.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lyubeznik.oracle as oracle
from lyubeznik import (all_ideals, identity_order, parse_order, read_ideal,
                       sweep_ideals, taylor_betti, verify_chain_complex,
                       verify_resolution_report)
from lyubeznik.complexes import order_analysis
from lyubeznik.monomials import EXPONENT_LIMIT
from lyubeznik.oracle import (_by_degree, _chain_verdict, _cone_verdicts,
                              _critical_strands, _lcm_classes, _rank_function,
                              _strand_homology, _verify_rows)
from lyubeznik.orders import OrderedIdeal
from lyubeznik.subsets import lone_bits, tables_for

from conftest import exponent_ideal, exponent_rows, small_ideal
from reference_routes import (all_orders, closed_by_one_smaller,
                              cones_by_lattice, full_strand_betti,
                              full_strands, verify_rows_by_sort)
from test_preserved_kernel import seeded_ideal

FIELDS = (None, 2, 32003)


def seeded_squarefree(mu, seed, nvars=10):
    """mu squarefree generators of degree 2-3, none dividing another."""
    rng = random.Random(seed)
    supports = []
    while len(supports) < mu:
        s = frozenset(rng.sample(range(nvars), rng.choice((2, 3))))
        if not any(s <= t or t <= s for t in supports):
            supports.append(s)
    return exponent_ideal([tuple(int(v in s) for v in range(nvars))
                           for s in supports])


def euler(by_size):
    return sum((-1) ** t * len(masks) for t, masks in by_size.items())


def check_critical_families(ideal):
    full = full_strands(ideal)
    critical = _critical_strands(ideal).critical
    for exps, by_size in critical.items():
        strand = full[exps]
        assert sum(map(len, by_size.values())) <= \
            sum(map(len, strand.values())), exps
        for t, masks in by_size.items():
            assert set(masks) <= set(strand[t]), (exps, t)
        assert euler(by_size) == euler(strand), exps
    for exps in full.keys() - critical.keys():
        assert euler(full[exps]) == 0, exps


@pytest.mark.parametrize("mu", [10, 11, 12])
@pytest.mark.parametrize("seed", [0, 1])
def test_reduced_strands_match_full_strands(mu, seed):
    ideal = seeded_squarefree(mu, seed)
    for prime in FIELDS:
        assert taylor_betti(ideal, prime=prime) == \
            full_strand_betti(ideal, prime), prime
    check_critical_families(ideal)


@pytest.mark.parametrize("seed", [0, 1])
def test_reduced_strands_match_full_strands_above_the_bound(seed):
    ideal = seeded_ideal(14, seed)
    for prime in FIELDS:
        assert taylor_betti(ideal, prime=prime) == \
            full_strand_betti(ideal, prime), prime
    check_critical_families(ideal)


@settings(max_examples=30)
@given(st.integers(2, 4).flatmap(exponent_rows))
def test_reduced_strands_match_full_strands_on_random_ideals(rows):
    ideal = small_ideal(rows, max_mu=7)
    for prime in FIELDS:
        assert taylor_betti(ideal, prime=prime) == \
            full_strand_betti(ideal, prime), prime
    check_critical_families(ideal)


def taylor_euler(ideal):
    """{a: sum over lcm S = a of (-1)^|S|}, nonzero entries only."""
    tables = tables_for(ideal)
    chi = {}
    for mask in range(1, tables.size):
        exps = tables.lcm_exps[mask]
        chi[exps] = chi.get(exps, 0) + (-1) ** mask.bit_count()
    return {a: c for a, c in chi.items() if c}


def betti_euler(table):
    """{a: sum over i > 0 of (-1)^i beta_{i,a}}, nonzero entries only."""
    chi = {}
    for (i, exps), b in table.multigraded_raw.items():
        if i:
            chi[exps] = chi.get(exps, 0) + (-1) ** i * b
    return {a: c for a, c in chi.items() if c}


def test_betti_table_keeps_the_taylor_euler_characteristic_at_mu_14():
    ideal = seeded_ideal(14, 2)
    table = taylor_betti(ideal)
    assert betti_euler(table) == taylor_euler(ideal)


def test_every_sweep_orders_certificate_holds():
    for name, ideal in sweep_ideals():
        for ordered in all_orders(ideal):
            report = verify_resolution_report(ordered)
            assert report and all(ok for _, ok in report), \
                (name, ordered.order)


def masks(*faces):
    return [sum(1 << (i - 1) for i in face) for face in faces]


def marked(face_masks, n):
    """The faces as the oracle takes them: a bool array over the 2^n
    masks."""
    faces = np.zeros(1 << n, bool)
    faces[face_masks] = True
    return faces


def is_acyclic(face_masks, vset):
    """Whether the faces inside vset have no reduced homology over Q."""
    by_size = {}
    for m in sorted(face_masks):
        if m & vset == m:
            by_size.setdefault(m.bit_count(), []).append(m)
    return not _strand_homology(by_size, _rank_function(None))


HAND_BUILT = [
    # the hollow triangle: {2,3} has no partner {1,2,3}, and H~_1 = 1
    (masks((), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)), 0b111, 1, False),
    # a vertex beside an edge: {3} has no partner {1,3}, and H~_0 = 1
    (masks((), (1,), (2,), (3,), (1, 2)), 0b111, 1, False),
    # the path 1-2-3 over its end: {3} has no partner {1,3}, yet the
    # path is contractible
    (masks((), (1,), (2,), (3,), (1, 2), (2, 3)), 0b111, 1, True),
]


@pytest.mark.parametrize("family,vset,apex,acyclic", HAND_BUILT)
def test_hand_built_non_cones_read_false(family, vset, apex, acyclic):
    # the certificate is sufficient, not necessary: the contractible path
    # reads false as well, and no order's faces are such a family
    vertex_sets, apexes = np.array([vset]), np.array([apex])
    faces = marked(family, 3)
    assert not _cone_verdicts(faces, lone_bits(faces), vertex_sets,
                              apexes)[0]
    assert is_acyclic(family, vset) == acyclic


def test_a_cone_reads_true():
    # the path 1-2-3 is a cone over its middle vertex
    path = masks((), (1,), (2,), (3,), (1, 2), (2, 3))
    faces = marked(path, 3)
    assert _cone_verdicts(faces, lone_bits(faces), np.array([0b111]),
                          np.array([0b010])).tolist() == [True]


@st.composite
def complexes_with_vertex_sets(draw):
    """A simplicial complex on at most six vertices, as face masks, and
    a vertex set with one of its members as the apex."""
    n = draw(st.integers(1, 6))
    tops = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=8))
    family = {0}
    for top in tops:
        sub = top
        while sub:
            family.add(sub)
            sub = (sub - 1) & top
    vset = draw(st.integers(1, (1 << n) - 1))
    apex = 1 << draw(st.sampled_from(
        [b for b in range(n) if vset >> b & 1]))
    return n, sorted(family), vset, apex


@settings(max_examples=300)
@given(complexes_with_vertex_sets())
def test_a_cone_is_acyclic_on_random_complexes(case):
    n, family, vset, apex = case
    vertex_sets, apexes = np.array([vset]), np.array([apex])
    faces = marked(family, n)
    cone = _cone_verdicts(faces, lone_bits(faces), vertex_sets, apexes)[0]
    # the up-closure route against the definition, face by face
    inside = [m for m in family if m & vset == m]
    assert cone == all(m ^ apex in family for m in inside)
    if cone:
        assert is_acyclic(family, vset)


# -- the lone bits of the faces against the lattice passes --------------------


def check_lattice_routes(ordered, rng):
    """Both certificates read off the lone bits of the faces equal the
    passes over all 2^mu masks (``reference_routes.closed_by_one_smaller``
    and ``cones_by_lattice``): through the order's kept table, as
    ``verify`` reads them, and through ``lone_bits`` on the order's
    faces, where both hold, and on three families that are not an
    order's: one set put in and then one face's one-smaller subset taken
    out, which is not closed; one face taken out and one set put in; and
    a face {g} taken out, which leaves the empty face without its partner
    {g}, so that every vertex set with apex g reads false.  Returns how
    many cone verdicts those three read false."""
    classes = _lcm_classes(ordered.ideal)
    analysis = order_analysis(ordered)
    vertex_sets = classes.vertex_sets
    apexes = 1 << (np.array(ordered.order)[
        analysis.least[vertex_sets]] - 1)
    faces = analysis.preserved
    assert verify_chain_complex(ordered) is True
    assert closed_by_one_smaller(faces)
    lattice = cones_by_lattice(faces, vertex_sets, apexes)
    assert lattice.all()
    assert dict(_verify_rows(ordered)[0]) == dict(
        zip(classes.exponents, lattice.tolist()))
    broken = faces.copy()
    broken[rng.randrange(len(faces))] = True
    top = rng.choice(np.flatnonzero(faces).tolist())
    broken[top & (top - 1)] = False
    assert not _chain_verdict(broken, lone_bits(broken))
    swapped = faces.copy()
    swapped[rng.choice(np.flatnonzero(faces).tolist())] = False
    swapped[rng.randrange(len(faces))] = True
    no_apex = faces.copy()
    no_apex[rng.choice(apexes.tolist())] = False
    false = 0
    for family in (faces, broken, swapped, no_apex):
        lone = lone_bits(family)
        assert _chain_verdict(family, lone) == closed_by_one_smaller(family)
        cones = _cone_verdicts(family, lone, vertex_sets, apexes)
        assert (cones == cones_by_lattice(family, vertex_sets,
                                          apexes)).all()
        false += int((~cones).sum())
    return false


def test_certificates_match_the_lattice_passes_on_the_corpus():
    # every order of the sweep ideals, and the identity, three shuffles
    # and the reverse of the others
    rng = random.Random(47)
    sweep = {name for name, _ in sweep_ideals()}
    for name, ideal in all_ideals():
        if name in sweep:
            orders = list(all_orders(ideal))
        else:
            words = [list(ideal.indices()) for _ in range(4)]
            for w in words[1:]:
                rng.shuffle(w)
            words.append(words[0][::-1])
            orders = [OrderedIdeal(ideal, tuple(w)) for w in words]
        assert sum(check_lattice_routes(o, rng) for o in orders), name


def test_certificates_match_the_lattice_passes_on_the_pool(pool):
    # every ideal file of the seed-1 pool, mu 7-16, under the identity
    # and the manifest's --order words
    out, inputs = pool
    rng = random.Random(4701)
    names = sorted(n for n in inputs if n.endswith(".ideal"))
    assert len(names) > 100
    mus = set()
    for name in names:
        ideal = read_ideal(out / name)
        mus.add(ideal.mu)
        orders = [identity_order(ideal)] + [
            parse_order(w, ideal) for w in inputs[name]["orders"]]
        assert sum(check_lattice_routes(o, rng) for o in orders), name
    assert max(mus) == 16


@settings(max_examples=30)
@given(st.integers(2, 4).flatmap(exponent_rows), st.randoms())
def test_certificates_match_the_lattice_passes_on_random_ideals(rows, rng):
    # the identity, its reverse and a shuffle, or every order at mu <= 4:
    # the cone's apex depends on the order
    ideal = small_ideal(rows, max_mu=7)
    word = list(ideal.indices())
    rng.shuffle(word)
    orders = [identity_order(ideal),
              OrderedIdeal(ideal, tuple(reversed(ideal.indices()))),
              OrderedIdeal(ideal, tuple(word))]
    if ideal.mu <= 4:
        orders = list(all_orders(ideal))
    for ordered in orders:
        check_lattice_routes(ordered, rng)


def check_row_order(ordered):
    """``verify``'s rows, ordered by one lexsort, equal the sorted
    route's, and its verdict array holds the rows' verdicts."""
    rows, verdicts = _verify_rows(ordered)
    assert rows == verify_rows_by_sort(ordered)
    assert verdicts.dtype == bool
    assert verdicts.tolist() == [ok for _, ok in rows]


def patterned_verdicts(preserved, lone, vertex_sets, apexes):
    """Cone verdicts that vary from one lattice point to the next."""
    return vertex_sets % 3 != 1


def test_verify_rows_match_the_sorted_route_on_the_corpus(monkeypatch):
    # under the identity, its reverse and the least minimal order; every
    # order's verdicts are true, so they are then replaced by a pattern
    # over the vertex sets, which must travel with the rows
    cases = []
    for name, ideal in all_ideals():
        ordered = identity_order(ideal)
        cases += [ordered, OrderedIdeal(ideal, ordered.order[::-1])]
    for ordered in cases:
        check_row_order(ordered)
    monkeypatch.setattr(oracle, "_cone_verdicts", patterned_verdicts)
    mixed = 0
    for ordered in cases:
        check_row_order(ordered)
        mixed += len(set(_verify_rows(ordered)[1].tolist())) == 2
    assert mixed > len(cases) // 2


def test_verify_rows_match_the_sorted_route_on_the_pool(pool):
    # every ideal file of the seed-1 pool, mu 7-16, under the identity
    # and the manifest's --order words
    out, inputs = pool
    names = sorted(n for n in inputs if n.endswith(".ideal"))
    assert len(names) > 100
    for name in names:
        ideal = read_ideal(out / name)
        for ordered in [identity_order(ideal)] + [
                parse_order(w, ideal) for w in inputs[name]["orders"]]:
            check_row_order(ordered)


@settings(max_examples=60)
@given(st.integers(2, 5).flatmap(exponent_rows), st.randoms())
def test_verify_rows_match_the_sorted_route_on_random_ideals(rows, rng):
    ideal = small_ideal(rows, max_mu=8)
    word = list(ideal.indices())
    rng.shuffle(word)
    check_row_order(OrderedIdeal(ideal, tuple(word)))


# exponents whose sums overflow int64: the degree is two exact keys
LARGE = [0, 1, 2, 2**31 - 1, 2**31, 2**32 + 1, 2**62, EXPONENT_LIMIT - 1,
         EXPONENT_LIMIT]


@settings(max_examples=200)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.tuples(*[st.sampled_from(LARGE)] * n), min_size=1, max_size=20)))
def test_degree_order_matches_the_python_sort_past_int64(columns):
    matrix = np.array(columns, np.int64).T
    order = _by_degree(matrix).tolist()
    assert [columns[k] for k in order] == sorted(
        columns, key=lambda c: (sum(c), c))


@settings(max_examples=40)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.sampled_from(LARGE)] * n).filter(any), min_size=2,
    max_size=8, unique=True)))
def test_verify_rows_match_the_sorted_route_on_large_exponents(rows):
    check_row_order(identity_order(small_ideal(rows, max_mu=8)))


@settings(max_examples=300)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=60))))
def test_certificates_match_the_lattice_passes_on_random_families(case):
    # any family, closed under subsets or not, at every nonempty vertex
    # set with each of its members as the apex
    n, family = case
    pairs = [(v, 1 << b) for v in range(1, 1 << n)
             for b in range(n) if v >> b & 1]
    vertex_sets = np.array([v for v, _ in pairs], np.int64)
    apexes = np.array([g for _, g in pairs], np.int64)
    faces = marked(sorted(family), n)
    lone = lone_bits(faces)
    assert _chain_verdict(faces, lone) == closed_by_one_smaller(faces)
    cones = _cone_verdicts(faces, lone, vertex_sets, apexes)
    assert (cones == cones_by_lattice(faces, vertex_sets, apexes)).all()
    # and both read the definition, face by face
    assert cones.tolist() == [all(m ^ g in family for m in family
                                  if m & v == m) for v, g in pairs]


def down_closure(masks):
    family = set()
    for mask in masks:
        sub = mask
        while True:
            family.add(sub)
            if not sub:
                break
            sub = (sub - 1) & mask
    return family


@settings(max_examples=300)
@given(st.integers(1, 6).flatmap(lambda mu: st.tuples(
    st.just(mu), st.sets(st.integers(0, (1 << mu) - 1), max_size=24))),
    st.randoms())
def test_certificates_match_the_lattice_passes_on_closed_families(case, rng):
    # the family as drawn, closed or not; its down-closure, which is
    # closed; and that less a face below another face, which is not
    mu, tops = case
    faces = marked(sorted(tops), mu)
    closed = all(m ^ 1 << b in tops for m in tops for b in range(mu)
                 if m >> b & 1)
    assert _chain_verdict(faces, lone_bits(faces)) == closed
    assert closed_by_one_smaller(faces) == closed
    family = down_closure(tops)
    faces = marked(sorted(family), mu)
    assert _chain_verdict(faces, lone_bits(faces))
    assert closed_by_one_smaller(faces)
    inner = sorted(m for m in family
                   if any(m != f and m & f == m for f in family))
    if inner:
        faces[rng.choice(inner)] = False
        assert not _chain_verdict(faces, lone_bits(faces))
        assert not closed_by_one_smaller(faces)


@pytest.mark.parametrize("mu", [12, 14])
def test_cones_match_the_lattice_passes_on_random_families(mu):
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
                          cones_by_lattice(family, vertex_sets, apexes))
    assert 0 < verdicts.sum() < len(verdicts)
