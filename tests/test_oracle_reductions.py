"""The oracle's reductions against the unreduced routes.

``taylor_betti`` ranks only the critical sets of an acyclic matching on
each Taylor strand; ``reference_routes.full_strand_betti`` ranks whole
strands.  Both must give the same Betti table over Q, GF(2) and
GF(32003), on seeded squarefree ideals at mu 10-12 and on seeded
six-variable ideals at mu 14, above the oracle's default bound.  Each
critical family lies inside its strand and keeps the strand's Euler
characteristic.

``verify_resolution_report`` reads a vertex set's verdict off one
certificate: the faces inside it form a cone over the set's
first-ranked member.  On every order's faces the certificate holds; the
hand-built families that are not such cones read false, whatever their
homology; and on random simplicial complexes a cone must be acyclic by
the dense route.  The verdicts come from the lone bits of the faces
(``subsets.lone_bits``), scattered into one array and up-closed
(``oracle._cone_verdicts``); they must equal those of one up-closure
per apex (``reference_routes.cones_per_apex``) on
every corpus ideal under its orders, on the seed-1 pool up to mu 14,
and on random face families, closed or not, at every vertex set and
apex.  Both certificates, the cones and d^2 = 0 (closure under
subsets), must also equal the passes over all 2^mu masks that the lone
bits replaced (``reference_routes.closed_by_one_smaller`` and
``cones_by_lattice``): through the order's kept table as ``verify``
reads them, and through ``lone_bits`` on the order's faces and on
families that are not closed, on the corpus, on the whole seed-1 pool
under its manifest orders, and on hypothesis families.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (all_ideals, identity_order, parse_order, read_ideal,
                       sweep_ideals, taylor_betti, verify_chain_complex,
                       verify_resolution_report)
from lyubeznik.complexes import order_analysis
from lyubeznik.oracle import (_chain_verdict, _cone_verdicts,
                              _critical_strands, _lcm_classes, _verify_rows)
from lyubeznik.orders import OrderedIdeal
from lyubeznik.subsets import lone_bits, tables_for

from conftest import exponent_ideal
from reference_routes import (all_orders, closed_by_one_smaller,
                              cones_by_lattice, cones_per_apex,
                              full_strand_betti, full_strands)
from test_linalg import fraction_rank
from test_oracle_routes import FIELDS, dense_homology
from test_preserved_kernel import seeded_ideal


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


def dense_acyclic(face_masks, vset):
    by_size = {}
    for m in sorted(face_masks):
        if m & vset == m:
            face = tuple(b + 1 for b in range(vset.bit_length()) if m >> b & 1)
            by_size.setdefault(len(face), []).append(face)
    return not dense_homology(by_size, fraction_rank)


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
    assert dense_acyclic(family, vset) == acyclic


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
        assert dense_acyclic(family, vset)


# -- one marking pass against one up-closure per apex -------------------------


def check_cones_routes(ordered, rng):
    """The one-pass verdicts equal the per-apex route's on the order's
    faces, all true, and on two families that are not an order's: one
    face taken out and one set put in, and a face {g} taken out, which
    leaves the empty face without its partner {g}, so that every vertex
    set with apex g reads false.  Returns how many verdicts read false."""
    classes = _lcm_classes(ordered.ideal)
    analysis = order_analysis(ordered)
    word = np.array(ordered.order)
    apexes = 1 << (word[analysis.least[classes.vertex_sets]] - 1)
    vertex_sets = classes.vertex_sets
    faces = analysis.preserved
    swapped = faces.copy()
    swapped[rng.choice(np.flatnonzero(faces).tolist())] = False
    swapped[rng.randrange(len(faces))] = True
    no_apex = faces.copy()
    no_apex[rng.choice(apexes.tolist())] = False
    verdicts = []
    for family in (faces, swapped, no_apex):
        cones = _cone_verdicts(family, lone_bits(family), vertex_sets,
                               apexes)
        assert (cones == cones_per_apex(family, vertex_sets, apexes)).all()
        verdicts.append(cones)
    assert verdicts[0].all()
    return int((~verdicts[1]).sum() + (~verdicts[2]).sum())


def test_one_pass_cones_match_the_per_apex_route_on_the_corpus():
    rng = random.Random(27)
    sweep = {name for name, _ in sweep_ideals()}
    for name, ideal in all_ideals():
        if name in sweep:
            orders = list(all_orders(ideal))
        else:
            words = [list(ideal.indices()) for _ in range(4)]
            for w in words[1:]:
                rng.shuffle(w)
            orders = [OrderedIdeal(ideal, tuple(w)) for w in words]
        false = sum(check_cones_routes(ordered, rng) for ordered in orders)
        assert false, name


def test_one_pass_cones_match_the_per_apex_route_on_the_pool(pool):
    out, inputs = pool
    rng = random.Random(2714)
    names = [n for n, e in inputs.items()
             if n.endswith(".ideal") and e["mu"] <= 14]
    assert len(names) > 100
    for name in sorted(names):
        ideal = read_ideal(out / name)
        orders = [identity_order(ideal)] + [
            parse_order(w, ideal) for w in inputs[name]["orders"]]
        assert sum(check_cones_routes(o, rng) for o in orders), name


@settings(max_examples=300)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=40))))
def test_one_pass_cones_match_the_per_apex_route_on_random_families(case):
    # any family, closed under subsets or not, at every nonempty vertex
    # set with each of its members as the apex
    n, family = case
    pairs = [(v, 1 << b) for v in range(1, 1 << n)
             for b in range(n) if v >> b & 1]
    vertex_sets = np.array([v for v, _ in pairs])
    apexes = np.array([g for _, g in pairs])
    faces = marked(sorted(family), n)
    cones = _cone_verdicts(faces, lone_bits(faces), vertex_sets, apexes)
    assert (cones == cones_per_apex(faces, vertex_sets, apexes)).all()
    # and both read the definition, face by face
    assert cones.tolist() == [all(m ^ g in family for m in family
                                  if m & v == m) for v, g in pairs]


# -- the lone bits of the faces against the lattice passes --------------------


def check_lattice_routes(ordered, rng):
    """Both certificates read off the lone bits of the faces equal the
    passes over all 2^mu masks (``reference_routes.closed_by_one_smaller``
    and ``cones_by_lattice``): through the order's kept table, as
    ``verify`` reads them, and through ``lone_bits`` on the order's
    faces and on a family that is not closed, with one set put in and
    then one face's one-smaller subset taken out.  Returns how many
    cone verdicts the second family reads false."""
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
    assert dict(_verify_rows(ordered)) == dict(
        zip(classes.exponents, lattice.tolist()))
    broken = faces.copy()
    broken[rng.randrange(len(faces))] = True
    top = rng.choice(np.flatnonzero(faces).tolist())
    broken[top & (top - 1)] = False
    for family in (faces, broken):
        lone = lone_bits(family)
        assert _chain_verdict(family, lone) == closed_by_one_smaller(family)
        cones = _cone_verdicts(family, lone, vertex_sets, apexes)
        assert (cones == cones_by_lattice(family, vertex_sets,
                                          apexes)).all()
    assert not _chain_verdict(broken, lone_bits(broken))
    return int((~cones).sum())


def test_certificates_match_the_lattice_passes_on_the_corpus():
    rng = random.Random(47)
    sweep = {name for name, _ in sweep_ideals()}
    false = 0
    for name, ideal in all_ideals():
        if name in sweep:
            orders = list(all_orders(ideal))
        else:
            words = [list(ideal.indices()) for _ in range(4)]
            for w in words[1:]:
                rng.shuffle(w)
            orders = [OrderedIdeal(ideal, tuple(w)) for w in words]
        false += sum(check_lattice_routes(o, rng) for o in orders)
    assert false


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
        for ordered in orders:
            check_lattice_routes(ordered, rng)
    assert max(mus) == 16


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
    assert (_cone_verdicts(faces, lone, vertex_sets, apexes) ==
            cones_by_lattice(faces, vertex_sets, apexes)).all()
