"""The paper's answers past the CLI's bound of mu <= 12, checked up to
the subset tables' bound of mu 16.

Run from the repository root; its 45 tests take about 30 s on a 2-vCPU
VM, and ``-s`` prints each child's exit code, peak and time::

    PYTHONPATH=src python -m pytest ci -q -s

Tier-1 does not run this module (``testpaths`` is ``tests``), but
``tests/test_past_the_bound_module.py`` collects it; CI runs it in one
step.  A check that bounds a peak or needs a fresh interpreter runs
its child through ``fresh``: ``python -m lyubeznik.cli`` or one of the
child functions below (``python ci/test_past_the_bound.py <function>
<arguments>`` prints the function's findings as one JSON line), under
3,072,000,000 bytes of address space (``ulimit -v 3000000``) and a
60 s timeout, with its stdout in a file (c16-00's covers JSON is
176 MB), and reads back the child's own peak resident set.  Run as a
script, the module exits before it imports pytest, which would add
about 10 MiB to every child's peak.
"""

import gc
import hashlib
import json
import random
import subprocess
import sys
import time
import tracemalloc
from math import comb
from pathlib import Path
from tempfile import NamedTemporaryFile

import numpy as np

import lyubeznik.cli as cli
from lyubeznik import (OrderedIdeal, SimpleGraph, betti_from_preserved,
                       edge_ideal, identity_order, is_lyubeznik, l_length,
                       parse_ideal, parse_order, read_ideal, search_scan,
                       taylor_betti, verify_chain_complex,
                       verify_resolution_report)
from lyubeznik.cmdline import read_argv
from lyubeznik.complexes import order_analysis
from lyubeznik.covers import _listing_rows, cover_table
from lyubeznik.jsontext import _write_json
from lyubeznik.oracle import (_chain_verdict, _cone_verdicts, _lcm_classes,
                              _projective_dimension, _verify_rows)
from lyubeznik.subsets import indices_of, lone_bits, tables_for


def cycle(n):
    return [(f"v{i:02}", f"v{(i + 1) % n:02}") for i in range(n)]


def complete_bipartite(a, b):
    return [(f"u{i}", f"w{j}") for i in range(a) for j in range(b)]


GRAPHS = {
    "C14": cycle(14), "C16": cycle(16),
    "P16": [(f"v{i:02}", f"v{i + 1:02}") for i in range(16)],
    "K35": complete_bipartite(3, 5), "K44": complete_bipartite(4, 4),
    # ROADMAP item 2's graphs at mu 15-16: the book K2 v co-K7, a star
    # and five disjoint triangles
    "book7": [("a", "b")] + [(end, f"p{k}") for k in range(7) for end in "ab"],
    "K1_16": complete_bipartite(1, 16),
    "5K3": [(f"t{k}{x}", f"t{k}{y}") for k in range(5)
            for x, y in ("ab", "ac", "bc")],
}


def graph_ideal(name):
    edges = GRAPHS[name]
    names = sorted({v for edge in edges for v in edge})
    return edge_ideal(SimpleGraph(tuple(names), tuple(edges)))


def simplex_text(n):
    """The ideal file of the simplex x1, ..., xn."""
    names = [f"x{i}" for i in range(1, n + 1)]
    return "\n".join([" ".join(["vars", *names]),
                      *(f"gen {x}" for x in names)]) + "\n"


# -- the children: each runs in a fresh interpreter (``fresh``) -----------


def search_facts(name):
    """min_l, its witness and the witness's length, and projdim, of a
    pool file or a graph's edge ideal."""
    ideal = graph_ideal(name) if name in GRAPHS else read_ideal(name)
    scan = search_scan(ideal)
    return {"mu": ideal.mu, "min_l": scan.min_l, "projdim": scan.projdim,
            "witness": scan.min_l_witness,
            "length": l_length(OrderedIdeal(ideal, scan.min_l_witness))}


def oracle_facts(path):
    """The identity order's verify verdicts, the projective dimension
    walked down the strands and read off the table over Q and GF(2),
    and the number of multidegrees whose Betti numbers miss the Taylor
    strand's Euler characteristic."""
    ideal = read_ideal(path)
    ordered = identity_order(ideal)
    report = verify_resolution_report(ordered)
    found = {"multidegrees": len(report), "exact": sum(ok for _, ok in report),
             "chain": verify_chain_complex(ordered)}
    for prime in (None, 2):
        found[f"projdim over {prime or 'Q'}"] = [
            _projective_dimension(ideal, prime=prime),
            taylor_betti(ideal, prime=prime).projective_dimension]
    chi = {}
    for (i, exps), b in taylor_betti(ideal).multigraded_raw.items():
        if i:
            chi[exps] = chi.get(exps, 0) + (-1) ** i * b
    tables = tables_for(ideal)
    for mask in range(1, tables.size):
        exps = tables.lcm_exps[mask]
        chi[exps] = chi.get(exps, 0) - (-1) ** mask.bit_count()
    found["multidegrees off"] = sum(1 for c in chi.values() if c)
    return found


def verify_facts(name):
    """verify's verdicts under four orders: for a pool file the
    identity and the manifest's three seeded orders, for a graph's edge
    ideal the identity, its reverse and two seeded shuffles.  Under
    each, both certificates (d^2 = 0 and every multidegree's cone) are
    compared with the passes over all 2^mu masks of
    ``tests/reference_routes.py``, on the order's faces and on the
    faces less the one-smaller subset of the last face, which is not
    closed."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from reference_routes import closed_by_one_smaller, cones_by_lattice
    if name in GRAPHS:
        ideal = graph_ideal(name)
        words = [list(reversed(ideal.indices()))]
        for seed in (1, 2):
            words.append(list(ideal.indices()))
            random.Random(seed).shuffle(words[-1])
        orders = [OrderedIdeal(ideal, tuple(w)) for w in words]
    else:
        ideal = read_ideal(name)
        path = Path(name)
        with open(path.with_name("manifest.json"), encoding="utf-8") as handle:
            words = json.load(handle)["inputs"][path.name]["orders"]
        orders = [parse_order(w, ideal) for w in words]
    classes = _lcm_classes(ideal)
    found = []
    for ordered in [identity_order(ideal)] + orders:
        report = verify_resolution_report(ordered)
        analysis = order_analysis(ordered)
        faces = analysis.preserved
        apexes = 1 << (np.array(ordered.order)[
            analysis.least[classes.vertex_sets]] - 1)
        lattice = cones_by_lattice(faces, classes.vertex_sets, apexes)
        broken = faces.copy()
        top = int(np.flatnonzero(faces)[-1])
        broken[top & (top - 1)] = False
        lone = lone_bits(broken)
        agree = (dict(_verify_rows(ordered)) == dict(zip(
            classes.exponents, lattice.tolist()))
            and verify_chain_complex(ordered) == closed_by_one_smaller(faces)
            and _chain_verdict(broken, lone) == closed_by_one_smaller(broken)
            and np.array_equal(
                _cone_verdicts(broken, lone, classes.vertex_sets, apexes),
                cones_by_lattice(broken, classes.vertex_sets, apexes)))
        found.append({"order": str(ordered), "multidegrees": len(report),
                      "faces": len(analysis.faces),
                      "not exact": sum(not ok for _, ok in report),
                      "chain": verify_chain_complex(ordered),
                      "lattice routes agree": agree})
    return found


def held_facts(pool):
    """The traced memory still held after a search and a Betti table on
    c16-00, then one per-order call on c14-00."""
    large, small = (read_ideal(f"{pool}/{name}.ideal")
                    for name in ("c16-00", "c14-00"))
    tracemalloc.start()
    scan = search_scan(large)
    found = {"c16-00 min_l": scan.min_l, "c16-00 tobsl": scan.tobsl}
    taylor_betti(large)
    del scan
    order_analysis(identity_order(small))
    gc.collect()
    found["held MiB"] = tracemalloc.get_traced_memory()[0] / 2 ** 20
    return found


def covers_past_the_bound(path, form):
    """``covers --format <form>`` with the CLI's bound raised to 16 in
    this process; exits with its code."""
    cli.MAX_ENUMERATION_GENERATORS = 16
    sys.exit(cli.main(["covers", "--format", form, path]))


if __name__ == "__main__":
    print(json.dumps(globals()[sys.argv[1]](*sys.argv[2:])))
    sys.exit()


import pytest  # noqa: E402 -- a child exits above and never loads it

ROOT = Path(__file__).resolve().parents[1]
ADDRESS_SPACE = 3_072_000_000  # bytes, ``ulimit -v 3000000``
TIMEOUT_S = 60
C14 = [f"c14-{k:02}" for k in range(14)]

# the tests' checking routes
sys.path.insert(0, str(ROOT / "tests"))
from reference_routes import covers_fragments  # noqa: E402
from reference_routes import facets as reference_facets  # noqa: E402


@pytest.fixture(scope="session")
def pool(tmp_path_factory):
    """The benchmark's seed-1 input pool, written by ``bench/gen.py`` as
    ``tests/conftest.py`` writes it."""
    out = tmp_path_factory.mktemp("pool")
    subprocess.run([sys.executable, str(ROOT / "bench" / "gen.py"), "--seed",
                    "1", "--out", str(out)], check=True, capture_output=True)
    assert sorted(p.stem for p in out.glob("c14-*.ideal")) == C14
    return out


def ideal_file(pool, tmp_path, name):
    """A pool file, or for ``simplex<n>`` the simplex's file."""
    if not name.startswith("simplex"):
        return pool / f"{name}.ideal"
    path = tmp_path / f"{name}.ideal"
    path.write_text(simplex_text(int(name.removeprefix("simplex"))))
    return path


# Linux counts the resident set a child is forked with in its peak, so
# a child forked from pytest (35-50 MiB) would read at least pytest's
# size: a bare interpreter of 14 MiB starts each child instead, under
# the cap and the timeout, and writes the child's exit code (None past
# the timeout) and its own ru_maxrss in KiB to the file named first.
_LAUNCH = f"""\
import resource, subprocess, sys
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))
try:
    code = subprocess.run([sys.executable, *sys.argv[2:]],
                          timeout={TIMEOUT_S}).returncode
except subprocess.TimeoutExpired:
    code = None
with open(sys.argv[1], "w") as report:
    print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
          file=report)
"""


def fresh(tmp_path, *argv):
    """Run ``python <argv>`` in a fresh interpreter under the address
    space cap and the timeout: its exit code, the file its stdout went
    to, and its own peak resident set in MiB."""
    argv = [str(a) for a in argv]
    start = time.monotonic()
    with NamedTemporaryFile(dir=tmp_path, suffix=".out",
                            delete=False) as stdout:
        out = Path(stdout.name)
        report = out.with_suffix(".rusage")
        subprocess.run([sys.executable, "-S", "-c", _LAUNCH, report, *argv],
                       stdout=stdout, check=True)
    code, peak = report.read_text().split()
    assert code != "None", f"{argv} ran past {TIMEOUT_S} s"
    peak = int(peak) / 1024
    print(" ".join(Path(a).name for a in argv), f": exit {code},",
          f"peak {peak:.1f} MiB, {time.monotonic() - start:.2f} s")
    return int(code), out, peak


def child_facts(tmp_path, function, *args):
    """One child function's findings, and the child's peak in MiB."""
    code, out, peak = fresh(tmp_path, __file__, function.__name__, *args)
    assert code == 0
    found = json.loads(out.read_text(encoding="utf-8"))
    print(f"  {found}")
    return found, peak


def dumped(path):
    """The JSON payload in a file, whose bytes must be
    ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline."""
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    same = text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert same, f"{path} differs from json.dumps's bytes"
    return payload


def cli_json(tmp_path, *argv):
    """``lyubeznik <argv> --format json`` in a fresh child, which must
    exit 0: its payload (``dumped``) and its peak in MiB."""
    code, out, peak = fresh(tmp_path, "-m", "lyubeznik.cli", *argv,
                            "--format", "json")
    assert code == 0
    return dumped(out), peak


def check_covers(path, json_out, text_out):
    """A covers run's JSON bytes are json.dumps's and its clutter the
    library's; each generator's text block lists the JSON entries'
    members, in the same order, tagged exactly when they are E-minimal,
    and the last line the JSON clutter's edges."""
    payload = dumped(json_out)
    edges = sorted((list(indices_of(m)) for m in
                    cover_table(read_ideal(path)).clutter),
                   key=lambda e: (len(e), e))
    assert payload["clutter"] == edges
    expected = []
    for block in payload["covers"]:
        expected.append(f"covers of generator {block['generator']} "
                        f"({len(block['covers'])}):")
        expected += ["  {" + ",".join(map(str, e["members"])) + "}"
                     + ("  E-minimal" if e["eminimal"] else "")
                     for e in block["covers"]]
    expected.append("clutter edges: " + (", ".join(
        "{" + ",".join(map(str, e)) + "}" for e in payload["clutter"])
        or "(none)"))
    assert text_out.read_text(encoding="utf-8").splitlines()[2:] == expected


# -- one test per check ----------------------------------------------------


def test_exhaustive_search_past_the_scans_reach(pool, tmp_path):
    # 11! orders are out of a scan's reach; the prefix-set search
    # answers in about a second, and its witness must reach tobsL
    path = pool / "p11-00.ideal"
    search, _ = cli_json(tmp_path, "search", "--max-exhaustive", "11", path)
    order = ",".join(map(str, search["witness"]))
    witness, _ = cli_json(tmp_path, "analyze", "--order", order, path)
    assert search["tobsL"] == witness["obsL"]


# on C14 no order reaches the projective dimension, so the floor's walk
# answers no and the climb walks one length up
PINNED = {"C14": (10, 9), "C16": (11, 11), "P16": (11, 11), "K35": (7, 7),
          "K44": (7, 7)}


@pytest.mark.parametrize("name", [*C14, "c16-00", *PINNED])
def test_order_search_at_the_table_bound(pool, tmp_path, name):
    # the CLI refuses searches above mu 12; the library's prefix walks
    # settle a state once an alive set is sure to be preserved and build
    # the rows of the prefix sets they read only, so min_l's walks over
    # every (k + 1)-set answer at mu 14 and 16 in under a second and
    # under 60 MiB (c16-00 took 12.6 s and 375 MiB when every walk built
    # its rows for all 2^mu prefix sets): min_l's witness must have
    # length min_l, min_l must be at least projdim, the graphs'
    # (min_l, projdim) are pinned, and the floor's walk must find the
    # identity order on K_{3,5} and K_{4,4}
    found, peak = child_facts(tmp_path, search_facts, name if name in GRAPHS
                              else pool / f"{name}.ideal")
    assert found["length"] == found["min_l"] >= found["projdim"]
    if name in PINNED:
        assert (found["min_l"], found["projdim"]) == PINNED[name]
    if name in ("K35", "K44"):
        assert found["witness"] == list(range(1, found["mu"] + 1))
    assert peak <= 256


@pytest.mark.parametrize("name", ["c14-00", "c16-00"])
def test_homology_oracle_past_the_cli_bound(pool, tmp_path, name):
    # the library's taylor_betti reaches the subset tables' bound; the
    # Morse-reduced strands answer at mu 14 and 16 in well under a
    # second, and at every multidegree a the Betti numbers must have the
    # Taylor strand's Euler characteristic; the projective dimension
    # that analyze and the search floors read, walked down the strands
    # without a table, must be the table's over Q and GF(2); and the
    # resolution checks, the cone verdicts read off one pass of apex
    # bitmasks and d^2 = 0, must read true at every multidegree
    found, _ = child_facts(tmp_path, oracle_facts, pool / f"{name}.ideal")
    assert 0 < found["exact"] == found["multidegrees"]
    assert found["chain"] is True
    for field in ("Q", "2"):
        walked, top = found[f"projdim over {field}"]
        assert walked == top
    assert found["multidegrees off"] == 0


RP2 = ("# the triangles of K6 that are not facets of RP^2\n"
       "vars x1 x2 x3 x4 x5 x6\n" + "".join(
           f"gen x{a}*x{b}*x{c}\n" for a, b, c in (
               "124", "125", "135", "136", "146", "234", "236", "256",
               "345", "456")))


def test_field_dependent_betti_numbers(tmp_path):
    # the Stanley-Reisner ideal of the six-vertex real projective plane
    # has beta_{3,6} = beta_{4,6} = 1 over GF(2) only (Hochster's
    # formula); the tables over every field read one homology over Z,
    # re-ranked only where its certificate names the prime, so each
    # field runs in a fresh process: GF(2)'s graded rows must be Q's
    # plus those two, and GF(3)'s must be Q's
    path = tmp_path / "rp2.ideal"
    path.write_text(RP2)
    rows = {field: cli_json(tmp_path, "oracle-betti", "--field", field,
                            path)[0]["graded"] for field in ("q", "p:2", "p:3")}
    print(rows)
    assert rows["p:2"] == sorted(rows["q"] + [[3, 6, 1], [4, 6, 1]])
    assert rows["p:3"] == rows["q"]


def test_covers_json_at_the_covers_bound(pool, tmp_path):
    # covers prints every cover of every generator, handing the writer
    # each generator's list as one fragment rendered when the writer
    # reaches it, and the writer sends its text on as it goes; at the
    # CLI's mu 12 bound its bytes must still be json.dumps's, its
    # clutter the library's, its text listing the JSON run's entries and
    # clutter edges, and the CLI process's peak resident set must stay
    # within 40 MiB for 5 MB of JSON (43 MiB when the whole text was held)
    path = pool / "p12-00.ideal"
    covers = ("-m", "lyubeznik.cli", "covers", "--format")
    code, json_out, peak = fresh(tmp_path, *covers, "json", path)
    assert code == 0 and peak <= 40
    code, text_out, _ = fresh(tmp_path, *covers, "text", path)
    assert code == 0
    check_covers(path, json_out, text_out)


@pytest.mark.parametrize("name, bounds", [("c14-00", {"json": 64, "text": 64}),
                                          ("c16-00", {"json": 128})])
def test_covers_past_the_cli_bound(pool, tmp_path, name, bounds):
    # with the CLI's bound raised to 16 in-process (the shipped bound
    # stays 12), covers --format json writes 32 MB on c14-00 and 176 MB
    # on c16-00 one generator's block at a time, and --format text 2 MB
    # on c14-00; each run must exit 0 with a peak resident set within
    # 64, 128 and 64 MiB (107 and 431 MiB when the whole JSON text was
    # held), and on c14-00 the outputs must pass the checks at mu 12
    path = pool / f"{name}.ideal"
    outs = {}
    for form, mib in bounds.items():
        code, outs[form], peak = fresh(tmp_path, __file__,
                                       covers_past_the_bound.__name__,
                                       path, form)
        assert code == 0 and peak <= mib
    if "text" in outs:
        check_covers(path, outs["json"], outs["text"])


class DigestSink:
    """A ``write`` that keeps only a sha256 digest of its text and the
    text's length."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.length = 0

    def write(self, text: str) -> None:
        self.digest.update(text.encode())
        self.length += len(text)


@pytest.mark.parametrize("name", ["c14-00", "c16-00"])
def test_covers_blocks_stream_past_the_cli_bound(pool, name):
    # in-process, past the CLI's bound: the covers handler's JSON fields
    # (each generator's block gathered from object arrays of texts) go
    # through the JSON writer into a sink that keeps only a digest,
    # which must equal that of the same fields with every block made by
    # the parts join the gathers replaced; and the tracemalloc peak of
    # the cold request (the subset and cover tables built again) must
    # stay below the output's length
    path = pool / f"{name}.ideal"
    ideal = read_ideal(path)
    args = read_argv(["covers", "--format", "json", str(path)])
    tables_for.cache_clear()
    sink = DigestSink()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        fields, _ = cli._cmd_covers(args, ideal, None)
        _write_json(fields, sink.write)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"{name}: {sink.length:,} characters, {seconds:.2f} s traced,",
          f"tracemalloc peak {peak / 2 ** 20:.1f} MiB")
    reference = DigestSink()
    _write_json({**fields, "covers": covers_fragments(_listing_rows(ideal),
                                                      ideal.mu)},
                reference.write)
    assert sink.length == reference.length > 30_000_000
    assert sink.digest.hexdigest() == reference.digest.hexdigest()
    assert peak < sink.length, (peak, sink.length)


@pytest.mark.parametrize("name, argv", [
    ("o12-00", ["oracle-betti"]),
    ("o12-00", ["oracle-betti", "--field", "p:32003"]),
    ("o12-00", ["verify"]), ("o12-00", ["analyze"]),
    ("simplex12", ["analyze"])])
def test_oracle_json_at_the_cli_bound(pool, tmp_path, name, argv):
    # oracle-betti, analyze and verify hand the writer their rows (the
    # Betti tables' graded and multigraded rows, verify's multidegrees)
    # as fragments, each rendered when the writer reaches it for the
    # depth where it meets it (analyze's Betti rows at depth 2, the
    # others at depth 1); at the CLI's mu 12 bound their bytes must
    # still be json.dumps's (``cli_json``), over Q and GF(32003).  No
    # order of o12-00 is minimal, so its analyze payload holds no Betti
    # rows; on the 12-variable simplex the identity order is minimal and
    # analyze writes 4,096 multigraded rows at depth 2
    cli_json(tmp_path, *argv, ideal_file(pool, tmp_path, name))


@pytest.mark.parametrize("name", ["c14-00", "c16-00", "C16"])
def test_verify_at_the_table_bound(pool, tmp_path, name):
    # the CLI refuses verify above mu 12, so the library's checks are
    # run at the subset tables' bound: the oracle reads both
    # certificates off the lone bits of the order's faces, and every
    # multidegree's cone verdict and the d^2 = 0 certificate (the
    # faces' closure under subsets) must hold, under four orders (on the
    # pool files the identity and the three seeded --order words the
    # pool's manifest lists), since the apex of each multidegree's cone
    # depends on the order; both must equal the passes over all 2^mu
    # masks that the lone bits replaced, on the faces and on a family
    # that is not closed.  The C16 edge ideal has dense faces: 16,384
    # to 49,152 of its 65,536 masks under these orders, where c16-00's
    # orders have 306 to 508
    arg = name if name in GRAPHS else pool / f"{name}.ideal"
    found, _ = child_facts(tmp_path, verify_facts, arg)
    assert len(found) == 4
    for order in found:
        assert order["not exact"] == 0 and order["chain"] is True
        assert order["lattice routes agree"] is True
    if name == "C16":
        assert min(order["faces"] for order in found) >= 2 ** 14


@pytest.mark.parametrize("name", ["c16-00", "simplex16"])
def test_complex_at_the_table_bound(pool, tmp_path, name):
    # complex is the one command that reaches the subset tables' bound;
    # it reads the facets off the faces' lone bits, and the census from
    # per-size counts of the faces, of the covering faces and of the
    # covers, so neither allocates more than the faces do.
    # On c16-00 and on the 16-variable simplex (all 65,536 subsets are
    # faces, one is a facet), complex --format json must exit 0 with a
    # peak resident set within 256 MiB; its bytes must be json.dumps's
    # (the simplex's 65,536 faces are the longest list fragment), each
    # census row must sum to C(16, t), the f-vector must count the faces
    # listed, and the simplex's facets must be [[1, ..., 16]] and its
    # f-vector the binomials C(16, t)
    out, peak = cli_json(tmp_path, "complex", ideal_file(pool, tmp_path, name))
    assert peak <= 256
    mu = len(out["ideal"]["generators"])
    assert mu == 16 and sum(out["f_vector"]) == len(out["faces"])
    for size, row in out["census"].items():
        assert sum(row.values()) == comb(mu, int(size))
    if name == "simplex16":
        assert out["facets"] == [list(range(1, 17))]
        assert out["f_vector"] == [comb(16, t) for t in range(17)]


def test_facets_of_a_dense_complex_at_the_table_bound():
    # a face F is a facet when it is lone at every bit outside it; on
    # the C16 edge ideal, a dense complex that is not the simplex
    # (49,152 faces under the identity and its reverse, 12 blocks of
    # the lone bits' gathers; 16,384 and 20,736 under two seeded
    # shuffles), the facets must equal the scan of each face's
    # one-larger masks
    ideal = graph_ideal("C16")
    words = [list(ideal.indices()), list(reversed(ideal.indices()))]
    for seed in (1, 2):
        words.append(list(ideal.indices()))
        random.Random(seed).shuffle(words[-1])
    sizes = []
    for word in words:
        analysis = order_analysis(OrderedIdeal(ideal, tuple(word)))
        assert analysis.facets == reference_facets(analysis.preserved), word
        sizes.append(len(analysis.faces))
    assert max(sizes) == 49_152 and min(sizes) >= 2 ** 14


def test_per_ideal_state_is_released_at_the_table_bound(pool, tmp_path):
    # everything derived from an ideal (the cover table, the walks'
    # closed masks, the lcm classes and the strands) is kept with its
    # subset tables, and tables_for keeps one ideal's: after a search
    # and a Betti table on c16-00, one per-order call on c14-00 must
    # leave at most 1.5 MiB of traced memory held (5.49 MiB when four
    # caches of their own each kept c16-00's)
    found, _ = child_facts(tmp_path, held_facts, pool)
    assert found["held MiB"] <= 1.5


def star_or_triangle(edges):
    """The README's test for a totally Lyubeznik edge ideal: every
    component with an edge is a star or a triangle."""
    adjacent = {}
    for a, b in edges:
        adjacent.setdefault(a, set()).add(b)
        adjacent.setdefault(b, set()).add(a)
    seen = set()
    for start in adjacent:
        if start in seen:
            continue
        part, todo = set(), [start]
        while todo:
            v = todo.pop()
            if v not in part:
                part.add(v)
                todo.extend(adjacent[v])
        seen |= part
        degrees = [len(adjacent[v]) for v in part]
        edges_in = sum(degrees) // 2
        star = max(degrees) == len(part) - 1 == edges_in
        if not (star or len(part) == 3 == edges_in):
            return False
    return True


@pytest.mark.parametrize("name", ["book7", "K1_16", "5K3", "simplex16"])
def test_lyubeznik_verdicts_at_mu_15_and_16(name):
    # ROADMAP item 2's checks that share no code with the answer, where
    # the tables reach today: the preserved sets of is_lyubeznik's
    # witness must count the Betti numbers that the homology oracle
    # ranks, and on the graphs the search's totally Lyubeznik verdict
    # must be the star-or-triangle test's, which fails on the book only
    if name in GRAPHS:
        ideal = graph_ideal(name)
        assert ideal.mu in (15, 16)
        totally = search_scan(ideal).totally_lyubeznik
        assert totally == star_or_triangle(GRAPHS[name]) == (name != "book7")
    else:
        ideal = parse_ideal(simplex_text(16))
    verdict, witness = is_lyubeznik(ideal)
    assert verdict
    assert betti_from_preserved(witness) == taylor_betti(ideal)
