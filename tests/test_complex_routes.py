"""The ``complex`` command's output against the frozenset route.

``lyubeznik complex`` reads the dimension, the f-vector, the faces and
the facets off the order's masks (``order_analysis``) and hands the
JSON writer the faces and the facets as pre-rendered fragments, sorted
by a per-face key.  Here its stdout, in both formats, is compared byte
for byte with the output built the way it was before: from the
frozensets of ``lyubeznik_complex`` (``dim``, ``f_vector``, the faces
and facets sorted as lists) and ``json.dumps``.  The inputs are the
corpus under three orders, the benchmark's seed-1 pool ideals ``p10``
to ``c16`` with their ``--order`` words (written by ``bench/gen.py``),
and hypothesis ideals.  The pool ideals are also run without
``--order``, against the identity order.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lyubeznik import (OrderedIdeal, all_ideals, classification_census,
                       identity_order, lyubeznik_complex, parse_order,
                       read_ideal)
from lyubeznik.cli import main

from test_cli_routes import ideal_file_text
from test_scan_kernel import exponent_rows, small_ideal

GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
POOL_STRATA = ("p10", "p11", "p12", "c14", "c16")


def frozenset_route(ordered, fmt):
    """The complex output, from the frozensets of ``lyubeznik_complex``."""
    ideal = ordered.ideal
    complex_ = lyubeznik_complex(ordered)
    faces = sorted(sorted(f) for f in complex_.faces)
    facets = sorted(sorted(f) for f in complex_.facets)
    census = {str(size): {cls.value: count for cls, count in row.items()}
              for size, row in classification_census(ordered).items()}
    if fmt == "json":
        payload = {"schema": 1, "command": "complex",
                   "ideal": {"variables": list(ideal.context.names),
                             "generators": [str(m) for m in ideal.gens]},
                   "order": list(ordered.order), "dim": complex_.dim,
                   "f_vector": list(complex_.f_vector), "faces": faces,
                   "facets": facets, "census": census}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = [f"ideal: {ideal}", f"order: {ordered}", f"dim: {complex_.dim}",
             "f-vector: (" + ", ".join(map(str, complex_.f_vector)) + ")",
             "facets: " + ", ".join("{" + ",".join(map(str, f)) + "}"
                                    for f in facets)]
    for size in sorted(census, key=int):
        cells = ", ".join(f"{name}={count}" for name, count in
                          sorted(census[size].items()) if count)
        lines.append(f"size {size}: {cells or '(empty)'}")
    return "\n".join(lines) + "\n"


def cli_output(path, ordered, fmt, flag):
    """``complex``'s stdout under ``ordered``, passed as ``--order``, or
    with no ``--order`` at all when ``flag`` is false."""
    words = ["--order", ",".join(map(str, ordered.order))] if flag else []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["complex", "--format", fmt, *words, str(path)])
    assert code == 0
    return out.getvalue()


def check_complex(path, ordered, flag=True):
    for fmt in ("json", "text"):
        assert cli_output(path, ordered, fmt, flag) == \
            frozenset_route(ordered, fmt), (str(path), ordered.order, fmt)


def three_orders(ideal):
    word = identity_order(ideal).order
    return [OrderedIdeal(ideal, w)
            for w in (word, word[::-1], word[1:] + word[:1])]


def test_complex_matches_the_frozenset_route_on_the_corpus(tmp_path):
    for name, ideal in all_ideals():
        path = tmp_path / f"{name}.ideal"
        path.write_text(ideal_file_text(ideal), encoding="utf-8")
        for ordered in three_orders(ideal):
            check_complex(path, ordered)


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    out = tmp_path_factory.mktemp("pool")
    subprocess.run([sys.executable, str(GEN), "--seed", "1", "--out",
                    str(out)], check=True, capture_output=True)
    with open(out / "manifest.json", encoding="utf-8") as handle:
        return out, json.load(handle)["inputs"]


@pytest.mark.parametrize("stratum", POOL_STRATA)
def test_complex_matches_the_frozenset_route_on_the_pool(pool, stratum):
    out, inputs = pool
    names = sorted(n for n, e in inputs.items() if e["stratum"] == stratum)
    assert names
    for name in names:
        path = out / name
        ideal = read_ideal(path)
        assert ideal.mu == inputs[name]["mu"]
        for word in inputs[name]["orders"]:
            check_complex(path, parse_order(word, ideal))
        # and the identity order the command takes without --order
        check_complex(path, identity_order(ideal), flag=False)


@settings(max_examples=40)
@given(st.integers(2, 5).flatmap(exponent_rows))
def test_complex_matches_the_frozenset_route_on_random_ideals(rows):
    ideal = small_ideal(rows, max_mu=10)
    fd, name = tempfile.mkstemp(suffix=".ideal")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(ideal_file_text(ideal))
        for ordered in three_orders(ideal):
            check_complex(Path(name), ordered)
    finally:
        os.unlink(name)
