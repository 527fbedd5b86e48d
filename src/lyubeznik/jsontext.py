"""The JSON text of the command line's payloads.

``_write_json(payload, write)`` sends
``json.dumps(payload, sort_keys=True, indent=2)``, byte for byte, to the
callable ``write`` (the CLI's is ``sys.stdout.write``) as it goes; with
an indent, ``json.dumps`` runs CPython's pure-Python encoder, which
took about two thirds of a ``covers`` call on a 12-generator ideal.  A
``_Fragment`` is the text of one value for the depth it is written at,
which the writer sends as it is, after the text it has gathered before
it; so the writer holds no more than the text between two fragments.
A fragment's parts are rendered ahead, or rendered on demand, each time
the fragment is written and the same each time: ``covers`` hands the
writer each generator's list of covers as a fragment rendered when the
writer reaches it (``_covers_fragments``), one join of per-mask list
texts made once per ideal, and its clutter as one fragment
(``_lists_fragment``), built from each edge's members text, which its
text format reads too; ``complex`` its faces and facets
(``_lists_fragment``), built from a members text made once per face;
``oracle-betti`` and ``analyze`` a Betti table's graded and multigraded
rows (``_betti_fields``), and ``verify`` its multidegrees
(``_multidegrees_fragment``), each row one f-string with the
multidegree's text, which the caller supplies: ``oracle-betti`` and
``verify`` read the lattice's texts (``oracle._LcmClasses.texts``),
written once per lattice point for every request on the ideal, and
``analyze`` writes its preserved-set rows with ``monomial_text``.  So
the writer walks no cover entry, no clutter edge, no face and no row.
Every other list is written item by item, one path for any list: an
order, a witness, an f-vector, variable and generator names, and
``graph``'s vertices and edges (at most 12 edges under
``--check-props``).  Each item goes through the same type checks, so
every type ``json.dumps`` refuses is refused.

The writer lives apart from ``cli``, which imports it: ``cli`` is
compiled last when the package is imported from source, on top of
every other module, and the size of its source sets the resident peak
of that import.
"""

from __future__ import annotations

from functools import partial
from json.encoder import encode_basestring_ascii
from typing import Callable


class _Fragment:
    """The JSON text of one value for the depth ``depth``, as parts that
    the writer sends as they are, refusing the fragment at any other
    depth.  ``parts`` is a list of the parts, rendered ahead, or a
    zero-argument callable that renders them each time the fragment is
    written, the same text each time."""

    __slots__ = ("parts", "depth")

    def __init__(self, parts: list[str] | Callable[[], list[str]],
                 depth: int) -> None:
        self.parts = parts
        self.depth = depth

    def __iter__(self):
        parts = self.parts
        return iter(parts() if callable(parts) else parts)


def _write_json(payload: dict, write: Callable[[str], object]) -> None:
    """Send ``json.dumps(payload, sort_keys=True, indent=2)``, byte for
    byte, to ``write``.

    With an indent, CPython encodes in pure Python.  This writer gathers
    parts in one list, item by item; the long lists of the command
    line's payloads reach it as fragments.  At each ``_Fragment``
    it sends what it has gathered, as one string, and then the
    fragment's parts, and at the end the rest; so it holds no more than
    the text between two fragments.  Only dicts with str keys, lists,
    tuples, str, int, bool, None and fragments met at the depth they
    were rendered for are written; any other type raises ``TypeError``
    and a fragment at another depth ``ValueError``, so the output can
    never silently differ from ``json.dumps`` (though what came before
    the error has been sent).
    """
    parts: list[str] = []
    append = parts.append

    def put(value, depth: int) -> None:
        if isinstance(value, str):
            append(encode_basestring_ascii(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, (list, tuple, dict)):
            if value:
                put_container(value, depth)
            else:
                append("{}" if isinstance(value, dict) else "[]")
        elif type(value) is _Fragment:
            if value.depth != depth:
                raise ValueError(f"a fragment rendered for depth {value.depth}"
                                 f" met at depth {depth}")
            if parts:
                write("".join(parts))
                parts.clear()
            for part in value:
                write(part)
        else:
            raise TypeError(f"cannot write {type(value).__name__} as JSON")

    def put_container(value, depth: int) -> None:
        inner = "\n" + "  " * (depth + 1)
        if isinstance(value, dict):
            sep = "{" + inner
            for key in sorted(value):
                # raises TypeError on a key that is not a str
                append(sep + encode_basestring_ascii(key) + ": ")
                put(value[key], depth + 1)
                sep = "," + inner
            append("\n" + "  " * depth + "}")
        else:
            sep = "[" + inner
            for item in value:
                append(sep)
                put(item, depth + 1)
                sep = "," + inner
            append("\n" + "  " * depth + "]")

    try:
        put(payload, 0)
        if parts:
            write("".join(parts))
    finally:
        # put and put_container refer to each other through their
        # closures: unbind them, so that the parts are freed now and not
        # at some later garbage collection
        del put, put_container


def _members_texts(mu: int, sep: str) -> list[str]:
    """The members text of every mask below 2^mu, ``"1" + sep + "5" +
    sep + "6"`` for ``{1,5,6}``, by doubling over the bits."""
    members = [""]
    for b in range(1, mu + 1):
        members += [f"{t}{sep}{b}" if t else str(b) for t in members]
    return members


def _covers_fragments(rows, mu: int) -> list[dict]:
    """The ``"covers"`` value of the covers payload: per generator u,
    its cover entries as one fragment for depth 3, where the payload
    holds them, rendered each time it is written from ``rows(u)``
    (``covers._listing_rows``: the masks, E-minimal flags and covered
    masks of u's covers).  Each entry is a dict at depth 4 with int
    lists at depth 5; the text of every mask's list is made once, and a
    block is one join of those texts and the constant text between
    them, so no entry is made as a string of its own."""
    ind3, ind4, ind5, ind6 = ("\n" + "  " * d for d in range(3, 7))
    lists = [f"[{ind6}{t}{ind5}]"
             for t in _members_texts(mu, "," + ind6)]
    # an entry is {"covered": <list>, "eminimal": <flag>, "members": <list>}
    first = f'[{ind4}{{{ind5}"covered": '
    flag = tuple(f',{ind5}"eminimal": {v},{ind5}"members": '
                 for v in ("false", "true"))
    between = f'{ind4}}},{ind4}{{{ind5}"covered": '
    last = f"{ind4}}}{ind3}]"

    def block(u: int) -> list[str]:
        masks, eminimal, covered = rows(u)
        if not len(masks):
            return ["[]"]
        parts = [between] * (4 * len(masks) + 1)
        parts[0], parts[-1] = first, last
        parts[1::4] = map(lists.__getitem__, covered.tolist())
        parts[2::4] = map(flag.__getitem__, eminimal.tolist())
        parts[3::4] = map(lists.__getitem__, masks.tolist())
        return ["".join(parts)]
    return [{"generator": u, "covers": _Fragment(partial(block, u), 3)}
            for u in range(1, mu + 1)]


def _rows_fragment(rows: list[str], depth: int) -> _Fragment:
    """A list of rows, each already the text of one list for the depth
    ``depth + 1``, as one fragment for the depth ``depth``."""
    if not rows:
        return _Fragment(["[]"], depth)
    ind0, ind1 = ("\n" + "  " * d for d in (depth, depth + 1))
    return _Fragment(["[" + ind1 + ("," + ind1).join(rows) + ind0 + "]"],
                     depth)


def _lists_fragment(masks: list[int], members: dict) -> _Fragment:
    """A list of masks, each written as the list of its members, as one
    fragment for depth 1, where the payload holds it; ``members[m]`` is
    the members text of mask m, ``"1,5,6"``."""
    ind2, ind3 = ("\n" + "  " * d for d in range(2, 4))
    sep3 = "," + ind3
    entries = [f"[{ind3}{members[m].replace(',', sep3)}{ind2}]" if m
               else "[]" for m in masks]
    return _rows_fragment(entries, 1)


def _betti_fields(table, depth: int,
                  text: Callable[[tuple[int, ...]], str]) -> dict:
    """A Betti table's payload fields, held at the depth ``depth``: its
    subject, its graded rows ``[i, j, count]`` sorted, and its
    multigraded rows ``[i, "multidegree", count]`` in entry order, the
    two lists as fragments.  A multidegree's text is the quoted
    ``text(exponents)``, a ``monomial_text``: variable names are ASCII
    letters, digits and ``_``, which JSON writes as they are."""
    ind1, ind2 = ("\n" + "  " * d for d in (depth + 1, depth + 2))
    sep = "," + ind2
    graded = [f"[{ind2}{i}{sep}{j}{sep}{c}{ind1}]"
              for (i, j), c in sorted(table.graded.items())]
    multigraded = [f'[{ind2}{i}{sep}"{text(exps)}"{sep}{c}{ind1}]'
                   for i, exps, c in table.entries]
    return {"subject": table.subject,
            "graded": _rows_fragment(graded, depth),
            "multigraded": _rows_fragment(multigraded, depth)}


def _multidegrees_fragment(report, text: Callable[[tuple[int, ...]], str]
                           ) -> _Fragment:
    """``verify``'s multidegrees, rows ``["multidegree", verdict]`` of
    its (monomial, verdict) pairs, each monomial written as
    ``text(exponents)``, as one fragment for depth 1, where the payload
    holds them."""
    ind1, ind2 = "\n    ", "\n      "
    return _rows_fragment(
        [f'[{ind2}"{text(m.exponents)}",{ind2}'
         f'{"true" if ok else "false"}{ind1}]' for m, ok in report], 1)
