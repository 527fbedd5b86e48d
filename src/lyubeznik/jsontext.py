"""The JSON text of the command line's payloads.

``_write_json(payload, write)`` sends
``json.dumps(payload, sort_keys=True, indent=2)``, byte for byte, to the
callable ``write`` (the CLI's is ``sys.stdout.write``) as it goes; with
an indent, ``json.dumps`` runs CPython's pure-Python encoder, which
took about two thirds of a ``covers`` call on a 12-generator ideal.  A
``_Fragment`` holds one callable, ``render(depth)``, which returns the
text of one value written at the depth ``depth``.  The writer calls it
with the depth where it meets the fragment and sends the text as it is,
after the text it has gathered before it; so the writer alone decides
where each list sits, and it holds no more than the text between two
fragments.  One helper, ``_layout``, gives the text that opens, separates
and closes a list or dict at a depth; the writer and every builder read
it once per container or once per render, never once per row.

``covers`` hands the writer each generator's list of covers as a
fragment (``_covers_fragments``): one join of an object array of parts,
gathered by numpy fancy indexing with the generator's mask arrays from
tables of per-mask members texts and flag texts made on the first
render, once per request; and its clutter as one fragment
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

from functools import cache, partial
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np


class _Fragment:
    """The JSON text of one value, rendered by ``render(depth)`` for the
    depth at which the writer meets it, the same value at every depth."""

    __slots__ = ("render",)

    def __init__(self, render: Callable[[int], str]) -> None:
        self.render = render


def _layout(depth: int, brackets: str = "[]") -> tuple[str, str, str]:
    """The text that opens a non-empty list (or, with ``"{}"``, dict) at
    the depth ``depth``, the text between two of its items and the text
    that closes it."""
    inner = "\n" + "  " * (depth + 1)
    return (brackets[0] + inner, "," + inner,
            "\n" + "  " * depth + brackets[1])


def _write_json(payload: dict, write: Callable[[str], object]) -> None:
    """Send ``json.dumps(payload, sort_keys=True, indent=2)``, byte for
    byte, to ``write``.

    With an indent, CPython encodes in pure Python.  This writer gathers
    parts in one list, item by item; the long lists of the command
    line's payloads reach it as fragments.  At each ``_Fragment`` it
    sends what it has gathered, as one string, and then the fragment's
    text for the depth where it meets it, and at the end the rest; so it
    holds no more than the text between two fragments.  Only dicts with
    str keys, lists, tuples, str, int, bool, None and fragments are
    written; any other type raises ``TypeError``, so the output can
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
            if parts:
                write("".join(parts))
                parts.clear()
            write(value.render(depth))
        else:
            raise TypeError(f"cannot write {type(value).__name__} as JSON")

    def put_container(value, depth: int) -> None:
        if isinstance(value, dict):
            start, sep, end = _layout(depth, "{}")
            for key in sorted(value):
                # raises TypeError on a key that is not a str
                append(start + encode_basestring_ascii(key) + ": ")
                put(value[key], depth + 1)
                start = sep
        else:
            start, sep, end = _layout(depth)
            for item in value:
                append(start)
                put(item, depth + 1)
                start = sep
        append(end)

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
        tail = sep + str(b)
        more = [t + tail for t in members]
        more[0] = str(b)
        members += more
    return members


def _rows_fragment(rows: Callable[[str, str, str], list[str]]
                   ) -> _Fragment:
    """A list of rows as one fragment: ``rows(start, sep, end)`` gives
    the text of each row, a list one deeper than the fragment, from its
    layout (``_layout``)."""
    def render(depth: int) -> str:
        texts = rows(*_layout(depth + 1))
        if not texts:
            return "[]"
        start, sep, end = _layout(depth)
        return start + sep.join(texts) + end
    return _Fragment(render)


def _covers_fragments(rows, mu: int) -> list[dict]:
    """The ``"covers"`` value of the covers payload: per generator u,
    its cover entries as one fragment, rendered from ``rows(u)``
    (``covers._listing_rows``: the masks, E-minimal flags and covered
    masks of u's covers).  Each entry is a dict one deeper than the
    fragment, with int lists two deeper.  On the first render at a
    depth, the members text of every mask and the text after each flag
    are made once, as numpy object arrays; every covered and members
    list is non-empty, so the text that opens and closes a list is part
    of the constant text around it.  A block is one object array of
    parts, the constant text between entries and, gathered by fancy
    indexing with u's covered masks, flags and masks, each entry's
    texts, joined once, so no entry is made as a string of its own and
    no row is read as Python ints."""
    @cache
    def texts(depth: int):
        start, sep, end = _layout(depth)
        # an entry is {"covered": <list>, "eminimal": <flag>, "members": <list>}
        open_, next_, close = _layout(depth + 1, "{}")
        lstart, lsep, lend = _layout(depth + 2)
        members = np.array(_members_texts(mu, lsep), dtype=object)
        flag = np.array([f'{lend}{next_}"eminimal": {v}{next_}"members": '
                         f'{lstart}' for v in ("false", "true")], dtype=object)
        return (f'{start}{open_}"covered": {lstart}', flag, members,
                f'{lend}{close}{sep}{open_}"covered": {lstart}',
                lend + close + end)

    def block(u: int, depth: int) -> str:
        masks, eminimal, covered = rows(u)
        if not len(masks):
            return "[]"
        first, flag, members, between, last = texts(depth)
        # np.full would put a new copy of the text in every slot, made
        # through a fixed-width unicode array; a slice assignment shares
        # one string
        parts = np.empty(4 * len(masks) + 1, dtype=object)
        parts[0], parts[4:-1:4], parts[-1] = first, between, last
        parts[1::4] = members[covered]
        # a bool index would select, not gather
        parts[2::4] = flag[eminimal.view(np.uint8)]
        parts[3::4] = members[masks]
        return "".join(parts.tolist())
    return [{"generator": u, "covers": _Fragment(partial(block, u))}
            for u in range(1, mu + 1)]


def _lists_fragment(masks: list[int], members: dict) -> _Fragment:
    """A list of masks, each written as the list of its members, as one
    fragment; ``members[m]`` is the members text of mask m, ``"1,5,6"``."""
    return _rows_fragment(lambda start, sep, end: [
        start + members[m].replace(",", sep) + end if m else "[]"
        for m in masks])


def _betti_fields(table, text: Callable[[tuple[int, ...]], str]) -> dict:
    """A Betti table's payload fields: its subject, its graded rows
    ``[i, j, count]`` sorted, and its multigraded rows
    ``[i, "multidegree", count]`` in entry order, the two lists as
    fragments.  A multidegree's text is the quoted ``text(exponents)``,
    a ``monomial_text``: variable names are ASCII letters, digits and
    ``_``, which JSON writes as they are."""
    return {"subject": table.subject,
            "graded": _rows_fragment(lambda start, sep, end: [
                f"{start}{i}{sep}{j}{sep}{c}{end}"
                for (i, j), c in sorted(table.graded.items())]),
            "multigraded": _rows_fragment(lambda start, sep, end: [
                f'{start}{i}{sep}"{text(exps)}"{sep}{c}{end}'
                for i, exps, c in table.entries])}


def _multidegrees_fragment(rows, text: Callable[[tuple[int, ...]], str]
                           ) -> _Fragment:
    """``verify``'s multidegrees, rows ``["multidegree", verdict]`` of
    its (exponent tuple, verdict) rows, each multidegree written as
    ``text(exponents)``, as one fragment."""
    return _rows_fragment(lambda start, sep, end: [
        f'{start}"{text(exps)}"{sep}{"true" if ok else "false"}{end}'
        for exps, ok in rows])
