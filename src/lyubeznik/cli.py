"""Command-line interface.

One subcommand per task, all reading the ideal (or graph) file format.
JSON output is deterministic: top-level ``"schema": 1``, sorted keys,
and no content that depends on hashing or scheduling.  It comes from
the package's own writer, ``jsontext._write_json``, whose bytes are
identical to ``json.dumps(payload, sort_keys=True, indent=2)``.
``covers`` (its clutter and each generator's covers) and ``complex``
(its faces and facets) hand it their long lists, and ``oracle-betti``,
``analyze`` and ``verify`` their rows, as fragments: each renders its
text when the writer reaches it, for the depth where the writer meets
it, so the writer walks no cover entry, no clutter edge, no face and no
row, and no handler names a depth.

Output is written as it is made: the writer sends its text to stdout
at each fragment, and the text format is written block by block (for
``covers``, a block per generator), so no request holds the whole of
its output.  So a Ctrl-C, a closed pipe or running out of memory while
the output is written leaves part of it on stdout.  Every check that
can refuse a request is made before the first byte.

One table, ``cmdline._COMMANDS``, declares the command line, and
``cmdline.read_argv`` reads each call's argv into a fresh namespace in
one pass over its words; ``--help`` prints text read off the same
table.  Nothing is built per process, and no call pays for more than
its own words.  A usage error is one line on stderr, ``lyubeznik[
<command>]: error: <message>``, naming the word at fault, and exits 1.
A subcommand's handler is looked up when the call runs it.  A warning
raised while a command runs (a dropped non-minimal generator, a
radical-generator construction on a non-minimal order) is printed as
one line, ``lyubeznik: warning: <message>``, on stderr, and stdout is
unchanged.  Exit codes:

====  ===============================================================
0     success, or ``-h``/``--help``
1     bad input (file, order, flag value, usage), stdout's reader
      went away, or stdout cannot take the output (a full disk:
      ``lyubeznik: error: cannot write output: <reason>`` on stderr)
2     a size threshold refused the computation
3     out of memory: ``lyubeznik: error: out of memory`` on stderr
130   interrupted (Ctrl-C): ``lyubeznik: interrupted`` on stderr
====  ===============================================================

One function, ``_request``, fixes the order of checks for every ideal
command: it reads the ideal, parses ``--order``, makes every refusal
but the subset tables' in ``_check_size``, and only then calls the
handler with ``(args, ideal, ordered)``, so that a bad file or order is
exit code 1 even past a bound.  The ideal is read there alone, by
``monomials.read_ideal``: the file is read on every request, and its
text is parsed only when it differs from the text the process parsed
last, so the requests on one file share one ideal object, and with it
the per-ideal tables, while a dropped generator is warned about on
every request.  It puts the ``ideal`` and ``order``
fields and lines in front of the handler's own.  Every command but
``complex`` refuses more than ``covers.MAX_ENUMERATION_GENERATORS``
generators (edges, for ``graph --check-props``); no option lifts it.
Below it, the order searches (``search``, ``analyze --search``, ``graph
--check-props``) refuse more than ``--max-exhaustive`` generators, an
option of the command line only: the library's searches have no such
bound.  ``complex`` reaches the library's one bound, that of the subset
tables (``subsets.MAX_TABLE_GENERATORS``).

``--field`` (``q`` or ``p:<prime>``) picks the field of the homology
ranks, and only the commands that take ranks have it: ``analyze`` and
``oracle-betti``.  ``verify`` takes none: it reads each multidegree's
verdict off the cone of faces that every order gives (``oracle``).
"""

from __future__ import annotations

import os
import sys
import warnings
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .cmdline import _Usage, read_argv
from .complexes import classification_census, order_analysis
from .covers import (MAX_ENUMERATION_GENERATORS, _by_size_then_members,
                     _listing_rows, cover_table)
from .generators import _radical_generators
from .graphs import check_graph_propositions, edge_ideal, read_graph
from .invariants import analyze, is_minimal_resolution, search_scan
from .jsontext import (_betti_fields, _covers_fragments, _lists_fragment,
                       _members_texts, _multidegrees_fragment, _write_json)
from .monomials import (BoundExceededError, ExponentLimitError,
                        MonomialIdeal, ParseError, monomial_text, read_ideal)
from .oracle import (_lcm_classes, _verify_rows, taylor_betti,
                     verify_chain_complex)
from .orders import identity_order, parse_order
from .subsets import MAX_TABLE_GENERATORS, indices_of

def _check_size(mu: int, max_exhaustive: int | None = None) -> None:
    """Refuse more than ``MAX_ENUMERATION_GENERATORS`` generators and,
    for an order search, more than ``max_exhaustive``."""
    if mu > MAX_ENUMERATION_GENERATORS:
        raise BoundExceededError(
            f"{mu} generators exceed the command line's bound mu <= "
            f"{MAX_ENUMERATION_GENERATORS}; no option lifts it (the library "
            f"functions reach mu <= {MAX_TABLE_GENERATORS})")
    if max_exhaustive is not None and mu > max_exhaustive:
        raise BoundExceededError(
            f"an order search over {mu} generators exceeds "
            f"--max-exhaustive {max_exhaustive}; raise --max-exhaustive")


def _ideal_payload(ideal: MonomialIdeal) -> dict:
    return {"variables": list(ideal.context.names),
            "generators": [str(m) for m in ideal.gens]}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its payload fields and a zero-argument
# callable that builds its text lines as an iterable of blocks (lists of
# lines), called only for --format text; an ideal command's takes
# (args, ideal, ordered), ordered None without --order


def _cmd_covers(args, ideal, ordered):
    rows = _listing_rows(ideal)
    clutter = _by_size_then_members(
        np.array(cover_table(ideal).clutter, np.int64), ideal.mu).tolist()
    # the members text of each clutter edge, "1,5,6", read by both formats
    edges = {m: ",".join(map(str, indices_of(m))) for m in clutter}
    payload = {}
    if args.format == "json":
        payload["clutter"] = _lists_fragment(clutter, edges)
        # each generator's block is rendered as the writer reaches it
        payload["covers"] = _covers_fragments(rows, ideal.mu)

    def text():
        # a block is one join of the text before each cover's members
        # and, gathered with u's masks and flags, each one's members
        # text and the text after it, as the JSON blocks are built
        members = np.array(_members_texts(ideal.mu, ","), dtype=object)
        after = np.array(["}", "}  E-minimal"], dtype=object)
        for u in range(1, ideal.mu + 1):
            masks, eminimal, _ = rows(u)
            parts = np.empty(3 * len(masks) + 1, dtype=object)
            parts[0] = f"covers of generator {u} ({len(masks)}):"
            parts[1::3] = "\n  {"
            parts[2::3] = members[masks]
            # a bool index would select, not gather
            parts[3::3] = after[eminimal.view(np.uint8)]
            yield ["".join(parts.tolist())]
        yield ["clutter edges: " +
               (", ".join("{" + edges[m] + "}" for m in clutter) or "(none)")]
    return payload, text


def _cmd_complex(args, ideal, ordered):
    analysis = order_analysis(ordered)
    # the members text of every face, "1,5,6", and a key whose order is
    # the members' lexicographic order; the faces are closed under
    # subsets and ascend, so a face's text extends that of the face
    # without its largest member, met before it
    members, keys = {0: ""}, {0: ""}
    for m in analysis.faces[1:]:
        top = m.bit_length()
        rest = m ^ 1 << (top - 1)
        members[m] = f"{members[rest]},{top}" if rest else str(top)
        keys[m] = keys[rest] + chr(top)
    facets = sorted(analysis.facets, key=keys.__getitem__)
    census = {str(size): {cls.value: count for cls, count in row.items()}
              for size, row in classification_census(ordered).items()}
    payload = {"dim": analysis.dim, "f_vector": list(analysis.f_vector),
               "census": census}
    if args.format == "json":
        # rendered for JSON output only: the text lines list the facets
        payload["faces"] = _lists_fragment(
            sorted(analysis.faces, key=keys.__getitem__), members)
        payload["facets"] = _lists_fragment(facets, members)

    def text() -> list[list[str]]:
        lines = [f"dim: {analysis.dim}",
                 "f-vector: (" + ", ".join(map(str, analysis.f_vector)) + ")",
                 "facets: " + ", ".join("{" + members[f] + "}"
                                        for f in facets)]
        for size in sorted(census, key=int):
            row = census[size]
            cells = ", ".join(f"{name}={count}" for name, count in
                              sorted(row.items()) if count)
            lines.append(f"size {size}: {cells or '(empty)'}")
        return [lines]
    return payload, text


def _cmd_analyze(args, ideal, ordered):
    search = args.search is not None
    report = analyze(ordered, search=search, prime=args.field)
    # the preserved-set rows are written without the lattice's classes
    betti = report.betti and _betti_fields(
        report.betti, partial(monomial_text, ideal.context.names))
    payload = {"minimal": report.minimal, "obsL": report.obstruction,
               "l_length": report.l_length, "ps": report.ps,
               "betti": betti,
               "height": report.height,
               "ara": {"lower": report.ara.lower, "upper": report.ara.upper,
                       "equality": report.ara.equality}}
    if search:
        payload["lyubeznik"] = report.lyubeznik
        payload["almost_lyubeznik"] = report.almost_lyubeznik
        payload["totally_lyubeznik"] = report.totally_lyubeznik

    def text() -> list[list[str]]:
        lines = [f"minimal resolution: {'yes' if report.minimal else 'no'}",
                 f"obstruction: {report.obstruction}",
                 f"resolution length: {report.l_length}",
                 f"preserved size: {report.ps}",
                 f"height: {report.height}",
                 f"ara bounds: [{report.ara.lower}, {report.ara.upper}]"
                 + (" (exact)" if report.ara.equality else "")]
        if report.betti is not None:
            rows = ", ".join(f"b[{i},{j}]={c}" for i, j, c
                             in report.betti.graded_rows())
            lines.append(f"betti (graded, quotient): {rows}")
        else:
            lines.append("betti: not available from preserved sets "
                         "(resolution not minimal); see oracle-betti")
        if search:
            lines.append(f"lyubeznik: {_verdict_text(report.lyubeznik)}")
            lines.append(f"almost lyubeznik: {_verdict_text(report.almost_lyubeznik)}")
            lines.append(f"totally lyubeznik: {_verdict_text(report.totally_lyubeznik)}")
        return [lines]
    return payload, text


def _verdict_text(value: bool) -> str:
    return "yes" if value else "no"


def _cmd_search(args, ideal, ordered):
    scan = search_scan(ideal)
    count = scan.minimal_count
    payload = {"mode": args.search,
               "exact": scan.exact, "scanned": scan.scanned,
               "tobsL": scan.tobsl, "L": scan.min_l, "ps_min": scan.min_l,
               "lyubeznik": scan.lyubeznik, "witness": list(scan.tobsl_witness),
               "minimal_orders": count}

    def text() -> list[list[str]]:
        return [[f"mode: {args.search} (exact, {scan.scanned} orders)",
                 f"total obstruction: {scan.tobsl}",
                 f"min resolution length: {scan.min_l}",
                 f"min preserved size: {scan.min_l}",
                 f"lyubeznik: {_verdict_text(scan.lyubeznik)}",
                 "witness order: (" + ",".join(map(str, scan.tobsl_witness))
                 + ")",
                 f"minimal orders: {count}/{scan.scanned}"]]
    return payload, text


def _cmd_oracle_betti(args, ideal, ordered):
    table = taylor_betti(ideal, prime=args.field)
    # every multidegree is a lattice point (or 1), written once per ideal
    mono = _lcm_classes(ideal).texts.__getitem__
    payload = {**_betti_fields(table, mono),
               "projdim": table.projective_dimension}

    def text() -> list[list[str]]:
        lines = [f"subject: {table.subject}"]
        lines += [f"b[{i},{j}] = {c}" for i, j, c in table.graded_rows()]
        lines += [f"b[{i}, {mono(exps)}] = {c}" for i, exps, c in table.entries]
        lines.append(f"projective dimension: {table.projective_dimension}")
        return [lines]
    return payload, text


def _cmd_verify(args, ideal, ordered):
    rows, verdicts = _verify_rows(ordered)
    chain_ok = verify_chain_complex(ordered)
    resolves = chain_ok and bool(verdicts.all())
    # every multidegree is a lattice point, written once per ideal
    mono = _lcm_classes(ideal).texts.__getitem__
    payload = {"chain_complex": chain_ok,
               "multidegrees": _multidegrees_fragment(rows, mono),
               "resolves": resolves}

    def text() -> list[list[str]]:
        lines = [f"differential composes to zero: {_verdict_text(chain_ok)}"]
        bad = [mono(exps) for exps, ok in rows if not ok]
        lines.append(f"multidegrees checked: {len(rows)}, failing: {len(bad)}")
        if bad:
            lines.append("homology persists at: " + ", ".join(bad))
        lines.append(f"resolves the quotient: {'yes' if resolves else 'no'}")
        return [lines]
    return payload, text


def _cmd_radical_gens(args, ideal, ordered):
    minimal = is_minimal_resolution(ordered)
    gens = _radical_generators(ordered, minimal)
    payload = {"minimal": minimal, "generators": [str(g) for g in gens]}

    def text() -> list[list[str]]:
        return [[f"g{k} = {g}" for k, g in enumerate(gens, 1)]]
    return payload, text


def _cmd_graph(args):
    graph = read_graph(args.path)
    if not (args.edge_ideal or args.check_props):
        raise ValueError("nothing to do: pass --edge-ideal and/or --check-props")
    payload: dict = {"vertices": list(graph.vertices),
                     "edges": [list(e) for e in graph.edges]}
    ideal = checks = None
    if args.edge_ideal:
        ideal = edge_ideal(graph)
        payload["edge_ideal"] = _ideal_payload(ideal)
    if args.check_props:
        _check_size(graph.edge_count, args.max_exhaustive)
        checks = check_graph_propositions(graph)
        payload["propositions"] = [
            {"name": c.name, "hypothesis": c.hypothesis,
             "conclusion": c.conclusion, "finding": c.finding}
            for c in checks]

    def text() -> list[list[str]]:
        lines: list[str] = []
        if ideal is not None:
            lines.append("vars " + " ".join(ideal.context.names))
            lines += [f"gen {m}" for m in ideal.gens]
        for c in checks or ():
            mark = "  << FINDING: hypothesis holds, conclusion fails" \
                if c.finding else ""
            lines.append(f"{c.name}: hypothesis={'yes' if c.hypothesis else 'no'}"
                         f" conclusion={'yes' if c.conclusion else 'no'}{mark}")
        return [lines]
    return payload, text


# ---------------------------------------------------------------------------


def _request(args):
    """The payload and text callable of the request's handler,
    ``_cmd_<command>``, looked up by name as the request runs.

    ``graph`` reads a graph, and its handler takes the request alone.
    For the others: read the ideal, parse ``--order`` where the command
    has one, make the command line's refusal (``complex`` makes none
    here), run the handler, and head its fields and lines.
    """
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    if args.command == "graph":
        return handler(args)
    ideal = read_ideal(args.path)
    ordered = None
    if hasattr(args, "order"):
        ordered = (identity_order(ideal) if args.order is None
                   else parse_order(args.order, ideal))
    if args.command != "complex":
        searches = getattr(args, "search", None) is not None
        _check_size(ideal.mu, args.max_exhaustive if searches else None)
    fields, text = handler(args, ideal, ordered)
    payload = {"ideal": _ideal_payload(ideal)}
    if ordered is not None:
        payload["order"] = list(ordered.order)
    payload.update(fields)

    def lines():
        head = [f"ideal: {ideal}"]
        if ordered is not None:
            head.append(f"order: {ordered}")
        yield head
        yield from text()
    return payload, lines


def _show_warning(message, category, filename, lineno, file=None,
                  line=None) -> None:
    """``warnings.showwarning`` for the CLI: one line, no source line."""
    print(f"lyubeznik: warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = read_argv(sys.argv[1:] if argv is None else argv)
    except _Usage as usage:
        if usage.code:
            sys.stderr.write(usage.text)
            return usage.code
        return _write_out(lambda write: write(usage.text))
    try:
        return _run(args)
    except KeyboardInterrupt:
        print("lyubeznik: interrupted", file=sys.stderr)
        return 130
    except MemoryError:
        print("lyubeznik: error: out of memory", file=sys.stderr)
        return 3


def _run(args) -> int:
    """Run the request, write its output as it is made, return the exit
    code."""
    try:
        # entering the block also resets the warnings already shown, so
        # a repeated call in one process warns again
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            payload, text = _request(args)
    except BoundExceededError as exc:
        print(f"lyubeznik: refused: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"lyubeznik: parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, ExponentLimitError) as exc:
        print(f"lyubeznik: error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        def emit(write):
            _write_json({"schema": 1, "command": args.command, **payload},
                        write)
            write("\n")
    else:
        def emit(write):
            # "\n".join(lines) + "\n", one block at a time: no block is empty
            for block in text():
                write("\n".join(block) + "\n")
    return _write_out(emit)


def _write_out(emit: Callable[[Callable[[str], object]], None]) -> int:
    """Call ``emit`` with stdout's ``write``, flush, and return 0; 1 if
    stdout cannot take the output."""
    stdout = sys.stdout
    try:
        emit(stdout.write)
        stdout.flush()
    except OSError as exc:
        # a closed pipe (``... | head``) means the reader went away and
        # is not reported; any other failure (a full disk) is
        if not isinstance(exc, BrokenPipeError):
            print("lyubeznik: error: cannot write output: "
                  f"{exc.strerror or exc}", file=sys.stderr)
        # send what is still buffered to devnull, so that the flush at
        # exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
