"""Command-line interface.

One subcommand per task, all reading the ideal (or graph) file format.
JSON output is deterministic: top-level ``"schema": 1``, sorted keys,
and no content that depends on hashing or scheduling.  It comes from
this module's own writer, ``_json_text``, whose bytes are identical to
``json.dumps(payload, sort_keys=True, indent=2)``; with an indent,
``json.dumps`` runs CPython's pure-Python encoder, which took about
two thirds of a ``covers`` call on a 12-generator ideal.  Exit codes:
0 success, 1 bad input, 2 a size threshold refused the computation.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .betti import BettiTable
from .complexes import classification_census, lyubeznik_complex
from .covers import cover_clutter, cover_listing, cover_table
from .generators import _radical_generators
from .graphs import check_graph_propositions, edge_ideal, read_graph
from .invariants import analyze, is_minimal_resolution, search_scan
from .linalg import check_prime
from .monomials import BoundExceededError, MonomialIdeal, ParseError, read_ideal
from .oracle import (taylor_betti, verify_chain_complex,
                     verify_resolution_report)
from .orders import (DEFAULT_MAX_EXHAUSTIVE, OrderedIdeal, identity_order,
                     parse_order)
from .subsets import indices_of, tables_for


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2; here that means a refused bound,
    so usage errors are remapped to the generic input-error code."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1; argparse names
    the offending flag in the error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _field(text: str) -> int | None:
    """argparse type for --field: None for Q, else the prime p of GF(p).

    The prime is checked here, once, so a bad value is refused before
    any work and whether or not a rank is ever taken."""
    if text == "q":
        return None
    try:
        if not text.startswith("p:"):
            raise ValueError
        prime = int(text[2:])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad field spec {text!r}; expected 'q' or 'p:<prime>'") from None
    try:
        check_prime(prime)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return prime


def _ordered(args, ideal: MonomialIdeal) -> OrderedIdeal:
    if args.order is not None:
        return parse_order(args.order, ideal)
    return identity_order(ideal)


def _ideal_payload(ideal: MonomialIdeal) -> dict:
    return {"variables": list(ideal.context.names),
            "generators": [str(m) for m in ideal.gens]}


def _betti_payload(table: BettiTable) -> dict:
    return {"subject": table.subject,
            "graded": [list(row) for row in table.graded_rows()],
            "multigraded": [list(row) for row in table.multigraded_rows()]}


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)``, byte for byte.

    With an indent, CPython encodes in pure Python.  This writer appends
    parts to one list and joins it once; a list or tuple of ints is one
    join, and the text of an int tuple met again at the same depth is
    reused.  Only dicts with str keys, lists, tuples, str, int, bool and
    None are written; any other type raises ``TypeError``, so the output
    can never silently differ from ``json.dumps``.
    """
    parts: list[str] = []
    append = parts.append
    # keyed by id, not value: (1, True) == (1, 1), but their texts differ;
    # the payload keeps every tuple alive, so no id is reused meanwhile
    seen: dict[tuple[int, int], str] = {}

    def ints(value, depth: int) -> str | None:
        """The text of a list or tuple of ints; None if it holds others."""
        key = (depth, id(value)) if type(value) is tuple else None
        text = seen.get(key)
        if text is None:
            if not all(type(v) is int for v in value):
                return None
            inner = "\n" + "  " * (depth + 1)
            text = ("[" + inner + ("," + inner).join(map(int.__repr__, value))
                    + "\n" + "  " * depth + "]")
            if key is not None:
                seen[key] = text
        return text

    def write(value, depth: int) -> None:
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
        elif isinstance(value, (list, tuple)):
            text = ints(value, depth) if value else "[]"
            if text is not None:
                append(text)
            else:
                inner = "\n" + "  " * (depth + 1)
                sep = "[" + inner
                for item in value:
                    append(sep)
                    write(item, depth + 1)
                    sep = "," + inner
                append("\n" + "  " * depth + "]")
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            inner = "\n" + "  " * (depth + 1)
            sep = "{" + inner
            for key in sorted(value):
                # raises TypeError on a key that is not a str
                append(sep + encode_basestring_ascii(key) + ": ")
                write(value[key], depth + 1)
                sep = "," + inner
            append("\n" + "  " * depth + "}")
        else:
            raise TypeError(f"cannot write {type(value).__name__} as JSON")

    write(payload, 0)
    return "".join(parts)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the payload and a zero-argument
# callable that builds the text lines, called only for --format text


def _cmd_covers(args):
    ideal = read_ideal(args.path)
    ordered = _ordered(args, ideal)
    eminimal = cover_table(ideal).by_generator
    listing = cover_listing(ideal)
    covered = tables_for(ideal).covered_mask
    # each mask's (members, covered) tuples are made once and shared by
    # every generator the mask covers
    tuples = {m: (indices_of(m), indices_of(covered[m]))
              for m in set().union(*listing)}
    per_gen = []
    for u, masks in enumerate(listing, 1):
        flagged = set(eminimal[u - 1])
        entries = [{"members": tuples[m][0], "covered": tuples[m][1],
                    "eminimal": m in flagged} for m in masks]
        per_gen.append({"generator": u, "covers": entries})
    clutter = [list(edge) for edge in cover_clutter(ordered).canonical_edges()]
    payload = {"ideal": _ideal_payload(ideal), "order": list(ordered.order),
               "covers": per_gen, "clutter": clutter}

    def text() -> list[str]:
        lines = [f"ideal: {ideal}", f"order: {ordered}"]
        for block in per_gen:
            u = block["generator"]
            lines.append(f"covers of generator {u} ({len(block['covers'])}):")
            for entry in block["covers"]:
                tag = "  E-minimal" if entry["eminimal"] else ""
                lines.append("  {" + ",".join(map(str, entry["members"])) + "}" + tag)
        lines.append("clutter edges: " +
                     (", ".join("{" + ",".join(map(str, e)) + "}" for e in clutter)
                      or "(none)"))
        return lines
    return payload, text


def _cmd_complex(args):
    ideal = read_ideal(args.path)
    ordered = _ordered(args, ideal)
    complex_ = lyubeznik_complex(ordered)
    faces = sorted(sorted(f) for f in complex_.faces)
    facets = sorted(sorted(f) for f in complex_.facets)
    census = {str(size): {cls.value: count for cls, count in row.items()}
              for size, row in classification_census(ordered).items()}
    payload = {"ideal": _ideal_payload(ideal), "order": list(ordered.order),
               "dim": complex_.dim, "f_vector": list(complex_.f_vector),
               "faces": faces, "facets": facets, "census": census}

    def text() -> list[str]:
        lines = [f"ideal: {ideal}", f"order: {ordered}",
                 f"dim: {complex_.dim}",
                 "f-vector: (" + ", ".join(map(str, complex_.f_vector)) + ")",
                 "facets: " + ", ".join("{" + ",".join(map(str, f)) + "}"
                                        for f in facets)]
        for size in sorted(census, key=int):
            row = census[size]
            cells = ", ".join(f"{name}={count}" for name, count in
                              sorted(row.items()) if count)
            lines.append(f"size {size}: {cells or '(empty)'}")
        return lines
    return payload, text


def _cmd_analyze(args):
    ideal = read_ideal(args.path)
    ordered = _ordered(args, ideal)
    report = analyze(ordered, search_mode=args.search,
                     max_exhaustive=args.max_exhaustive, jobs=args.jobs,
                     prime=args.field)
    payload = {"ideal": _ideal_payload(ideal), "order": list(report.order),
               "minimal": report.minimal, "obsL": report.obstruction,
               "l_length": report.l_length, "ps": report.ps,
               "betti": _betti_payload(report.betti) if report.betti else None,
               "height": report.height,
               "ara": {"lower": report.ara.lower, "upper": report.ara.upper,
                       "equality": report.ara.equality}}
    if args.search is not None:
        payload["lyubeznik"] = report.lyubeznik
        payload["almost_lyubeznik"] = report.almost_lyubeznik
        payload["totally_lyubeznik"] = report.totally_lyubeznik

    def text() -> list[str]:
        lines = [f"ideal: {ideal}", f"order: {ordered}",
                 f"minimal resolution: {'yes' if report.minimal else 'no'}",
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
        if args.search is not None:
            lines.append(f"lyubeznik: {_verdict_text(report.lyubeznik)}")
            lines.append(f"almost lyubeznik: {_verdict_text(report.almost_lyubeznik)}")
            lines.append(f"totally lyubeznik: {_verdict_text(report.totally_lyubeznik)}")
        return lines
    return payload, text


def _verdict_text(value: bool | None) -> str:
    if value is None:
        return "undetermined"
    return "yes" if value else "no"


def _cmd_search(args):
    ideal = read_ideal(args.path)
    scan = search_scan(ideal, args.search, max_exhaustive=args.max_exhaustive,
                       jobs=args.jobs)
    payload = {"ideal": _ideal_payload(ideal), "mode": scan.mode,
               "exact": scan.exact, "scanned": scan.scanned,
               "tobsL": scan.tobsl, "L": scan.min_l, "ps_min": scan.min_l,
               "lyubeznik": scan.lyubeznik, "witness": list(scan.tobsl_witness),
               "minimal_orders": scan.minimal_count}

    def text() -> list[str]:
        lines = [f"ideal: {ideal}",
                 f"mode: {scan.mode} ({'exact' if scan.exact else 'heuristic'}, "
                 f"{scan.scanned} orders)",
                 f"total obstruction: {scan.tobsl}",
                 f"min resolution length: {scan.min_l}",
                 f"min preserved size: {scan.min_l}",
                 f"lyubeznik: {_verdict_text(scan.lyubeznik)}",
                 "witness order: (" + ",".join(map(str, scan.tobsl_witness)) + ")",
                 f"minimal orders: {scan.minimal_count}/{scan.scanned}"]
        return lines
    return payload, text


def _cmd_oracle_betti(args):
    ideal = read_ideal(args.path)
    table = taylor_betti(ideal, prime=args.field)
    payload = {"ideal": _ideal_payload(ideal), **_betti_payload(table),
               "projdim": table.projective_dimension}

    def text() -> list[str]:
        lines = [f"ideal: {ideal}", f"subject: {table.subject}"]
        lines += [f"b[{i},{j}] = {c}" for i, j, c in table.graded_rows()]
        lines += [f"b[{i}, {mono}] = {c}" for i, mono, c in table.multigraded_rows()]
        lines.append(f"projective dimension: {table.projective_dimension}")
        return lines
    return payload, text


def _cmd_verify(args):
    ideal = read_ideal(args.path)
    ordered = _ordered(args, ideal)
    # the report raises the oracle's generator bound, so it runs first:
    # an ideal above the bound is refused before the d^2 = 0 check
    report = verify_resolution_report(ordered, prime=args.field)
    chain_ok = verify_chain_complex(ordered)
    resolves = chain_ok and all(ok for _, ok in report)
    payload = {"ideal": _ideal_payload(ideal), "order": list(ordered.order),
               "chain_complex": chain_ok,
               "multidegrees": [[str(m), ok] for m, ok in report],
               "resolves": resolves}

    def text() -> list[str]:
        lines = [f"ideal: {ideal}", f"order: {ordered}",
                 f"differential composes to zero: {'yes' if chain_ok else 'no'}"]
        bad = [str(m) for m, ok in report if not ok]
        lines.append(f"multidegrees checked: {len(report)}, failing: {len(bad)}")
        if bad:
            lines.append("homology persists at: " + ", ".join(bad))
        lines.append(f"resolves the quotient: {'yes' if resolves else 'no'}")
        return lines
    return payload, text


def _cmd_radical_gens(args):
    ideal = read_ideal(args.path)
    ordered = _ordered(args, ideal)
    minimal = is_minimal_resolution(ordered)
    gens = _radical_generators(ordered, minimal)
    payload = {"ideal": _ideal_payload(ideal), "order": list(ordered.order),
               "minimal": minimal,
               "generators": [str(g) for g in gens]}

    def text() -> list[str]:
        lines = [f"ideal: {ideal}", f"order: {ordered}"]
        lines += [f"g{k} = {g}" for k, g in enumerate(gens, 1)]
        return lines
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
        checks = check_graph_propositions(graph,
                                          max_exhaustive=args.max_exhaustive,
                                          jobs=args.jobs)
        payload["propositions"] = [
            {"name": c.name, "hypothesis": c.hypothesis,
             "conclusion": c.conclusion, "finding": c.finding}
            for c in checks]

    def text() -> list[str]:
        lines: list[str] = []
        if ideal is not None:
            lines.append("vars " + " ".join(ideal.context.names))
            lines += [f"gen {m}" for m in ideal.gens]
        for c in checks or ():
            mark = "  << FINDING: hypothesis holds, conclusion fails" \
                if c.finding else ""
            lines.append(f"{c.name}: hypothesis={'yes' if c.hypothesis else 'no'}"
                         f" conclusion={'yes' if c.conclusion else 'no'}{mark}")
        return lines
    return payload, text


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lyubeznik",
                     description="Covers, preserved sets, and minimality of "
                                 "Lyubeznik resolutions of monomial ideals.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_: str, *, order=False, search=False,
            field=False, graph=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("path", help="graph file" if graph else "ideal file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if order:
            p.add_argument("--order", metavar="i1,i2,...",
                           help="generator order override (1-based indices)")
        if search:
            p.add_argument("--search", choices=("exhaustive", "courts-first"),
                           default=None if name == "analyze" else "exhaustive",
                           help="order search mode")
            p.add_argument("--max-exhaustive", type=_positive_int,
                           default=DEFAULT_MAX_EXHAUSTIVE, metavar="MU",
                           help="largest generator count searched exhaustively")
            p.add_argument("--jobs", type=_positive_int, default=1,
                           help="parallel worker processes")
        if field:
            p.add_argument("--field", type=_field, default="q",
                           metavar="q|p:<prime>",
                           help="coefficient field for homology ranks")
        p.set_defaults(handler=handler)
        return p

    add("covers", _cmd_covers, "covers and the E-minimal cover clutter",
        order=True)
    add("complex", _cmd_complex, "faces, facets, and the subset census",
        order=True)
    add("analyze", _cmd_analyze, "per-order invariant report",
        order=True, search=True, field=True)
    add("search", _cmd_search, "scan orders for obstruction and length minima",
        search=True)
    add("oracle-betti", _cmd_oracle_betti,
        "Betti numbers from Taylor-strand homology", field=True)
    add("verify", _cmd_verify, "check the resolution homologically",
        order=True, field=True)
    add("radical-gens", _cmd_radical_gens,
        "polynomials generating the ideal up to radical", order=True)
    graph_p = add("graph", _cmd_graph, "edge-ideal tools for simple graphs",
                  graph=True)
    graph_p.add_argument("--edge-ideal", action="store_true",
                         help="emit the edge ideal in ideal-file syntax")
    graph_p.add_argument("--check-props", action="store_true",
                         help="evaluate the graph-family statements")
    graph_p.add_argument("--max-exhaustive", type=_positive_int,
                         default=DEFAULT_MAX_EXHAUSTIVE, metavar="MU")
    graph_p.add_argument("--jobs", type=_positive_int, default=1)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors and --help; report the code
        # instead so callers of main() always get a plain int back
        return exc.code if isinstance(exc.code, int) else 1
    try:
        payload, text = args.handler(args)
    except BoundExceededError as exc:
        print(f"lyubeznik: refused: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"lyubeznik: parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"lyubeznik: error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        out = _json_text({"schema": 1, "command": args.command, **payload})
    else:
        out = "\n".join(text())
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``... | head``): send what is still
        # buffered to devnull, so that the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
