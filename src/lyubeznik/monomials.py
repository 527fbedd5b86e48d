"""Monomials and monomial ideals over a fixed polynomial ring.

A monomial lives in a ``VariableContext`` (an ordered tuple of variable
names) and is stored as its exponent vector.  Divisibility is the
componentwise order on exponent vectors and the lcm is the componentwise
maximum; everything downstream (covers, preserved sets, Betti numbers)
is built from those two primitives, so they are kept exact and dumb.

A ``MonomialIdeal`` is a *minimal* generating set in a fixed listing
order.  The listing order matters: generator indices are 1-based
throughout the package and the listing order doubles as the default
total order on generators.

The plain-text ideal format::

    # comment lines start with '#'
    vars x y z
    gen x^2*y
    gen y^2z        <- '*' is optional between single-letter factors

Each ``gen`` line is one monomial: identifiers with optional ``^e``
powers, joined by optional ``*``.  Identifier matching is greedy, so
with variables ``a`` and ``ab`` the string ``ab`` always means the
variable ``ab``; write ``a*b`` to multiply.  Exponents are written in
ASCII digits and must be non-negative, and repeated factors multiply
(``x*x`` is ``x^2``).

A canonical ``gen`` line, factors ``name`` or ``name^digits`` joined
by ``*``, is read by splitting it at its stars and carets; any other
line is split into tokens, with their columns, by one ``finditer``
pass of a regular expression, the single source of parse errors.
Names are looked up in a dict built once per context, and the
exponent rows are checked as they are read, so the generators are
built unchecked.  The distinct rows of a generating set are tested for
divisibility with one numpy matrix, which holds every pair, and the
ideal is built from the survivors without testing them again.  The
last text parsed is kept with its ideal and its warning text, so a
text parsed again (each request on one file) reads neither; the
warning is made again on every call.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Exponents are arbitrary-precision in principle, but anything near this
#: bound signals a bug in the caller, so we refuse instead of grinding on.
EXPONENT_LIMIT = 2**63 - 1

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
# exponents are ASCII digits: a superscript or a digit of another script
# is a token of its own, and so a parse error
_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\^|\*|-?[0-9]+|\S")
_DIRECTIVE_RE = re.compile(r"\s*([A-Za-z_]\w*)")


class ContextMismatchError(ValueError):
    """Monomials from different variable contexts were combined."""


class ExponentLimitError(OverflowError):
    """An exponent exceeded ``EXPONENT_LIMIT``."""


class BoundExceededError(RuntimeError):
    """A computation was refused because it exceeds a configured size bound.

    This is a refusal, not an input error; the command line maps it to
    exit code 2.  The message names the command-line flag that lifts
    the bound when there is one, and never a flag that does not exist.
    """


class ParseError(ValueError):
    """Syntax or semantic error in an ideal/graph file, with location."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None) -> None:
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + \
                (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class MinimizationWarning(UserWarning):
    """A generating set was not minimal; redundant generators were dropped."""


@dataclass(frozen=True)
class VariableContext:
    """An ordered, duplicate-free tuple of variable names."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.names, tuple):
            object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("a variable context needs at least one variable")
        # each name's position, read by ``index`` and the ideal reader
        positions = {name: i for i, name in enumerate(self.names)}
        if len(positions) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names!r}")
        if not all(map(_NAME_RE.match, self.names)):
            bad = next(n for n in self.names if not _NAME_RE.match(n))
            raise ValueError(f"invalid variable name {bad!r}")
        object.__setattr__(self, "_positions", positions)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """0-based position of ``name``; raises ValueError if unknown."""
        try:
            return self._positions[name]
        except (KeyError, TypeError):
            raise ValueError(f"unknown variable {name!r}") from None

    def one(self) -> "Monomial":
        return Monomial(self, (0,) * len(self.names))

    def variable(self, name: str) -> "Monomial":
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return Monomial(self, tuple(exps))


@dataclass(frozen=True)
class Monomial:
    """An exponent vector in a fixed variable context."""

    context: VariableContext
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.exponents, tuple):
            object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.exponents) != len(self.context):
            raise ValueError(
                f"exponent vector of length {len(self.exponents)} in a "
                f"context of {len(self.context)} variables")
        for e in self.exponents:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {e!r}")
            if e > EXPONENT_LIMIT:
                raise ExponentLimitError(f"exponent {e} exceeds {EXPONENT_LIMIT}")

    @classmethod
    def _unchecked(cls, context: VariableContext,
                   exponents: tuple[int, ...]) -> "Monomial":
        """The monomial of an exponent tuple that was checked before (an
        lcm of an ideal's generators), built without ``__post_init__``."""
        monomial = object.__new__(cls)
        object.__setattr__(monomial, "context", context)
        object.__setattr__(monomial, "exponents", exponents)
        return monomial

    def __mul__(self, other: "Monomial") -> "Monomial":
        _same_context(self, other)
        return Monomial(self.context,
                        tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __str__(self) -> str:
        return monomial_text(self.context.names, self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def is_one(self) -> bool:
        return not any(self.exponents)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def squarefree_part(self) -> "Monomial":
        return Monomial(self.context, tuple(min(e, 1) for e in self.exponents))


def monomial_text(names: Sequence[str], exponents: Sequence[int]) -> str:
    """The text of the monomial with these exponents of these variables,
    ``x^2*y``, or ``1`` for the zero tuple; the exponents are taken as
    they are, unchecked, so that tuples read off the subset tables are
    written without building a ``Monomial``.  Squarefree exponents, all
    0 or 1 (every lattice point of a squarefree ideal), select their
    names in one ``compress``."""
    if exponents.count(0) + exponents.count(1) == len(exponents):
        return "*".join(compress(names, exponents)) or "1"
    parts = [name if e == 1 else f"{name}^{e}"
             for name, e in zip(names, exponents) if e]
    return "*".join(parts) if parts else "1"


def _same_context(a: Monomial, b: Monomial) -> None:
    if a.context != b.context:
        raise ContextMismatchError(
            f"monomials from different contexts: {a.context.names} vs {b.context.names}")


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff a | b, i.e. the exponent vector of a is <= that of b."""
    _same_context(a, b)
    return all(x <= y for x, y in zip(a.exponents, b.exponents))


def lcm_of(monomials: Iterable[Monomial]) -> Monomial:
    """Componentwise max.  The lcm of an empty collection is undefined."""
    mons = list(monomials)
    if not mons:
        raise ValueError("lcm of an empty collection of monomials is undefined")
    first = mons[0]
    exps = list(first.exponents)
    for m in mons[1:]:
        _same_context(first, m)
        for i, e in enumerate(m.exponents):
            if e > exps[i]:
                exps[i] = e
    return Monomial(first.context, tuple(exps))


def _rows_of(gens: list[Monomial]) -> list[tuple[int, ...]]:
    """The exponent rows of generators of one context."""
    for m in gens:
        # mixed contexts raise, naming the first generator of another
        # context before the first generator's
        _same_context(m, gens[0])
    return [m.exponents for m in gens]


def _redundant(rows: list[tuple[int, ...]]) -> list[bool]:
    """Per exponent row: is it divisible by an unequal row, or equal to
    an earlier one?  Equal rows are told by a dict of first positions,
    so the one numpy matrix compares distinct rows only, where a row
    with a divisor other than itself is divisible by an unequal one."""
    first: dict[tuple[int, ...], int] = {}
    for k, row in enumerate(rows):
        first.setdefault(row, k)
    if len(first) > 1:
        # one column per distinct row, so that the matrix reduces over
        # its first axis, the variables
        columns = np.fromiter(chain.from_iterable(zip(*first)), np.int64,
                              len(first) * len(rows[0])).reshape(-1, len(first))
        # per distinct row, how many distinct rows divide it, itself too
        divisors = dict(zip(first, (columns[:, :, None] <= columns[:, None])
                            .all(axis=0).sum(axis=0).tolist()))
    else:
        divisors = dict.fromkeys(first, 1)
    return [first[row] != k or divisors[row] > 1
            for k, row in enumerate(rows)]


def minimize_generators(gens: Sequence[Monomial]) -> tuple[Monomial, ...]:
    """Drop every generator divisible by another, keeping first occurrences.

    The relative listing order of the survivors is preserved.  This is
    the quiet primitive; ``parse_ideal`` and ``MonomialIdeal.from_generators``
    emit a ``MinimizationWarning`` when anything is dropped.
    """
    gens = list(gens)
    return tuple(m for m, r in zip(gens, _redundant(_rows_of(gens))) if not r)


def _minimized(context: VariableContext, rows: list[tuple[int, ...]],
               lines: list[int] | None = None
               ) -> tuple[tuple[Monomial, ...], str | None]:
    """The monomials of the rows that ``minimize_generators`` keeps, and
    the ``MinimizationWarning`` text naming each dropped row by
    position (its text, and its line when ``lines`` are given), None
    when none is dropped; the caller warns.  The rows were checked
    before (read by the parser, or a ``Monomial``'s), so the survivors
    are built unchecked."""
    redundant = _redundant(rows)
    message = None
    if any(redundant):
        names = context.names
        dropped = [monomial_text(names, rows[k])
                   + (f" (line {lines[k]})" if lines else "")
                   for k, r in enumerate(redundant) if r]
        message = (f"generating set was not minimal; dropped {len(dropped)} "
                   f"redundant generator(s): {', '.join(dropped)}")
    return tuple(Monomial._unchecked(context, row)
                 for row, r in zip(rows, redundant) if not r), message


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal presented by its minimal generators, in listing order.

    Generator indices are 1-based everywhere in this package: ``gen(1)``
    is the first listed generator.  The constructor insists on a minimal
    generating set; use ``from_generators`` to minimize on the way in.
    """

    context: VariableContext
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.gens, tuple):
            object.__setattr__(self, "gens", tuple(self.gens))
        if not self.gens:
            raise ValueError("a monomial ideal needs at least one generator")
        for m in self.gens:
            if m.context != self.context:
                raise ContextMismatchError(
                    "generator context differs from the ideal's context")
            if m.is_one():
                raise ValueError("the unit monomial cannot be a minimal generator")
        if any(_redundant([m.exponents for m in self.gens])):
            # the first pair in listing order, as a scan by rows finds it
            a, b = next((a, b) for i, a in enumerate(self.gens)
                        for j, b in enumerate(self.gens)
                        if i != j and divides(a, b))
            raise ValueError(
                f"generating set is not minimal: {a} divides {b}; "
                "call minimize_generators or from_generators first")

    @classmethod
    def from_generators(cls, gens: Sequence[Monomial]) -> "MonomialIdeal":
        """Build an ideal, minimizing the generators (with a warning) if needed."""
        gens = list(gens)
        if not gens:
            raise ValueError("a monomial ideal needs at least one generator")
        context = gens[0].context
        kept, dropped = _minimized(context, _rows_of(gens))
        if dropped:
            warnings.warn(dropped, MinimizationWarning, stacklevel=2)
        # the unit divides every generator, so it survives only alone
        if kept[0].is_one():
            raise ValueError("the unit monomial cannot be a minimal generator")
        return cls._minimal(context, kept)

    @classmethod
    def _minimal(cls, context: VariableContext,
                 gens: tuple[Monomial, ...]) -> "MonomialIdeal":
        """The ideal of a minimal generating set of ``context`` without
        the unit, ``_minimized``'s survivors, built without the
        divisibility matrix of ``__post_init__``."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "context", context)
        object.__setattr__(ideal, "gens", gens)
        return ideal

    def __hash__(self) -> int:
        # the dataclass's hash, hash((context, gens)), kept once computed:
        # the one-entry caches keyed by an ideal hash it on every lookup
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash((self.context, self.gens))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # string hashes differ between processes: a copy hashes again
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    @property
    def mu(self) -> int:
        """Number of minimal generators."""
        return len(self.gens)

    def gen(self, i: int) -> Monomial:
        """The i-th generator, 1-based."""
        if not 1 <= i <= len(self.gens):
            raise IndexError(f"generator index {i} out of range 1..{len(self.gens)}")
        return self.gens[i - 1]

    def indices(self) -> range:
        return range(1, len(self.gens) + 1)

    def lcm(self, subset: Iterable[int]) -> Monomial:
        """lcm of the generators with the given 1-based indices."""
        return lcm_of(self.gen(i) for i in subset)

    def is_squarefree(self) -> bool:
        return all(m.is_squarefree() for m in self.gens)

    def __str__(self) -> str:
        return "(" + ", ".join(str(m) for m in self.gens) + ")"


def radical_ideal(ideal: MonomialIdeal) -> MonomialIdeal:
    """Generator-wise squarefree part, re-minimized (quietly)."""
    parts = [m.squarefree_part() for m in ideal.gens]
    return MonomialIdeal._minimal(ideal.context, minimize_generators(parts))


# ---------------------------------------------------------------------------
# ideal file format
# ---------------------------------------------------------------------------

def _read_monomial(text: str, context: VariableContext,
                   line: int, offset: int) -> tuple[int, ...]:
    """The exponent tuple of one monomial's text, checked: its names
    are the context's and its exponents ASCII digits, non-negative and
    at most ``EXPONENT_LIMIT``.

    A canonical text, factors ``name`` or ``name^digits`` joined by
    ``*`` with no blank inside, is read by splitting it; its tokens
    would be exactly its names, carets, digits and stars.  Any other
    text, every error among them, is read from its tokens
    (``_read_tokens``).
    """
    positions = context._positions
    exps = [0] * len(positions)
    for factor in text.strip().split("*"):
        name, caret, digits = factor.partition("^")
        var = positions.get(name)
        # fewer than 19 digits is below EXPONENT_LIMIT, and int() takes it
        if var is None or caret and not (
                digits.isdigit() and digits.isascii() and len(digits) < 19):
            break
        exps[var] += int(digits) if caret else 1
    else:
        if max(exps) <= EXPONENT_LIMIT:
            return tuple(exps)
    return _read_tokens(text, context, line, offset)


def _read_tokens(text: str, context: VariableContext,
                 line: int, offset: int) -> tuple[int, ...]:
    """``_read_monomial`` on any text: the tokens and their columns are
    read by one ``finditer`` pass, and the tokens walked as strings."""
    found = list(_TOKEN_RE.finditer(text))
    if not found:
        raise ParseError("expected a monomial", line, offset + 1)
    tokens = [match[0] for match in found]

    def column(k: int) -> int:
        return found[k].start() + offset + 1

    positions = context._positions
    exps = [0] * len(positions)
    end = len(tokens)
    k = 0
    while True:
        tok = tokens[k]
        var = positions.get(tok)
        if var is None:
            raise ParseError(
                f"unknown variable {tok!r}" if _NAME_RE.match(tok)
                else f"expected a variable, got {tok!r}",
                line, column(k))
        k += 1
        if k < end and tokens[k] == "^":
            k += 1
            if k == end:
                raise ParseError("expected an exponent after '^'", line,
                                 column(k - 1))
            etok = tokens[k]
            if not (etok.isascii() and etok.isdigit()):
                raise ParseError(
                    f"negative exponent {etok}" if etok.startswith("-")
                    else f"expected an exponent, got {etok!r}",
                    line, column(k))
            exps[var] += int(etok)
            k += 1
        else:
            exps[var] += 1
        if exps[var] > EXPONENT_LIMIT:
            raise ExponentLimitError(
                f"exponent of {tok!r} exceeds {EXPONENT_LIMIT} (line {line})")
        if k == end:
            return tuple(exps)
        # between factors a '*' is optional
        if tokens[k] == "*":
            k += 1
            if k == end:
                raise ParseError("dangling '*'", line, column(k - 1))


def _directive_lines(text: str, directives: tuple[str, ...]
                     ) -> Iterator[tuple[int, str, int, str, int]]:
    """The directive lines of a file, shared by the ideal and graph formats.

    Blank lines and comment lines (first non-blank character ``#``) are
    skipped.  Every other line must start with one of ``directives``;
    yields (line number, directive, its 1-based column, the rest of the
    line, the rest's 0-based offset in the line).
    """
    # lines end at \n, \r\n and \r only, as universal newlines end them:
    # str.splitlines would also end them at \v, \f, \x1c-\x1e, \x85,
    # U+2028 and U+2029, which inside a line read as blanks
    for lineno, raw in enumerate(
            text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        word = raw.partition(" ")[0]
        if word in directives:
            # the common shape: a directive at column 1, then a space or
            # the end of the line
            yield lineno, word, 1, raw[len(word):], len(word)
            continue
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        head = _DIRECTIVE_RE.match(raw)
        if head is None:
            raise ParseError(f"unexpected {stripped[0]!r}", lineno,
                             len(raw) - len(raw.lstrip()) + 1)
        word = head.group(1)
        column = head.start(1) + 1
        if word not in directives:
            raise ParseError(f"unknown directive {word!r}", lineno, column)
        yield lineno, word, column, raw[head.end(1):], head.end(1)


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the ideal file format.

    Comment lines (first non-blank character ``#``) and blank lines are
    skipped.  One ``vars`` line must precede all ``gen`` lines.  The
    generator listing order is kept: it defines the generator indices and
    the default total order.  A non-minimal generating set is minimized
    with a ``MinimizationWarning`` rather than rejected.

    The last text read is kept with its ideal, one entry, as
    ``tables_for`` keeps one ideal's tables: the same text again gives
    the same (immutable) ideal without reading it, and so the caches
    keyed by the ideal find it by identity.  The warning is made on
    every call, a repeated text's too, and a text that does not parse
    is read, and raises, on every call.
    """
    ideal, dropped = _parsed(text)
    if dropped:
        warnings.warn(dropped, MinimizationWarning, stacklevel=2)
    return ideal


@lru_cache(maxsize=1)
def _parsed(text: str) -> tuple[MonomialIdeal, str | None]:
    """``parse_ideal``'s ideal and its ``_minimized`` warning text."""
    context: VariableContext | None = None
    rows: list[tuple[int, ...]] = []
    lines: list[int] = []
    for lineno, word, column, rest, offset in _directive_lines(
            text, ("vars", "gen")):
        if word == "vars":
            if context is not None:
                raise ParseError("duplicate vars line", lineno, column)
            names = rest.split()
            if not names:
                raise ParseError("vars line lists no variables", lineno, column)
            try:
                context = VariableContext(tuple(names))
            except ValueError as exc:
                raise ParseError(str(exc), lineno, column) from None
        else:
            if context is None:
                raise ParseError("gen line before vars line", lineno, column)
            row = _read_monomial(rest, context, lineno, offset)
            if not any(row):
                raise ParseError("generator equals 1", lineno, column)
            rows.append(row)
            lines.append(lineno)
    if context is None:
        raise ParseError("missing vars line")
    if not rows:
        raise ParseError("no generators")
    gens, dropped = _minimized(context, rows, lines)
    return MonomialIdeal._minimal(context, gens), dropped


def _read_text(path) -> str:
    """A file's contents, decoded as UTF-8 with one leading byte-order
    mark dropped.

    The bytes are decoded whole, without a text layer: the directive
    reader breaks lines at ``\\r``, ``\\n`` and ``\\r\\n`` only, as
    universal newlines would.  The mark is dropped by hand, not by the
    ``utf-8-sig`` codec, whose module a request would import; a
    decoding error reads the same, the codec named ``'utf-8'`` and
    positions counted after the mark."""
    with open(path, "rb") as handle:
        return handle.read().removeprefix(b"\xef\xbb\xbf").decode("utf-8")


def read_ideal(path) -> MonomialIdeal:
    """``parse_ideal`` on the contents of a file (``_read_text``): the
    file is read on every call, and its text parsed unless it is the
    last text parsed; the warning of a non-minimal file is made on
    every call."""
    return parse_ideal(_read_text(path))
