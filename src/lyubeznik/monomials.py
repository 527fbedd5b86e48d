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

A ``gen`` line is split into tokens by one pass of a regular
expression, and a generating set is tested for divisibility with one
numpy matrix over its exponent rows, which holds every pair.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
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
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names!r}")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """0-based position of ``name``; raises ValueError if unknown."""
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    def one(self) -> "Monomial":
        return Monomial(self, (0,) * len(self.names))

    def variable(self, name: str) -> "Monomial":
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return Monomial(self, tuple(exps))

    def parse(self, text: str) -> "Monomial":
        """Parse a single monomial string, e.g. ``"x^2*y"``."""
        return _parse_monomial(text, self, line=None, offset=0)


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


def monomial_text(names: Sequence[str], exponents: Iterable[int]) -> str:
    """The text of the monomial with these exponents of these variables,
    ``x^2*y``, or ``1`` for the zero tuple; the exponents are taken as
    they are, unchecked, so that tuples read off the subset tables are
    written without building a ``Monomial``."""
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


def total_degree(m: Monomial) -> int:
    return m.degree


def support(m: Monomial) -> frozenset[int]:
    """0-based positions of the variables occurring in m."""
    return frozenset(i for i, e in enumerate(m.exponents) if e > 0)


def _divisibility(gens: Sequence[Monomial]) -> np.ndarray:
    """bool matrix over a generating set of one context: entry [i, j]
    tells whether gens[i] divides gens[j].  Exponents are at most
    ``EXPONENT_LIMIT``, so the int64 rows compare them exactly."""
    rows = np.array([m.exponents for m in gens], np.int64)
    return (rows[:, None, :] <= rows).all(axis=2)


def _redundant(gens: list[Monomial]) -> list[bool]:
    """Per position: is the generator divisible by an unequal or earlier one?"""
    if not gens:
        return []
    for m in gens:
        # mixed contexts raise, naming the first generator of another
        # context before the first generator's
        _same_context(m, gens[0])
    div = _divisibility(gens)
    earlier = np.triu(np.ones(div.shape, bool), 1)
    return (div & (~div.T | earlier)).any(axis=0).tolist()


def minimize_generators(gens: Sequence[Monomial]) -> tuple[Monomial, ...]:
    """Drop every generator divisible by another, keeping first occurrences.

    The relative listing order of the survivors is preserved.  This is
    the quiet primitive; ``parse_ideal`` and ``MonomialIdeal.from_generators``
    emit a ``MinimizationWarning`` when anything is dropped.
    """
    gens = list(gens)
    return tuple(m for m, r in zip(gens, _redundant(gens)) if not r)


def _minimized(gens: list[Monomial], lines: list[int] | None = None
               ) -> tuple[Monomial, ...]:
    """``minimize_generators``, warning with each dropped generator named
    by position: its text, and its line when ``lines`` are given."""
    redundant = _redundant(gens)
    dropped = [f"{gens[k]} (line {lines[k]})" if lines else str(gens[k])
               for k, r in enumerate(redundant) if r]
    if dropped:
        warnings.warn(
            f"generating set was not minimal; dropped {len(dropped)} "
            f"redundant generator(s): {', '.join(dropped)}",
            MinimizationWarning, stacklevel=3)
    return tuple(m for m, r in zip(gens, redundant) if not r)


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
        div = _divisibility(self.gens)
        np.fill_diagonal(div, False)
        if div.any():
            # the first pair in listing order, as a scan by rows finds it
            i, j = divmod(int(div.argmax()), len(self.gens))
            raise ValueError(
                f"generating set is not minimal: {self.gens[i]} divides "
                f"{self.gens[j]}; call minimize_generators or "
                "from_generators first")

    @classmethod
    def from_generators(cls, gens: Sequence[Monomial]) -> "MonomialIdeal":
        """Build an ideal, minimizing the generators (with a warning) if needed."""
        gens = list(gens)
        if not gens:
            raise ValueError("a monomial ideal needs at least one generator")
        kept = _minimized(gens)
        return cls(kept[0].context, kept)

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
    return MonomialIdeal(ideal.context, minimize_generators(parts))


# ---------------------------------------------------------------------------
# ideal file format
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> Iterator[tuple[str, int]]:
    """Yield (token, 1-based column) pairs, skipping whitespace."""
    for match in _TOKEN_RE.finditer(text):
        yield match.group(), match.start() + 1


def _parse_monomial(text: str, context: VariableContext,
                    line: int | None, offset: int) -> Monomial:
    exps = [0] * len(context)
    tokens = list(_tokenize(text))
    if not tokens:
        raise ParseError("expected a monomial", line, offset + 1)
    pos = 0
    expect_factor = True
    while pos < len(tokens):
        tok, col = tokens[pos]
        col += offset
        if not expect_factor:
            # between factors a '*' is optional
            if tok == "*":
                pos += 1
                expect_factor = True
                continue
            expect_factor = True
            continue
        if not _NAME_RE.match(tok):
            raise ParseError(f"expected a variable, got {tok!r}", line, col)
        try:
            var = context.index(tok)
        except ValueError:
            raise ParseError(f"unknown variable {tok!r}", line, col) from None
        exponent = 1
        pos += 1
        if pos < len(tokens) and tokens[pos][0] == "^":
            pos += 1
            if pos >= len(tokens):
                raise ParseError("expected an exponent after '^'", line,
                                 tokens[pos - 1][1] + offset)
            etok, ecol = tokens[pos]
            ecol += offset
            if etok.startswith("-"):
                raise ParseError(f"negative exponent {etok}", line, ecol)
            if not (etok.isascii() and etok.isdigit()):
                raise ParseError(f"expected an exponent, got {etok!r}", line, ecol)
            exponent = int(etok)
            pos += 1
        exps[var] += exponent
        if exps[var] > EXPONENT_LIMIT:
            raise ExponentLimitError(
                f"exponent of {tok!r} exceeds {EXPONENT_LIMIT}" +
                (f" (line {line})" if line is not None else ""))
        expect_factor = False
    if expect_factor:
        raise ParseError("dangling '*'", line, tokens[-1][1] + offset)
    return Monomial(context, tuple(exps))


def _directive_lines(text: str, directives: tuple[str, ...]
                     ) -> Iterator[tuple[int, str, int, str, int]]:
    """The directive lines of a file, shared by the ideal and graph formats.

    Blank lines and comment lines (first non-blank character ``#``) are
    skipped.  Every other line must start with one of ``directives``;
    yields (line number, directive, its 1-based column, the rest of the
    line, the rest's 0-based offset in the line).
    """
    for lineno, raw in enumerate(text.splitlines(), 1):
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
    """
    context: VariableContext | None = None
    gens: list[Monomial] = []
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
            mono = _parse_monomial(rest, context, lineno, offset)
            if mono.is_one():
                raise ParseError("generator equals 1", lineno, column)
            gens.append(mono)
            lines.append(lineno)
    if context is None:
        raise ParseError("missing vars line")
    if not gens:
        raise ParseError("no generators")
    return MonomialIdeal(context, _minimized(gens, lines))


def read_ideal(path) -> MonomialIdeal:
    """parse_ideal on the contents of a file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_ideal(handle.read())
