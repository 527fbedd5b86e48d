"""Graded and multigraded Betti tables.

A table records counts beta_{i,a} indexed by homological index i and
multidegree a (a monomial); the singly-graded table aggregates a to its
total degree and is always derived from the multigraded one, so the two
views cannot drift apart.  The ``subject`` tag says whether the entries
describe the ideal I or the quotient R/I; the two are related by the
index shift beta_{i+1}(R/I) = beta_i(I), which ``as_ideal`` and
``as_quotient`` implement structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .monomials import Monomial, VariableContext, monomial_text

QUOTIENT = "quotient"
IDEAL = "ideal"


@dataclass(frozen=True)
class BettiTable:
    subject: str
    context: VariableContext
    entries: tuple[tuple[int, tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        if self.subject not in (QUOTIENT, IDEAL):
            raise ValueError(f"subject must be {QUOTIENT!r} or {IDEAL!r}")
        if self._first_unordered() is not None:
            # sorted only when given out of order; a key that still does
            # not ascend then is a duplicate
            object.__setattr__(self, "entries", tuple(sorted(self.entries)))
            duplicate = self._first_unordered()
            if duplicate is not None:
                raise ValueError(f"duplicate entry for {duplicate}")
        if self.subject == QUOTIENT:
            # sorted, the entries at i = 0 come first, the zero tuple
            # first among them
            zero = (0,) * len(self.context)
            if not self.entries or self.entries[0] != (0, zero, 1) or (
                    len(self.entries) > 1 and self.entries[1][0] == 0):
                raise ValueError("a quotient table must have exactly beta_{0,0} = 1")

    def _first_unordered(self) -> tuple[int, tuple[int, ...]] | None:
        """Check every entry, and return the first key (i, multidegree)
        not above the key before it, or None when the keys ascend."""
        nvars = len(self.context)
        before = None
        unordered = None
        for i, exps, count in self.entries:
            if i < 0 or count <= 0:
                raise ValueError("entries need i >= 0 and positive counts")
            if len(exps) != nvars:
                raise ValueError("multidegree length does not match the context")
            key = (i, exps)
            if unordered is None and before is not None and key <= before:
                unordered = key
            before = key
        return unordered

    @classmethod
    def from_multigraded(cls, subject: str, context: VariableContext,
                         counts: Mapping[tuple[int, tuple[int, ...]], int]
                         ) -> "BettiTable":
        # the keys are distinct, so this one sort leaves them ascending
        entries = tuple(sorted((i, exps, c) for (i, exps), c in counts.items() if c))
        return cls(subject, context, entries)

    @cached_property
    def multigraded_raw(self) -> dict[tuple[int, tuple[int, ...]], int]:
        return {(i, exps): c for i, exps, c in self.entries}

    @cached_property
    def multigraded(self) -> dict[tuple[int, Monomial], int]:
        return {(i, Monomial(self.context, exps)): c for i, exps, c in self.entries}

    @cached_property
    def graded(self) -> dict[tuple[int, int], int]:
        """Aggregation of the multigraded table by total degree."""
        out: dict[tuple[int, int], int] = {}
        for i, exps, c in self.entries:
            key = (i, sum(exps))
            out[key] = out.get(key, 0) + c
        return out

    def betti(self, i: int, j: int | None = None) -> int:
        if j is None:
            return sum(c for (k, _), c in self.graded.items() if k == i)
        return self.graded.get((i, j), 0)

    @property
    def projective_dimension(self) -> int:
        return max(i for i, _, _ in self.entries)

    def as_ideal(self) -> "BettiTable":
        """Shift beta_{i+1}(R/I) = beta_i(I): drop the unit and reindex."""
        if self.subject == IDEAL:
            return self
        counts = {(i - 1, exps): c for i, exps, c in self.entries if i >= 1}
        return BettiTable.from_multigraded(IDEAL, self.context, counts)

    def as_quotient(self) -> "BettiTable":
        if self.subject == QUOTIENT:
            return self
        counts = {(i + 1, exps): c for i, exps, c in self.entries}
        counts[(0, (0,) * len(self.context))] = 1
        return BettiTable.from_multigraded(QUOTIENT, self.context, counts)

    def graded_rows(self) -> tuple[tuple[int, int, int], ...]:
        """(i, j, count) rows sorted numerically, for display."""
        return tuple(sorted((i, j, c) for (i, j), c in self.graded.items()))

    def multigraded_rows(self) -> tuple[tuple[int, str, int], ...]:
        """(i, multidegree string, count) rows in entry order."""
        names = self.context.names
        return tuple((i, monomial_text(names, exps), c)
                     for i, exps, c in self.entries)
