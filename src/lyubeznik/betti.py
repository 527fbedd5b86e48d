"""Graded and multigraded Betti tables of R/I.

A table records counts beta_{i,a} of the quotient R/I, indexed by
homological index i and multidegree a (an exponent tuple), with
beta_{0,0} = 1 for the unit; the singly-graded table aggregates a to
its total degree and is always derived from the multigraded one, so the
two views cannot drift apart.  Every table the package builds is of the
quotient, so ``subject`` is a class constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Mapping

from .monomials import VariableContext

QUOTIENT = "quotient"


@dataclass(frozen=True)
class BettiTable:
    context: VariableContext
    entries: tuple[tuple[int, tuple[int, ...], int], ...]
    subject: ClassVar[str] = QUOTIENT

    def __post_init__(self) -> None:
        if self._first_unordered() is not None:
            # sorted only when given out of order; a key that still does
            # not ascend then is a duplicate
            object.__setattr__(self, "entries", tuple(sorted(self.entries)))
            duplicate = self._first_unordered()
            if duplicate is not None:
                raise ValueError(f"duplicate entry for {duplicate}")
        # sorted, the entries at i = 0 come first, the zero tuple first
        # among them
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
    def from_multigraded(cls, context: VariableContext,
                         counts: Mapping[tuple[int, tuple[int, ...]], int]
                         ) -> "BettiTable":
        # the keys are distinct, so this one sort leaves them ascending
        entries = tuple(sorted((i, exps, c) for (i, exps), c in counts.items() if c))
        return cls(context, entries)

    @cached_property
    def multigraded_raw(self) -> dict[tuple[int, tuple[int, ...]], int]:
        return {(i, exps): c for i, exps, c in self.entries}

    @cached_property
    def graded(self) -> dict[tuple[int, int], int]:
        """Aggregation of the multigraded table by total degree."""
        out: dict[tuple[int, int], int] = {}
        for i, exps, c in self.entries:
            key = (i, sum(exps))
            out[key] = out.get(key, 0) + c
        return out

    @property
    def projective_dimension(self) -> int:
        return max(i for i, _, _ in self.entries)

    def graded_rows(self) -> tuple[tuple[int, int, int], ...]:
        """(i, j, count) rows sorted numerically, for display."""
        return tuple(sorted((i, j, c) for (i, j), c in self.graded.items()))
