"""Polynomials generating the ideal up to radical, from complex faces.

When the resolution of length lambda is minimal, lambda polynomials
g_1, ..., g_lambda already generate the ideal up to radical.  Writing
m_1, m_2, ... for the generators in rank order, the s-th polynomial is

    g_s = m_s + sum of prod(F)

over faces F of size lambda - s + 1 whose members all have rank
position >= s + 1, where prod(F) multiplies the face's generator
monomials.  The s = 1 sum is empty (a face of full size lambda avoiding
the least generator could be extended by it, contradicting maximality
of lambda), so g_1 = m_1; at the other end every singleton is a face,
so g_lambda is the plain tail sum m_lambda + ... + m_mu.

Put by face: a face F of size k is a term of g_(lambda - k + 1) exactly
when it avoids the order's first lambda - k + 1 generators, that is
when its least rank, counted from 0, is at least lambda - k + 1.  The
construction reads only the order's faces and the order: one pass over
the faces selects the term faces, and only their exponent rows are
summed, in exact ints.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from operator import mul

from .complexes import order_analysis
from .invariants import is_minimal_resolution
from .monomials import EXPONENT_LIMIT, Monomial
from .orders import OrderedIdeal


class NonMinimalWarning(UserWarning):
    """The construction was run on an order with a non-minimal resolution."""


@dataclass(frozen=True)
class FormalPolynomial:
    """A sum of distinct monomials, each with coefficient 1."""

    terms: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("a formal polynomial needs at least one term")
        if any(m.context != self.terms[0].context for m in self.terms):
            raise ValueError("terms live in different variable contexts")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("duplicate terms")
        # ascending total degree; earlier variables first among equals
        canon = tuple(sorted(
            self.terms,
            key=lambda m: (m.degree,
                           tuple(-e for e in m.exponents))))
        object.__setattr__(self, "terms", canon)

    @classmethod
    def _unchecked(cls, terms: tuple[Monomial, ...]) -> "FormalPolynomial":
        """The polynomial of distinct terms of one context, already in
        the canonical order, built without ``__post_init__``."""
        polynomial = object.__new__(cls)
        object.__setattr__(polynomial, "terms", terms)
        return polynomial

    def __str__(self) -> str:
        return " + ".join(str(m) for m in self.terms)


def radical_generators(ordered: OrderedIdeal) -> tuple[FormalPolynomial, ...]:
    """The l_length(O) polynomials generating the ideal up to radical.

    Meaningful when the resolution is minimal; otherwise the same
    assembly runs anyway, under a ``NonMinimalWarning``.
    """
    return _radical_generators(ordered, is_minimal_resolution(ordered))


def _radical_generators(ordered: OrderedIdeal, minimal: bool
                        ) -> tuple[FormalPolynomial, ...]:
    """The construction, for an order whose minimality is known.

    It reads the order's faces, as masks, and the order, and no table
    over all 2^mu masks.  A face F of size k is a term of g_s for
    s = lambda - k + 1 exactly when it avoids the order's first s
    generators (its least rank, counted from 0, is at least s), so one
    pass over the faces selects every polynomial's term faces.  Their
    generators' exponent rows are summed in exact ints, each
    polynomial's distinct rows are sorted once into ``FormalPolynomial``'s
    order, ascending degree and then exponents descending, and the
    terms are built unchecked: the rows are a generator's or a sum
    within ``EXPONENT_LIMIT``.  A sum past it raises the
    ``ExponentLimitError`` that multiplying the face's generators in
    index order meets first, the polynomials taken in turn from g_1.
    """
    if not minimal:
        warnings.warn(
            "the resolution of this order is not minimal; the radical "
            "generator construction is stated for minimal resolutions",
            NonMinimalWarning, stacklevel=3)
    ideal = ordered.ideal
    order = ordered.order
    analysis = order_analysis(ordered)
    lam = analysis.length
    # before[s]: the mask of the order's first s generators
    before = [0]
    for g in order[:lam]:
        before.append(before[-1] | 1 << (g - 1))
    # terms[s]: the term faces of g_s; faces[0] is the empty face
    terms: list[list[int]] = [[] for _ in range(lam + 1)]
    for face in analysis.faces[1:]:
        s = lam + 1 - face.bit_count()
        if not face & before[s]:
            terms[s].append(face)

    rows = [m.exponents for m in ideal.gens]
    context = ideal.context
    out = []
    for s in range(1, lam + 1):
        found = {rows[order[s - 1] - 1]}
        for face in terms[s]:
            # the members' rows in index order, lowest bit first
            members = []
            while face:
                low = face & -face
                members.append(rows[low.bit_length() - 1])
                face ^= low
            row = tuple(map(sum, zip(*members)))
            if max(row) > EXPONENT_LIMIT:
                # the checked product raises the error of the first
                # exponent past the limit that it meets, left to right
                reduce(mul, [Monomial(context, r) for r in members])
            found.add(row)
        # descending (-degree, exponents) is FormalPolynomial's order,
        # ascending degree and then ascending negated exponents
        keyed = sorted([(-sum(r), r) for r in found], reverse=True)
        out.append(FormalPolynomial._unchecked(
            tuple([Monomial._unchecked(context, r) for _, r in keyed])))
    return tuple(out)

