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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from operator import mul

from .complexes import order_analysis
from .invariants import is_minimal_resolution
from .monomials import Monomial
from .orders import OrderedIdeal
from .subsets import indices_of, mask_of


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

    Faces are read as masks from the order's face list.
    """
    if not minimal:
        warnings.warn(
            "the resolution of this order is not minimal; the radical "
            "generator construction is stated for minimal resolutions",
            NonMinimalWarning, stacklevel=3)
    ideal = ordered.ideal
    faces_by_size: dict[int, list[int]] = {}
    for mask in order_analysis(ordered).faces:
        faces_by_size.setdefault(mask.bit_count(), []).append(mask)
    lam = max(faces_by_size)

    out = []
    for s in range(1, lam + 1):
        terms = {ideal.gen(ordered.order[s - 1])}
        # rank position >= s + 1 (1-based): the generators after the s-th
        late = mask_of(ordered.order[s:])
        for face in faces_by_size[lam - s + 1]:
            if not face & ~late:
                terms.add(reduce(mul, map(ideal.gen, indices_of(face))))
        out.append(FormalPolynomial(tuple(terms)))
    return tuple(out)
