"""Lyubeznik resolutions of monomial ideals: covers, preserved sets,
simplicial complexes, minimality obstructions, and order searches."""

from .betti import QUOTIENT, BettiTable
from .complexes import (LyubeznikComplex, SubsetClass, Symbol,
                        admissible_symbols, classification_census,
                        classify_subset, inadmissible_symbols,
                        is_admissible_symbol, is_broken, is_preserved,
                        is_stable_symbol, lyubeznik_complex, symbol_of)
from .corpus import (all_graphs, all_ideals, graph_names, ideal_names,
                     load_graph, load_ideal, sweep_ideals)
from .covers import (Cover, OrientedClutter, complete_cover, cover_clutter,
                     covers_of, e_minimal_covers_of, is_cover_of)
from .generators import FormalPolynomial, NonMinimalWarning, radical_generators
from .graphs import (PropositionCheck, SimpleGraph, check_graph_propositions,
                     edge_ideal, longest_path_edges, parse_graph, read_graph)
from .invariants import (AraBounds, InvariantReport, LyubeznikVerdict,
                         NotMinimalError, SearchResult, analyze, ara_bounds,
                         betti_from_preserved, height, is_lyubeznik,
                         is_minimal_resolution, is_totally_lyubeznik,
                         l_length, min_l_length, obstruction, preserved_size,
                         search_scan)
from .monomials import (BoundExceededError, MinimizationWarning, Monomial,
                        MonomialIdeal, ParseError, VariableContext, divides,
                        lcm_of, minimize_generators, parse_ideal,
                        radical_ideal, read_ideal)
from .oracle import (taylor_betti, verify_chain_complex,
                     verify_resolution_report)
from .orders import (OrderedIdeal, identity_order, orders_for_search,
                     parse_order)

__version__ = "0.1.0"

__all__ = [
    "AraBounds", "BettiTable", "BoundExceededError", "Cover",
    "FormalPolynomial", "InvariantReport", "LyubeznikComplex",
    "LyubeznikVerdict", "MinimizationWarning", "Monomial", "MonomialIdeal",
    "NonMinimalWarning", "NotMinimalError", "OrderedIdeal", "OrientedClutter",
    "ParseError", "PropositionCheck", "QUOTIENT", "SearchResult",
    "SimpleGraph", "SubsetClass", "Symbol", "VariableContext",
    "admissible_symbols", "all_graphs", "all_ideals", "analyze", "ara_bounds",
    "betti_from_preserved", "check_graph_propositions",
    "classification_census", "classify_subset", "complete_cover",
    "cover_clutter", "covers_of", "divides", "e_minimal_covers_of",
    "edge_ideal", "graph_names", "height", "ideal_names", "identity_order",
    "inadmissible_symbols", "is_admissible_symbol", "is_broken", "is_cover_of",
    "is_lyubeznik", "is_minimal_resolution", "is_preserved",
    "is_stable_symbol", "is_totally_lyubeznik", "l_length", "lcm_of",
    "load_graph", "load_ideal", "longest_path_edges", "lyubeznik_complex",
    "min_l_length", "minimize_generators", "obstruction", "orders_for_search",
    "parse_graph", "parse_ideal", "parse_order", "preserved_size",
    "radical_generators", "radical_ideal", "read_graph", "read_ideal",
    "search_scan", "sweep_ideals", "symbol_of", "taylor_betti",
    "verify_chain_complex", "verify_resolution_report",
]
