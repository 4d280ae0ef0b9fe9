"""Ordering and adjacency-driven enumeration of alpha-sequences.

Alpha-sequences are finite tuples of positive integers ordered by their
alternating-sign view. The package orders the composition sets A_n, the
lexical classes L_n (lexical sequences with 1 + degree = n) and the
divisor-closed unions D_n, generates each set by chaining single adjacency
steps, and ships an independent brute-force oracle that certifies every
enumerated ordering at desk scale.
"""

from .adjacency import predecessor_ln, successor_dn, successor_ln
from .core import compare, harmonic, is_lexical, least_element, meet, star
from .enumeration import enumerate_an, enumerate_dn, enumerate_ln
from .oracle import oracle_ln, verify_range

__version__ = "0.1.0"

__all__ = [
    "compare",
    "is_lexical",
    "meet",
    "star",
    "harmonic",
    "least_element",
    "successor_ln",
    "predecessor_ln",
    "successor_dn",
    "enumerate_an",
    "enumerate_ln",
    "enumerate_dn",
    "oracle_ln",
    "verify_range",
]
