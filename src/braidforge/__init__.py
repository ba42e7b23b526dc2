"""braidforge: exact symbolic braid-group engine for line-arrangement
monodromy factorizations, regeneration, and full-twist certification."""

from .braid import Braid, artin_gen, delta, delta_squared, from_text
from .factorization import (Factor, Factorization, conj_factorization,
                            frame_factorization, hurwitz_move)

__all__ = [
    "Braid", "artin_gen", "delta", "delta_squared", "from_text",
    "Factor", "Factorization", "conj_factorization", "frame_factorization",
    "hurwitz_move",
]

__version__ = "0.1.0"
