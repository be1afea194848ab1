"""Exact character evaluations on partial permutations via ribbon combinatorics.

The package computes irreducible symmetric-group character sums over the
permutations extending a partial permutation (I, J), by expanding the
associated atomic symmetric function in the Schur basis: a path power sum for
the path components, classical power sums for the cycles, and ribbon
combinatorics throughout. Everything is exact (integers and fractions).

Each public name is declared once, in its module's __all__, and re-exported
here beside the exception types of errors; cli stays out (no argparse).
"""

from pathmn.characters import *  # noqa: F403
from pathmn.errors import GuardError, OracleMismatch, ParseError
from pathmn.oracles import *  # noqa: F403
from pathmn.partial_perm import *  # noqa: F403
from pathmn.partitions import *  # noqa: F403
from pathmn.ribbons import *  # noqa: F403
from pathmn.statistics import *  # noqa: F403
from pathmn.symfunc import *  # noqa: F403

__version__ = "0.1.0"
