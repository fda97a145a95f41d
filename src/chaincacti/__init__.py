"""Exact independence polynomials of chain cactus graphs.

A chain cactus is a connected graph whose blocks are cycles strung in a row,
consecutive cycles sharing one cut vertex.  This package builds them from
compact specs, computes independence polynomials by three independent engines
(a lowest-vertex brute-force kernel, max-degree pivot recursion, and a linear
transfer scan), provides closed forms for path/cycle/ortho/meta families, and
verifies the dominance and extremality facts about attachment positions
exhaustively.
"""

from .chain_model import (
    ChainSpec,
    LabeledGraph,
    SpecError,
    VertexLabel,
    build,
    count_specs,
    enumerate_specs,
    parse_spec,
    reversed_spec,
)
from .closed_forms import (
    FibLucas,
    alpha_meta,
    alpha_ortho,
    count_mis_meta,
    count_mis_ortho,
    cycle_poly,
    fib_lucas,
    meta_poly,
    meta_recurrence_coeffs,
    ortho_poly,
    path_poly,
    psi_path,
)
from .engine import (
    BRUTE_FORCE_CAP,
    TransferState,
    VertexCapError,
    indpoly_bruteforce,
    indpoly_chain,
    indpoly_chain_minus_last_vertex,
    indpoly_recursive,
    transfer_state,
    walk_chains,
)
from .polynomial import Dominance, UniPoly, dominance

__version__ = "0.1.0"

# The extremal module loads on first use of one of its names, so that the
# commands that neither sweep nor verify do not pay for importing it.
_EXTREMAL_NAMES = frozenset(
    {"PropertyResult", "SweepEntry", "SweepReport", "sweep"}
)


def __getattr__(name: str):
    if name in _EXTREMAL_NAMES:
        from . import extremal

        return getattr(extremal, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BRUTE_FORCE_CAP",
    "ChainSpec",
    "Dominance",
    "FibLucas",
    "LabeledGraph",
    "PropertyResult",
    "SpecError",
    "SweepEntry",
    "SweepReport",
    "TransferState",
    "UniPoly",
    "VertexCapError",
    "VertexLabel",
    "alpha_meta",
    "alpha_ortho",
    "build",
    "count_mis_meta",
    "count_mis_ortho",
    "count_specs",
    "cycle_poly",
    "dominance",
    "enumerate_specs",
    "fib_lucas",
    "indpoly_bruteforce",
    "indpoly_chain",
    "indpoly_chain_minus_last_vertex",
    "indpoly_recursive",
    "meta_poly",
    "meta_recurrence_coeffs",
    "ortho_poly",
    "parse_spec",
    "path_poly",
    "psi_path",
    "reversed_spec",
    "sweep",
    "transfer_state",
    "walk_chains",
    "__version__",
]
