"""frobtrace: point counts, Frobenius traces and modularity checks for a
small catalog of explicit Calabi-Yau threefolds and companion curves."""

__version__ = "0.1.0"

from .catalog import load_catalog                                  # noqa: F401
from .counting import (count_projective, count_twisted,            # noqa: F401
                       count_weighted, count_torus, count_double_cover)
from .lefschetz import (trace_h3, node_correction, solve_betti,    # noqa: F401
                        euler_ledger, elliptic_ap)
from .qexp import eta, f25, coefficient                            # noqa: F401
from .livne import build_basis, check_cover, livne_compare         # noqa: F401


def __getattr__(name):
    # cli is loaded on first use, so that `python -m frobtrace.cli` does not
    # find it already imported by the package (PEP 562)
    if name in ("match_pipeline", "run_manifest"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
