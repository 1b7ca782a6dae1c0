"""Backend selection for the closure engine.

The compiled kernel (_closure.c) handles matrices that bit-pack into 64-bit
codes; larger shapes and installs without the extension fall back to the
pure-Python engine.
"""

from .closure_py import bfs_closure_py

try:
    from ._closure import bfs_closure_u64 as _native
except ImportError:  # extension not built
    _native = None


def fits_native(n, m):
    return n * n * max(1, (m - 1).bit_length()) <= 63


def backend_name(n=2, m=2):
    return "native" if (_native is not None and fits_native(n, m)) else "python"


def run_closure(gens, n, m, cap, keep_elements):
    """Dispatch a closure computation; see bfs_closure_py for the contract."""
    if _native is not None and fits_native(n, m):
        return _native(list(gens), n, m, cap, keep_elements)
    return bfs_closure_py(gens, n, m, cap, keep_elements)
