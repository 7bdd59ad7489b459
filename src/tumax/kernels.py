"""Backend selection for the exact-arithmetic hot kernels.

The compiled extension is used when it imports, the pure-Python fallback
otherwise. Both backends share the semantics documented in
:mod:`tumax._pykernels`.
"""

try:
    from tumax import _ckernels as _impl  # type: ignore[attr-defined]
except ImportError:
    from tumax import _pykernels as _impl

BACKEND = _impl.BACKEND_NAME

det_entries = _impl.det_entries
rank_entries = _impl.rank_entries
tu_violation = _impl.tu_violation
extension_violation = _impl.extension_violation
max_tu_subset = _impl.max_tu_subset
unimodular_violation = _impl.unimodular_violation
canonical_masks = _impl.canonical_masks
