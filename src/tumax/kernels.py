"""The exact-arithmetic hot kernels; their semantics are documented in
:mod:`tumax._pykernels`, which holds the only implementation."""

# The code stays in _pykernels because perfbench/spans.py wraps these names
# but not that module, so a kernel's calls to another (det_entries inside
# tu_violation) stay that kernel's time.
from ._pykernels import (canonical_masks, det_entries, max_tu_subset,
                         rank_entries, tu_violation, unimodular_violation)

BACKEND = "pure-python"
