"""Kernel selection.

The hot loops (exhaustive RPN enumeration, truth-table evaluation,
canonical sentence censuses) have two interchangeable implementations:
a compiled Cython module and a pure-Python twin.  The compiled one is
preferred when importable; set ``AVGSAT_PURE_KERNEL=1`` to force the
pure version (the parity tests read it).
"""

import os

from . import _pure

if os.environ.get("AVGSAT_PURE_KERNEL"):
    impl = _pure
else:
    try:
        from . import _core as impl  # type: ignore[no-redef]
    except ImportError:
        impl = _pure

ACTIVE = impl.IMPL

var_mask = impl.var_mask
eval_mask = impl.eval_mask
eval_mask_compact = impl.eval_mask_compact
compact_order = _pure.compact_order
enumerate_length = impl.enumerate_length
census_length = impl.census_length
count_length = _pure.count_length
