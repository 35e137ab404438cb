"""Integer rank kernel: fraction-free elimination over Python integers.

``ACTIVE_KERNEL`` names the implementation in use, for provenance records.
"""

from minctrl._kernels.pure import integer_rank

ACTIVE_KERNEL = "pure"

__all__ = ["ACTIVE_KERNEL", "integer_rank"]
