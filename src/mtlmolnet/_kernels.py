"""Row scatter-add, the aggregation kernel of message passing.

``scatter_add_rows`` computes ``out[index[i]] += src[i]`` and gives the same
bits as ``np.add.at``: every destination row receives its source rows one
at a time, in source-row order. It is pure numpy and much faster than
``np.add.at``, whose per-element loop dominated training time. It serves
``autodiff.message`` (each step's incoming edge sums by ``dst``, and their
gradient by ``src``) and ``autodiff.scatter_add`` (the atom readout's edge
pooling and the molecule pooling), four calls per depth-3 forward and two
more per backward.

The sources are stable-sorted by destination, so each source gets a rank
within its destination row. Pass ``k`` then adds the rank-``k`` source of
every row that has one, as one gather of source rows and one masked
in-place add. The number of passes is the largest number of sources of any
one row (per block, see below): the atom degree for edge-to-atom
aggregation, the largest atom count for molecule pooling. ``out`` is processed in blocks of about
``_BLOCK_BYTES``, so a block and its gathered sources stay in cache across
the passes and no temporary grows with the size of ``src`` or ``out``.
"""

import numpy as np

_BLOCK_BYTES = 1 << 18


def scatter_add_rows(src, index, out):
    """Accumulate src rows into out[index[i]] += src[i], in row order."""
    counts = np.bincount(index, minlength=out.shape[0])
    order = np.argsort(index, kind="stable")
    starts = np.cumsum(counts) - counts
    last = len(order) - 1
    step = max(1, _BLOCK_BYTES // max(1, out[:1].nbytes))
    for lo in range(0, len(out), step):
        block, n_src, first = out[lo:lo + step], counts[lo:lo + step], starts[lo:lo + step]
        for k in range(n_src.max(initial=0)):
            # rows without a rank-k source gather a stand-in row and skip the add
            ranked = order[np.minimum(first + k, last)]
            np.add(block, src[ranked], out=block, where=(n_src > k)[:, None])
    return out
