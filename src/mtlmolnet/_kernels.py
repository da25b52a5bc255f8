"""Row scatter-add, the aggregation kernel of message passing.

``scatter_add_rows`` computes ``out[index[i]] += src[i]`` as one indexed add,
``np.add.at`` over a flat view of ``out``: each destination element receives
its sources one at a time, in source-row order, with ``np.add.at``'s bits
(save which payload survives where two NaNs meet, which numpy leaves open).
It serves ``autodiff.message`` (each step's sums by ``dst``, their gradient
by ``src``) and ``autodiff.scatter_add`` (the atom readout and molecule
pooling): four calls per depth-3 forward, two more per backward.

Even-width rows are added as complex128 pairs of columns, odd ones as
float64. numpy adds complex numbers part by part, so the bits are the same,
and the per-element cost of the indexed add is paid once per pair: 20-45 %
faster than flat float64 at widths 16 and 300. numpy 1.25 brought the fast
path of ``ufunc.at``; older numpy gives the same bits more slowly.

A non-contiguous ``out`` is summed in a contiguous copy that is written
back. Indices act as in ``np.add.at`` (a negative one counts from the end),
so the callers refuse indices outside ``[0, rows)``.
"""

import numpy as np


def scatter_add_rows(src, index, out):
    """Accumulate src rows into out[index[i]] += src[i], in row order."""
    if src.shape != (len(index), out.shape[1]):
        raise ValueError(f"scatter_add_rows: src {src.shape}, index {len(index)}, out {out.shape}")
    unit = np.float64 if out.shape[1] % 2 else np.complex128
    acc = np.ascontiguousarray(out)
    target = acc.view(unit)
    flat = (index[:, None] * target.shape[1] + np.arange(target.shape[1])).reshape(-1)
    np.add.at(target.reshape(-1), flat, np.ascontiguousarray(src).view(unit).reshape(-1))
    if acc is not out:
        out[...] = acc
    return out
