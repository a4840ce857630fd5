"""Coarse dual Gram blocks by the contractions they replaced: the test oracle.

``refsat.coefficients`` writes each block in its final order: one batched
product per parity block (``_volume_gram``), and one slab per outer probe
for a swap block (``_swap_gram``), so that no other array of a block's
size is formed. These are the routes it replaced. ``volume_gram``
contracts into (a, c, b, d) order and pays a transposing copy into block
order. ``swap_grams`` forms ``pairs``, the Gram over unordered probe
pairs (itself of a block's order), and gathers both swap blocks of a class
pair from it.
"""

from __future__ import annotations

import numpy as np


def volume_gram(wx: np.ndarray, wy: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The dual Gram of the probe pairs of wx x wy, x probe outermost.

    The y side is contracted first, in one product, into
    z[(i, b), d] = sum_j weights[i, j] wy[b, j] wy[d, j], and then
    xx[(a, c), i] = wx[a, i] wx[c, i] into R[(a, b), (c, d)], which is
    transposed from (a, c, b, d) into block order.
    """
    (nx, mx), (ny, my) = wx.shape, wy.shape
    z = (weights[:, np.newaxis, :] * wy).reshape(mx * ny, my) @ wy.T
    xx = (wx[:, np.newaxis, :] * wx).reshape(nx * nx, mx)
    t = (xx @ z.reshape(mx, ny * ny)).reshape(nx, nx, ny, ny)
    return t.transpose(0, 2, 1, 3).reshape(nx * ny, nx * ny)


def swap_grams(wx: np.ndarray, weights: np.ndarray, blocks) -> list[np.ndarray]:
    """The swap blocks ``blocks`` of the dual Gram of one class pair with
    equal factors.

    R[(a, b), (c, d)] depends only on the unordered probe pairs {a, c} and
    {b, d}, so it is formed as pairs[{a, c}, {b, d}]. As
    R[(b, a), (d, c)] = R[(a, b), (c, d)], a swap block entry is a scaled
    R[(a, b), (c, d)] +/- R[(a, b), (d, c)]; the rows are gathered one
    outer probe a at a time.
    """
    n = len(wx)
    i, j = np.triu_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[i, j] = pos[j, i] = np.arange(i.size)
    loads = wx[i] * wx[j]
    pairs = loads @ (weights @ loads.T)
    grams = []
    for block in blocks:
        a, b = np.divmod(block.index, n)
        starts = np.searchsorted(a, np.arange(n + 1))
        gram = np.empty((a.size, a.size))
        for outer in range(n):
            rows = slice(starts[outer], starts[outer + 1])
            # part[k, (c, d)] = R[(outer, b_k), (c, d)]
            part = pairs[pos[outer]][:, pos[b[rows]]]
            part = part.transpose(1, 0, 2).reshape(-1, n * n)
            gram[rows] = (np.take(part, block.index, axis=1)
                          + block.sign * np.take(part, block.partner, axis=1))
        scale = np.where(a == b, np.sqrt(0.5), 1.0)
        grams.append(gram * scale[:, np.newaxis] * scale)
    return grams
