"""Coarse dual Gram blocks by the contractions and the splits they replaced:
the test oracle.

``refsat.coefficients`` writes each block in its final order, in one
batched product (``_volume_gram``), so that no other array of a block's
size is formed. ``volume_gram`` is the route it replaced: it contracts into
(a, c, b, d) order and pays a transposing copy into block order.

E2's equal non-symmetric factors leave its dual Gram invariant under the
probe swap (a, b) <-> (b, a), and ``refsat.coefficients`` solves its one
class pair whole. The rest of this module is the split route that it
replaced: ``swap_blocks`` splits the pair into a symmetric and an
antisymmetric block, ``swap_gram`` forms one, a slab per outer probe,
``swap_product`` applies one through the pair's product, and
``split_saturation`` solves a cell on them. ``swap_grams`` is the route
that ``swap_gram`` replaced: it forms ``pairs``, the Gram over unordered
probe pairs (itself of a block's order), and gathers both swap blocks of a
class pair from it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from refsat.coefficients import (
    _DENSE_ORDER,
    ProblemSpec,
    _gram_floors,
    _gram_norm,
    _gram_trace,
    _max_over_blocks,
    _pair,
    _product,
    _sides,
    _spec_blocks,
)
from unsplit_oracle import checked_pencil


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


class SwapBlock(NamedTuple):
    """One swap block of a class pair of n x n probe pairs: row k is at
    (e_index[k] + sign * e_partner[k]) / sqrt(2) in the pair's load order,
    or at e_index[k] where ``index[k] == partner[k]``."""

    order: int
    index: np.ndarray
    partner: np.ndarray
    #: +1 for the symmetric block, -1 for the antisymmetric one
    sign: float


def swap_blocks(n: int) -> list[SwapBlock]:
    """The symmetric and the antisymmetric block of a class pair of n x n
    probe pairs, of orders n(n + 1)/2 and n(n - 1)/2; an empty one is left
    out."""
    blocks = []
    for offset, sign in ((0, 1.0), (1, -1.0)):
        a, b = np.triu_indices(n, offset)
        if a.size:
            blocks.append(SwapBlock(a.size, a * n + b, b * n + a, sign))
    return blocks


def swap_scales(block: SwapBlock) -> tuple[np.ndarray, np.ndarray]:
    """The weights of a swap block's row k on e_index[k] and e_partner[k]:
    sqrt(1/2) and sign sqrt(1/2), or 1 and 0 where ``index[k] ==
    partner[k]``."""
    pair = block.index != block.partner
    return (np.where(pair, np.sqrt(0.5), 1.0),
            np.where(pair, block.sign * np.sqrt(0.5), 0.0))


def embed(block: SwapBlock, rows: np.ndarray, size: int, scales=None) -> np.ndarray:
    """Place the block rows of ``rows`` in the pair's load order of
    ``size``; the ``scales`` (``swap_scales``) are formed here unless
    given."""
    out = np.zeros((size,) + rows.shape[1:])
    shape = (-1,) + (1,) * (rows.ndim - 1)
    keep, swap = scales or swap_scales(block)
    out[block.index] = rows * keep.reshape(shape)
    out[block.partner] += rows * swap.reshape(shape)
    return out


def swap_gram(block: SwapBlock, wx: np.ndarray, wy: np.ndarray,
              weights: np.ndarray) -> np.ndarray:
    """A swap block of the dual Gram of one class pair with equal factors.

    As R[(b, a), (d, c)] = R[(a, b), (c, d)], a swap block entry is a
    scaled R[(a, b), (c, d)] + sign R[(a, b), (d, c)]. The rows are formed
    one outer probe a at a time: the slab s[b, c, d] = R[(a, b), (c, d)]
    over the block's b >= a (b > a in the antisymmetric block) is one
    batched product of xx[a, c, i] = wx[a, i] wx[c, i] against the
    weighted y side z[b, i, d] = sum_j weights[i, j] wy[b, j] wy[d, j];
    the block's rows gather its columns (c, d), c <= d, and then add sign
    times its columns (d, c), so the slab is never folded onto its
    transpose. The rows and then the columns of the pairs (a, a) are
    scaled by sqrt(1/2) in place. No array of the block's size is formed
    but the block.
    """
    mx, (ny, my) = wx.shape[1], wy.shape
    z = ((wy[:, np.newaxis, :] * weights).reshape(ny * mx, my) @ wy.T).reshape(
        ny, mx, ny)
    xx = wx[:, np.newaxis, :] * wx
    gram = np.empty((block.order, block.order))
    offset, start = int(block.sign < 0), 0
    for outer in range(len(wx) - offset):
        slab = np.matmul(xx[outer], z[outer + offset:])
        slab = slab.reshape(len(slab), -1)
        rows = gram[start:start + len(slab)]
        np.take(slab, block.index, axis=1, out=rows)
        rows += block.sign * np.take(slab, block.partner, axis=1)
        start += len(slab)
    if offset == 0:
        pairs = np.flatnonzero(block.index == block.partner)
        gram[pairs] *= np.sqrt(0.5)
        gram[:, pairs] *= np.sqrt(0.5)
    return gram


def swap_product(block: SwapBlock, triple):
    """v -> S v for the swap block S of the class pair's dual Gram of the
    ``_pair`` triple, without forming it: v is embedded in the pair's load
    order, the pair's ``_product`` applied, and the block's rows of the
    image taken back, with the scales formed once, not per application."""
    wx, wy, _ = triple
    size, pair = len(wx) * len(wy), _product(*triple)
    scales = keep, swap = swap_scales(block)

    def apply(v: np.ndarray) -> np.ndarray:
        image = pair(embed(block, v, size, scales))
        return keep * image[block.index] + swap * image[block.partner]

    return apply


def split_saturation(spec: ProblemSpec, factors: dict) -> tuple[float, bool]:
    """mu^2 and the tie flag of an E2 cell, with its class pair split into
    its swap blocks and each solved by ``checked_pencil``: formed on both
    sides up to ``_DENSE_ORDER``, and above it with the coarse block formed
    and the fine one applied by ``swap_product``, on the standard form
    (``unsplit_oracle.standard_form``). The swap blocks are
    compressions of the pair, so the pair's closed-form floor bounds them
    too."""
    (block,) = _spec_blocks(spec)
    fine, mid = (_pair(block, *_sides(spec, degree, factors))
                 for degree in (spec.r, spec.q))
    trace = _gram_trace([mid])
    (floor,) = _gram_floors(spec, [block], [mid])
    solutions = []
    for part in swap_blocks(spec.p + 1):
        top = (swap_gram(part, *fine) if part.order <= _DENSE_ORDER
               else swap_product(part, fine))
        solutions.append(checked_pencil(top, swap_gram(part, *mid), trace, floor))
    value, tie, _, _, _ = _max_over_blocks(solutions, [1] * len(solutions),
                                           _gram_norm([fine]))
    return value, tie


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
