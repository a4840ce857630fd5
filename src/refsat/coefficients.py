"""Saturation coefficients of nested discrete spaces on the reference square.

A problem is a triple of degrees p <= q <= r together with a load family and
a Dirichlet edge set. The coefficient measures how much dual norm is lost
when the fine space of degree r is replaced by the intermediate space of
degree q:

    mu = max over functionals F of  ||F||_(fine dual) / ||F||_(coarse dual),

computed as the square root of the largest generalized eigenvalue of the
pair of dual Gram matrices R = L A^{-1} L^T (L the load matrix, A the
stiffness matrix). mu >= 1 always, mu = 1 exactly when q = r, and small
mu - 1 certifies that the intermediate space already captures the loads.

Families:

``A``  volume loads, Legendre pairs up to degree p, on a space with at
       least one Dirichlet edge;
``B``  edge loads on the right edge, Legendre up to degree p, the right
       edge always free;
``C``  mean-free edge loads on the quotient space modulo constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

import numpy as np

from refsat.assembly import EDGE_CLASSES, factor_conditions, normalize_edges
from refsat.bases import BoundaryCondition1D

# scipy.linalg is imported inside the kernels that call LAPACK or BLAS: it
# costs about a quarter second of start-up, which the patch checks and the
# help text never need

__all__ = [
    "FAMILIES",
    "Q_STRATEGIES",
    "CANONICAL_PROBLEMS",
    "NumericalError",
    "ProblemSpec",
    "SaturationResult",
    "q_strategy",
    "saturation_coefficient",
]

FAMILIES = ("A", "B", "C")

#: admissible rules for choosing the intermediate degree from p
Q_STRATEGIES = ("p+4", "p+ceil(p/7)", "2p")

#: the ten canonical problems: five Dirichlet classes with volume loads,
#: four with edge loads, and the quotient problem
CANONICAL_PROBLEMS: dict[str, tuple[str, frozenset[int] | None]] = {
    "E1": ("A", EDGE_CLASSES["E1"]),
    "E2": ("A", EDGE_CLASSES["E2"]),
    "E3": ("A", EDGE_CLASSES["E3"]),
    "E4": ("A", EDGE_CLASSES["E4"]),
    "E5": ("A", EDGE_CLASSES["E5"]),
    "F1": ("B", EDGE_CLASSES["F1"]),
    "F2": ("B", EDGE_CLASSES["F2"]),
    "F3": ("B", EDGE_CLASSES["F3"]),
    "F4": ("B", EDGE_CLASSES["F4"]),
    "C": ("C", None),
}

_B_CLASSES = tuple(EDGE_CLASSES[name] for name in ("F1", "F2", "F3", "F4"))


class NumericalError(RuntimeError):
    """A linear algebra step failed or produced an ill-posed subproblem."""


@dataclass(frozen=True)
class ProblemSpec:
    """One saturation problem: family, Dirichlet edges and degrees p <= q <= r."""

    family: str
    edges: frozenset[int] | None
    p: int
    q: int
    r: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        for degree in (self.p, self.q, self.r):
            if isinstance(degree, bool) or not isinstance(degree, (int, np.integer)):
                raise ValueError(f"degrees must be integers, got {degree!r}")
        min_p = 1 if self.family == "C" else 0
        if self.p < min_p:
            raise ValueError(f"family {self.family} needs p >= {min_p}, got {self.p}")
        if not self.p <= self.q <= self.r:
            raise ValueError(
                f"degrees must satisfy p <= q <= r, got ({self.p}, {self.q}, {self.r})"
            )
        if self.family == "C":
            if self.edges:
                raise ValueError("the quotient family takes no Dirichlet edges")
            object.__setattr__(self, "edges", None)
            return
        if self.edges is None:
            raise ValueError(f"family {self.family} needs a Dirichlet edge set")
        edges = normalize_edges(self.edges)
        object.__setattr__(self, "edges", edges)
        if self.family == "A" and not edges:
            raise ValueError("volume-load problems need at least one Dirichlet edge")
        if self.family == "B" and edges not in _B_CLASSES:
            raise ValueError(
                "edge-load problems use one of the four canonical Dirichlet "
                "classes {2}, {3}, {2,3}, {2,3,4} relative to the loaded right edge"
            )


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of one saturation computation."""

    spec: ProblemSpec
    mu: float
    mu_squared: float
    maximizer: np.ndarray
    dim_H: int
    dim_V: int
    dim_F: int
    residual: float
    tie: bool
    wall_seconds: float
    #: seconds spent building the 1D factors, the edge weights and each
    #: block's load rows and weights (``factors``), forming the coarse dual
    #: Gram blocks and the fine ones of order up to 100, with the trace, the
    #: fine norm and the definiteness bounds (``grams``), and solving each
    #: coarse block against its fine block or, above order 100, the fine
    #: products (``eigensolve``)
    stages: dict[str, float] = field(default_factory=dict)


def q_strategy(name: str, p: int) -> int:
    """Intermediate degree q chosen from p by one of the published rules."""
    if p < 1:
        raise ValueError(f"strategies need p >= 1, got {p}")
    if name == "p+4":
        return p + 4
    if name == "p+ceil(p/7)":
        return p + -(-p // 7)
    if name == "2p":
        return 2 * p
    raise ValueError(f"unknown strategy {name!r}, expected one of {Q_STRATEGIES}")


class _Factor(NamedTuple):
    """One 1D factor basis, or one parity class of it, in its eigenbasis."""

    #: eigenvalues of the pencil S v = lambda M v
    lam: np.ndarray
    #: W[k, i] = <phi_probes[k], v_i> for the probes phi_k that load the modes
    loads: np.ndarray
    #: the probe degrees k of the rows of ``loads``, ascending
    probes: np.ndarray


def _symmetric(bc: BoundaryCondition1D) -> bool:
    """Whether a factor spans a space invariant under x -> -x."""
    return bc.dirichlet_at_minus1 == bc.dirichlet_at_plus1


def _class_probes(bc: BoundaryCondition1D, degree: int) -> list:
    """Probe degrees up to ``degree`` of each class of a factor."""
    k = np.arange(degree + 1)
    return [k[0::2], k[1::2]] if _symmetric(bc) else [k]


def _chains(bc: BoundaryCondition1D, degree: int) -> list:
    """(index, coeff) of each chain of the 1D factor of degree ``degree``
    with ends ``bc``.

    The factor spans the polynomials of degree at most ``degree`` that
    vanish at the Dirichlet ends, in the ``integrated_legendre`` basis of
    ``refsat.bases``; with no Dirichlet end it equally stands for the
    ``mean_zero`` basis, which spans the same P_r. The derivatives of
    xi_k = (L_{k-2} - L_k) / sqrt(4k - 2) and of the supplements are
    orthonormal Legendre polynomials, so the stiffness is the identity on
    every non-constant member, and the mass couples xi_k only with
    xi_{k+-2} and a supplement only with xi_2 and xi_3 (Shen, SIAM J. Sci.
    Comput. 1994). The chains are xi_2, xi_4, ... and xi_3, xi_5, ... with
    two Dirichlet ends; xi_r, ..., xi_2, supplement, xi_3, ... with one;
    with none, -L_2/sqrt(6), xi_4, ... and -L_1/sqrt(2), xi_3, ..., the
    constant being left to the caller. Member j of a chain is the sum of
    coeff[j, s] L_index[j, s] over s = 0, 1, with no index twice in a
    column.
    """
    ends = bc.dirichlet_at_minus1 + bc.dirichlet_at_plus1
    if degree < max(ends, 1):
        raise ValueError(f"basis is empty: no function of degree <= {degree} "
                         "satisfies the requested boundary conditions")
    chains = []
    for first in 2, (3 if ends else 1):
        k = np.arange(first, degree + 1, 2)
        scale = 1.0 / np.sqrt(4.0 * k - 2.0)
        low = np.where((k > 2) | (ends > 0), scale, 0.0)
        chains.append((np.stack([np.maximum(k - 2, 0), k], axis=1),
                       np.stack([low, -scale], axis=1)))
    if ends != 1:
        return chains
    (even, even_c), (odd, odd_c) = chains
    # the supplement and the odd members list their terms the other way
    # round, so that no Legendre index appears twice in a column
    half = np.sqrt(0.5) * np.array([1.0 if bc.dirichlet_at_minus1 else -1.0, 1.0])
    return [(np.vstack([even[::-1], [1, 0], odd[:, ::-1]]),
             np.vstack([even_c[::-1], half, odd_c[:, ::-1]]))]


def _mass(index: np.ndarray, coeff: np.ndarray, degree: int):
    """Diagonal and off-diagonal of the tridiagonal mass of a chain."""
    norms = 2.0 / (2.0 * np.arange(degree + 1) + 1.0)
    weighted = coeff * norms[index]
    off = sum(weighted[:-1, s] * coeff[1:, t] * (index[:-1, s] == index[1:, t])
              for s in (0, 1) for t in (0, 1))
    return (coeff * weighted).sum(axis=1), off


def _chain(index: np.ndarray, coeff: np.ndarray, degree: int) -> _Factor:
    """Modes of the members of a chain (see ``_chains``).

    With S = I, S v = lambda M v is M v = v / lambda: the eigenpairs
    theta, Q of the tridiagonal M give lambda = 1 / theta and
    V = Q diag(theta)^(-1/2). The probe phi_k loads v_i with sqrt(2/(2k+1))
    times its L_k coefficient.
    """
    theta, vec = np.ones(0), np.zeros((0, 0))
    if len(index):
        import scipy.linalg

        try:
            theta, vec = scipy.linalg.eigh_tridiagonal(*_mass(index, coeff, degree))
            if theta[0] <= 0.0:
                raise scipy.linalg.LinAlgError("the mass is not definite")
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(f"1D eigensolve failed: {exc}") from exc
    vec = vec / np.sqrt(theta)
    loads = np.zeros((degree + 1, theta.size))
    for s in (0, 1):
        loads[index[:, s]] += coeff[:, s, np.newaxis] * vec
    loads *= np.sqrt(2.0 / (2.0 * np.arange(degree + 1) + 1.0))[:, np.newaxis]
    return _Factor(1.0 / theta, loads, np.arange(degree + 1))


def _classes(bc: BoundaryCondition1D, degree: int) -> tuple[_Factor, ...]:
    """The 1D factor of degree ``degree`` with ends ``bc``, one ``_Factor``
    per class: one per chain of ``_chains``, and with no Dirichlet end the
    constant (lambda = 0, set up exactly) joins the even chain. Each parity
    class of a symmetric factor keeps only the probe rows of its parity:
    its loads on the other parity's modes are exactly zero.
    """
    classes = [_chain(index, coeff, degree) for index, coeff in _chains(bc, degree)]
    if not _symmetric(bc):
        return tuple(classes)
    if not bc.dirichlet_at_minus1:
        constant = (np.zeros(1), np.eye(degree + 1, 1))
        classes[0] = _Factor(*(np.concatenate(pair, axis=-1) for pair in
                               zip(constant, classes[0][:2])), classes[0].probes)
    return tuple(part._replace(loads=part.loads[parity::2],
                               probes=part.probes[parity::2])
                 for parity, part in enumerate(classes))


def _last_pivot(a: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """The last pivot of the elimination of the tridiagonal matrix with
    diagonal rows ``a`` and squared off-diagonal rows ``b2``, from its first
    row on; each row holds one entry per column of the stack."""
    pivot = a[0]
    for j in range(1, len(a)):
        pivot = a[j] - b2[j - 1] / pivot
    return pivot


def _edge_weights(bc: BoundaryCondition1D, degree: int, mu: np.ndarray) -> np.ndarray:
    """sum_i t_i^2 / (lambda_i + mu) over the modes v_i of the 1D factor,
    with t_i = v_i(+1), for each entry of ``mu``.

    Edge loads see an x mode only through its trace on the right edge. On
    a chain, with stiffness I, mass T and c the values of the members at
    +1, the sum is c^T (I + mu T)^{-1} c: the discrete Green's function of
    -u'' + mu u at x = +1, and no mode is needed. Only the head h of a
    chain is nonzero at +1 (the interior members vanish at both ends, and
    so does the supplement of a Dirichlet end at +1), so the sum is
    c_h^2 / s_h, with s_h the Schur complement of A = I + mu T onto h: the
    last pivot of the elimination from the first member down to h, less
    b_h^2 over the last pivot of the elimination from the last member up
    to h + 1 (b the off-diagonal of A). The eliminations run for all mu at
    once. The constant of a free factor (lambda = 0, t = sqrt(1/2)) adds
    0.5 / mu; mu = 0 arises only with the free y factor of family C, whose
    quotient space leaves that pair out.
    """
    total = np.zeros_like(mu)
    for index, coeff in _chains(bc, degree):
        (heads,) = np.nonzero(coeff.sum(axis=1))
        if not heads.size:
            continue
        (head,) = heads
        diag, off = _mass(index, coeff, degree)
        a = 1.0 + np.multiply.outer(diag, mu)
        b2 = np.multiply.outer(off ** 2, mu ** 2)
        schur = _last_pivot(a[:head + 1], b2[:head])
        if head + 1 < len(a):
            schur = schur - b2[head] / _last_pivot(a[:head:-1], b2[:head:-1])
        total += coeff[head].sum() ** 2 / schur
    if not (bc.dirichlet_at_minus1 or bc.dirichlet_at_plus1):
        total += np.divide(0.5, mu, out=np.zeros_like(mu), where=mu > 0.0)
    return total


def _factor_args(spec: ProblemSpec, degree: int) -> tuple[tuple, tuple]:
    """Keys (bc, degree) of the x and y factors; family C uses the free-free
    factor in both directions."""
    if spec.family == "C":
        args = (BoundaryCondition1D(), degree)
        return args, args
    bc_x, bc_y = factor_conditions(spec.edges)
    return (bc_x, degree), (bc_y, degree)


def _sides(spec: ProblemSpec, degree: int, factors: dict) -> tuple[tuple, tuple]:
    """The x side and the y classes of the spec's space at ``degree``.

    The x side is the tuple of x classes for family A. Families B and C
    see x only through the right-edge trace, and their x side is the edge
    weights of each y class instead (``_edge_weights``); no x factor is
    built. Both are looked up in ``factors`` and filled in on a miss: the
    classes under their (bc, degree), the edge weights under
    ("edge", bc_x, bc_y, degree).
    """
    x_args, y_args = _factor_args(spec, degree)
    if y_args not in factors:
        factors[y_args] = _classes(*y_args)
    ys = factors[y_args]
    if spec.family == "A":
        if x_args not in factors:
            factors[x_args] = _classes(*x_args)
        return factors[x_args], ys
    key = ("edge", x_args[0], *y_args)
    if key not in factors:
        weights = _edge_weights(x_args[0], degree, np.concatenate([f.lam for f in ys]))
        factors[key] = tuple(np.split(weights, np.cumsum([f.lam.size for f in ys])[:-1]))
    return factors[key], ys


class _Block(NamedTuple):
    """One diagonal block of a dual Gram and its rows in the family's load order.

    Loads are probe pairs (a, b) at a * (p + 1) + b for family A, with the x
    probe outermost, and probe degrees for families B and C (from 1 for C),
    whose x side is one row that the edge weights load (see ``_pair``). A
    parity block has row k at ``index[k]``. A swap block has row k at
    (e_index[k] + sign * e_partner[k]) / sqrt(2), or at e_index[k] where
    ``index[k] == partner[k]``.
    """

    #: the x class contracted, None for families B and C
    x: int | None
    #: the y class contracted
    y: int
    #: x and y probe degrees: the block loads are px x py for a parity
    #: block, the pairs of px x px for a swap block, py for B and C
    px: np.ndarray | None
    py: np.ndarray
    index: np.ndarray
    partner: np.ndarray | None = None
    sign: float = 1.0
    #: blocks of this spectrum that the eigensolve counts: 2 for a block
    #: whose mirror under the probe swap is not solved, 0 for that mirror
    copies: int = 1


def _blocks(spec: ProblemSpec, bc_x: BoundaryCondition1D,
            bc_y: BoundaryCondition1D) -> list[_Block]:
    """Diagonal blocks of the spec's dual Grams, skipping those without loads.

    ``bc_x`` and ``bc_y`` are the end conditions of the two factors; equal
    conditions mean equal factors. Family A has one block per
    pair of x and y classes, except with equal non-symmetric factors (E2):
    R is then invariant under (a, b) <-> (b, a) and splits into a
    symmetric and an antisymmetric block of orders n(n + 1)/2 and
    n(n - 1)/2. With equal symmetric factors (E5), the (odd, even) block is
    the probe swap of the (even, odd) one, with the same spectrum: only the
    latter is solved, and counted twice. Families B and C have one block
    per y class.
    """
    first = 1 if spec.family == "C" else 0
    ys = [k[k >= first] for k in _class_probes(bc_y, spec.p)]
    if spec.family != "A":
        return [_Block(None, y, None, py, py - first)
                for y, py in enumerate(ys) if py.size]
    n = spec.p + 1
    xs = _class_probes(bc_x, spec.p)
    if bc_x == bc_y and len(xs) == 1:
        blocks = []
        for offset, sign in ((0, 1.0), (1, -1.0)):
            a, b = np.triu_indices(n, offset)
            blocks.append(_Block(0, 0, xs[0], xs[0], a * n + b, b * n + a, sign))
        return [block for block in blocks if block.index.size]
    mirrored = bc_x == bc_y
    return [_Block(x, y, px, py, (px[:, np.newaxis] * n + py).ravel(),
                   copies=2 * (x < y) if mirrored and x != y else 1)
            for x, px in enumerate(xs) for y, py in enumerate(ys)
            if px.size and py.size]


def _embed(block: _Block, rows: np.ndarray, size: int) -> np.ndarray:
    """Place the block rows of ``rows`` in the family's load order of ``size``."""
    out = np.zeros((size,) + rows.shape[1:])
    if block.partner is None:
        out[block.index] = rows
        return out
    pair = block.index != block.partner
    scale = np.where(pair, np.sqrt(0.5), 1.0)
    rows = rows * scale.reshape((-1,) + (1,) * (rows.ndim - 1))
    out[block.index] = rows
    out[block.partner[pair]] += block.sign * rows[pair]
    return out


def _restrict(block: _Block, full: np.ndarray) -> np.ndarray:
    """The transpose of ``_embed`` for a swap block: its rows of ``full``,
    given in the family's load order."""
    pair = block.index != block.partner
    shape = (-1,) + (1,) * (full.ndim - 1)
    keep = np.where(pair, np.sqrt(0.5), 1.0).reshape(shape)
    swap = np.where(pair, block.sign * np.sqrt(0.5), 0.0).reshape(shape)
    return keep * full[block.index] + swap * full[block.partner]


def _pair(block: _Block, xs, ys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Wx, Wy, G) of a block, whose dual Gram is (Wx (x) Wy) diag(G) (Wx (x) Wy)^T.

    ``xs`` and ``ys`` are the x side and the y classes of ``_sides``, and W
    holds the load rows of a class for the block's probes. Fast
    diagonalization (Lynch, Rice & Thomas, Numer. Math. 1964): with the 1D
    modes V^T S V = diag(lambda), V^T M V = I of each factor basis, the
    stiffness Sx (x) My + Mx (x) Sy is diagonal in the basis Vx (x) Vy with
    entries lambda_i + mu_j, so a family-A block has the weights
    G = 1 / (lambda_i + mu_j), no two of its factors having lambda = 0, and
    no 2D matrix is formed. Edge loads see x only through the right-edge
    trace, so a B or C block has the 1 x 1 identity for Wx and the edge
    weights of its y class as the one row of G.
    """
    fy = ys[block.y]
    wy = fy.loads[np.searchsorted(fy.probes, block.py)]
    if block.x is None:
        return np.ones((1, 1)), wy, xs[block.y][np.newaxis]
    fx = xs[block.x]
    wx = fx.loads[np.searchsorted(fx.probes, block.px)]
    return wx, wy, 1.0 / (fx.lam[:, np.newaxis] + fy.lam)


def _volume_gram(wx: np.ndarray, wy: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The dual Gram of the probe pairs of wx x wy, x probe outermost.

    The y side is contracted first, in one product, into
    z[(i, b), d] = sum_j weights[i, j] wy[b, j] wy[d, j], and then
    xx[(a, c), i] = wx[a, i] wx[c, i] into R[(a, b), (c, d)]; both are
    bitwise symmetric in their index pairs, and so is the product. With
    the 1 x 1 identity for wx, z is exactly the block. A class may have no
    modes at low degrees, hence the explicit sizes.
    """
    (nx, mx), (ny, my) = wx.shape, wy.shape
    z = (weights[:, np.newaxis, :] * wy).reshape(mx * ny, my) @ wy.T
    xx = (wx[:, np.newaxis, :] * wx).reshape(nx * nx, mx)
    t = (xx @ z.reshape(mx, ny * ny)).reshape(nx, nx, ny, ny)
    return t.transpose(0, 2, 1, 3).reshape(nx * ny, nx * ny)


def _swap_grams(wx: np.ndarray, weights: np.ndarray,
                blocks: list[_Block]) -> list[np.ndarray]:
    """The swap blocks of the dual Gram of one class pair with equal factors.

    R[(a, b), (c, d)] depends only on the unordered probe pairs {a, c} and
    {b, d}, so it is formed as pairs[{a, c}, {b, d}], of a quarter the
    size and cost of the unsplit product. As R[(b, a), (d, c)] =
    R[(a, b), (c, d)], a swap block entry is a scaled
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


def _grams(blocks: list[_Block], triples: list):
    """Yield the diagonal blocks of the dual Gram R = L A^{-1} L^T, in order.

    ``triples`` holds the ``_pair`` of each block. The swap blocks are both
    cut from one product of their class pair, which is dropped once they
    are.
    """
    swapped = None
    for block, (wx, wy, weights) in zip(blocks, triples):
        if block.partner is None:
            yield _volume_gram(wx, wy, weights)
            continue
        if swapped is None:
            swapped = _swap_grams(wx, weights, blocks)
        yield swapped.pop(0)


def _pair_product(wx: np.ndarray, wy: np.ndarray, weights: np.ndarray):
    """v -> R v for the dual Gram R of one class pair, without forming R.

    With V the nx x ny reshape of v (x probe outermost), R v is
    Wx (G o (Wx^T V Wy)) Wy^T for the weights G; a vector takes these 2D
    products directly, and the columns of an n x m block are applied as a
    stack of them.
    """
    nx, ny = len(wx), len(wy)

    def apply(v: np.ndarray) -> np.ndarray:
        if v.ndim == 1:
            modes = weights * (wx.T @ v.reshape(nx, ny) @ wy)
            return (wx @ modes @ wy.T).ravel()
        stack = np.ascontiguousarray(v.reshape(nx, ny, -1).transpose(2, 0, 1))
        out = wx @ ((weights * (wx.T @ stack @ wy)) @ wy.T)
        return out.transpose(1, 2, 0).reshape(v.shape)

    return apply


def _swap_product(block: _Block, product):
    """v -> R v for a swap block: embed v in the load order, apply the
    product of its class pair, and take the block rows back."""
    size = block.px.size ** 2
    return lambda v: _restrict(block, product(_embed(block, v, size)))


def _products(blocks: list[_Block], triples: list):
    """Yield the diagonal blocks of the dual Gram as operators, in order.

    Each maps an n-vector or an n x m block to its image under the block
    of ``_grams``, at the cost of a few products of 1D load Grams, so
    R is never formed.
    """
    for block, triple in zip(blocks, triples):
        product = _pair_product(*triple)
        yield product if block.partner is None else _swap_product(block, product)


def _tops(blocks: list[_Block], triples: list):
    """Yield the fine side of each block's pencil, in order: up to order
    ``_DENSE_ORDER`` the block itself, formed by ``_grams`` as the coarse
    blocks are, and above it the operator of ``_products``. No block above
    that order is formed.
    """
    small = [block.index.size <= _DENSE_ORDER for block in blocks]
    formed = _grams(list(compress(blocks, small)), list(compress(triples, small)))
    for keep, product in zip(small, _products(blocks, triples)):
        yield next(formed) if keep else product


def _class_pairs(blocks: list[_Block], triples: list):
    """The triple of each class pair once: swap blocks share theirs."""
    return {(block.x, block.y): triple
            for block, triple in zip(blocks, triples)}.values()


def _gram_trace(blocks: list[_Block], triples: list) -> float:
    """Trace of the whole dual Gram, the sum of its block traces.

    The diagonal of a block contracts the squared load rows, so the trace
    is sx G sy per class pair and no block is formed.
    """
    return float(sum((wx ** 2).sum(axis=0) @ weights @ (wy ** 2).sum(axis=0)
                     for wx, wy, weights in _class_pairs(blocks, triples)))


def _gram_norm(blocks: list[_Block], triples: list) -> float:
    """Frobenius norm of the whole dual Gram, from its 1D factors.

    A class pair contributes trace(G^T Px G Py), with G its weights and
    Px = (Wx^T Wx) o (Wx^T Wx), Py the same for y. Every term is
    non-negative, and no block is formed.
    """
    return float(np.sqrt(sum(
        np.sum(((wx.T @ wx) ** 2 @ weights @ (wy.T @ wy) ** 2) * weights)
        for wx, wy, weights in _class_pairs(blocks, triples))))


def _gram_floors(blocks: list[_Block], triples: list) -> list[float]:
    """A lower bound on the smallest eigenvalue of each block, from its 1D
    factors.

    A class pair's Gram is B D B^T with B = Wx (x) Wy and D its weights, so
    it is at least min(D) B B^T, and B B^T = Wx Wx^T (x) Wy Wy^T has the
    smallest eigenvalue lambda_min(Wx Wx^T) lambda_min(Wy Wy^T); a swap
    block is an orthonormal compression of its pair's Gram, so its
    smallest eigenvalue is no smaller. This costs one small symmetric
    eigensolve per class, and no block is formed. The bound is clamped at
    0, and is exactly 0 for a class with more probes than modes, whose load
    Gram is singular.
    """
    memo = {}

    def load_floor(key, w: np.ndarray) -> float:
        if key not in memo:
            memo[key] = 0.0
            if len(w) <= w.shape[1]:
                import scipy.linalg

                # LAPACK directly, as for the Cholesky factor: the wrappers
                # cost more than the solve at these orders. A failed solve
                # leaves no bound, and the estimate runs instead
                values, _, info = scipy.linalg.lapack.dsyevd(w @ w.T,
                                                             compute_v=0)
                memo[key] = max(float(values[0]), 0.0) if info == 0 else 0.0
        return memo[key]

    # a zero load floor may belong to a class without modes, whose weights
    # have no extremes
    floors = []
    for block, (wx, wy, weights) in zip(blocks, triples):
        floor = load_floor(("x", block.x), wx) * load_floor(("y", block.y), wy)
        floors.append(floor and floor * float(weights.min()))
    return floors


def _dimension(spec: ProblemSpec, degree: int) -> int:
    """Dimension of the spec's space at ``degree``: a 1D factor of degree d
    has d + 1 members less one per Dirichlet end, and the quotient space
    leaves out the constant tensor member."""
    nx, ny = (d + 1 - bc.dirichlet_at_minus1 - bc.dirichlet_at_plus1
              for bc, d in _factor_args(spec, degree))
    return nx * ny - (spec.family == "C")


def _spec_blocks(spec: ProblemSpec) -> list[_Block]:
    """The diagonal blocks of the spec's dual Grams (both degrees alike)."""
    (bc_x, _), (bc_y, _) = _factor_args(spec, spec.p)
    return _blocks(spec, bc_x, bc_y)


#: orders up to which the eigensolves form their blocks: a full dense
#: eigensolve of the formed pair beats the fixed cost of a Lanczos run (at
#: least 20 operator applications) up to about this order
_DENSE_ORDER = 100

#: relative floor on the smallest eigenvalue of the denominator dual Gram
_PD_FLOOR = 1e-12


def _lapack(routine: str, *args, **kwargs) -> list:
    """The outputs of a LAPACK routine of the dense eigensolve, less its
    trailing info; a nonzero info raises a NumericalError."""
    import scipy.linalg

    *outputs, info = getattr(scipy.linalg.lapack, routine)(*args, **kwargs)
    if info:
        raise NumericalError(f"dense eigensolve failed: {routine} returned "
                             f"info {info}")
    return outputs


def _top_eigenpairs(
    apply, n: int, k: int, tol: float = 0.0, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """The k largest eigenpairs, ascending, of the symmetric operator ``apply``.

    ``apply`` maps an n-vector or an n x m block to its image, with n above
    ``_DENSE_ORDER``: ARPACK's Lanczos (Lehoucq, Sorensen & Yang, 1998)
    runs to the relative accuracy ``tol`` (0 asks for machine precision)
    from a seeded start vector, so repeated runs return bitwise equal
    vectors. Without ``vectors`` only the values are computed, and None
    stands for the vectors. Smaller orders solve the formed blocks instead
    (``_top_of_pencil``, ``_lowest_eigenvalue``).
    """
    # imported here: scipy.sparse.linalg costs start-up time and memory
    # that only the large orders need
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    op = LinearOperator((n, n), matvec=apply, matmat=apply, dtype=float)
    start = np.random.default_rng(0).standard_normal(n)
    try:
        result = eigsh(op, k=k, which="LA", tol=tol, v0=start,
                       return_eigenvectors=vectors)
    except ArpackError as exc:
        raise NumericalError(f"Lanczos eigensolve failed: {exc}") from exc
    if not vectors:
        return np.sort(result), None
    order = np.argsort(result[0])
    return result[0][order], result[1][:, order]


def _lower_solver(factor: np.ndarray):
    """The map (y, trans) -> factor^{-1} y, or factor^{-T} y with ``trans``
    1, by one BLAS call.

    ``factor`` is a Fortran-ordered lower triangular matrix, as LAPACK's
    ``dpotrf`` returns it, and only its lower triangle is read; a vector
    takes ``dtrsv`` and an n x m block ``dtrsm``. The BLAS routines are
    looked up once here, not on each of the solver's many calls.
    """
    import scipy.linalg

    dtrsv, dtrsm = scipy.linalg.blas.dtrsv, scipy.linalg.blas.dtrsm

    def solve(y: np.ndarray, trans: int) -> np.ndarray:
        if y.ndim == 1:
            return dtrsv(factor, y, lower=1, trans=trans)
        return dtrsm(1.0, factor, y, lower=1, trans_a=trans)

    return solve


def _lowest_eigenvalue(r_bottom: np.ndarray, factor: np.ndarray) -> float:
    """The smallest eigenvalue of r_bottom = L L^T, or an estimate of it
    that is at least as large.

    Up to order ``_DENSE_ORDER`` a values-only ``dsyevd`` reads it off the
    formed block. Above it, it is estimated as 1 / lambda_max(r_bottom^{-1})
    by Lanczos on the factor: a Ritz value never exceeds lambda_max, so
    the loose tolerance can only overstate lambda_min by a relative 1e-8.
    """
    n = r_bottom.shape[0]
    if n <= _DENSE_ORDER:
        # r_bottom is symmetric: its transpose is the Fortran-ordered matrix
        values, _ = _lapack("dsyevd", r_bottom.T, compute_v=0, lower=1)
        return float(values[0])
    solve = _lower_solver(factor)
    inverse_top, _ = _top_eigenpairs(lambda y: solve(solve(y, 0), 1), n, 1,
                                     tol=1e-8, vectors=False)
    return 1.0 / float(inverse_top[-1])


def _denominator_factor(r_bottom: np.ndarray, trace: float,
                        floor: float) -> np.ndarray:
    """Cholesky factor L of r_bottom = L L^T, checked to be safely definite.

    The smallest eigenvalue of r_bottom must be at least 1e-12 times
    ``trace``, the trace of the whole denominator of which r_bottom is a
    diagonal block; otherwise the problem is rejected as ill posed rather
    than silently regularized. ``floor`` is a lower bound on that
    eigenvalue (0 when none is known): when it clears the floor, the
    factor is returned at once. Otherwise the eigenvalue is computed or
    estimated from above (``_lowest_eigenvalue``); as floor <= lambda_min,
    the certificate accepts only blocks that the estimate accepts, and the
    errors are the estimate's.
    """
    import scipy.linalg

    ill_posed = (
        "denominator dual Gram is numerically singular; the coarse space "
        "cannot represent all functionals (ill-posed quotient): "
    )
    # r_bottom is symmetric, so its transpose is the Fortran-ordered matrix
    # that LAPACK takes without a transposing copy; the factor's upper
    # triangle keeps stale entries, which the triangular solves never read
    factor, info = scipy.linalg.lapack.dpotrf(r_bottom.T, lower=1, clean=0)
    if info > 0:
        raise NumericalError(
            ill_posed + f"its Cholesky factorization failed ({info}-th "
            f"leading minor of the array is not positive definite), so "
            f"lambda_min/trace is at or below roundoff, under the floor "
            f"{_PD_FLOOR:.0e}"
        )
    if floor >= _PD_FLOOR * trace:
        return factor
    margin = (_lowest_eigenvalue(r_bottom, factor)
              / max(trace, np.finfo(float).tiny))
    if margin < _PD_FLOOR:
        raise NumericalError(
            ill_posed + f"estimated lambda_min/trace {margin:.3e} is under the "
            f"floor {_PD_FLOOR:.0e}"
        )
    return factor


def _top_of_pencil(r_top, factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top two eigenvalues, ascending, of r_top F = lambda L L^T F, and the
    maximizer F = L^{-T} y of the top one, normalized to F^T L L^T F = 1.

    Up to order ``_DENSE_ORDER``, ``r_top`` is the block as a matrix:
    LAPACK's ``dsygst`` reduces the pair on the factor to the standard form
    L^{-1} r_top L^{-T}, and ``dsyevd`` computes its full spectrum (the
    index-subset drivers can return no eigenvalue at all for a tight
    cluster, as at q = r). Both read only lower triangles, so the
    factor's stale upper triangle and roundoff skew in r_top are never
    seen. Above that order, ``r_top`` is a matrix or an operator that maps
    an n-vector or an n x m block to its image, and Lanczos runs on the
    standard form applied through it.
    """
    n = factor.shape[0]
    solve = _lower_solver(factor)
    if n <= _DENSE_ORDER:
        # r_top is symmetric: its transpose is the Fortran-ordered matrix
        (reduced,) = _lapack("dsygst", r_top.T, factor, lower=1)
        values, vectors = _lapack("dsyevd", reduced, lower=1, overwrite_a=1)
        values = values[-2:]
    else:
        apply = _operator(r_top)
        values, vectors = _top_eigenpairs(
            lambda y: solve(apply(solve(y, 1)), 0), n, 2)
    return values, solve(vectors[:, -1], 1)


def _operator(r_top):
    """The map v -> r_top v of a block given as a matrix or an operator."""
    return r_top.__matmul__ if isinstance(r_top, np.ndarray) else r_top


def _max_over_blocks(pairs, trace: float, frobenius: float,
                     stages: dict | None = None):
    """Top eigenpair of a block-diagonal pencil, one block pair at a time.

    ``pairs`` yields (r_top, r_bottom, copies, floor) per solved diagonal
    block: r_top is the block as a matrix up to order ``_DENSE_ORDER``,
    and above it a matrix or an operator that maps an n-vector or an n x m
    block to its image (``_top_of_pencil``), r_bottom the block as a
    matrix, copies the number of diagonal blocks with this spectrum (2
    where a mirror block is not solved), and floor a lower bound on the
    smallest eigenvalue of r_bottom as formed, or 0. ``trace`` is the
    trace of the whole r_bottom: each
    block's smallest eigenvalue is checked against 1e-12 times it, which is
    the whole pencil's check, as the smallest eigenvalue of r_bottom is the
    smallest over its blocks; a block whose floor clears it skips the
    inverse eigensolve that estimates it (``_denominator_factor``). The
    spectrum of the pencil is the union of the block spectra: the value is
    the largest block top, the tie flag compares the top two over all
    blocks, each counted ``copies`` times, and the residual is the winning
    block's defect relative to ``frobenius``, the norm ||r_top||_F of the
    whole r_top. ``stages`` adds up the seconds spent forming the blocks
    (``grams``) and solving them (``eigensolve``). Returns (value, tie,
    winning position in ``pairs``, its maximizer, residual).
    """
    if stages is None:
        stages = {"grams": 0.0, "eigensolve": 0.0}
    tops, best = [], None
    clock = time.perf_counter()
    for index, (r_top, r_bottom, copies, floor) in enumerate(pairs):
        now = time.perf_counter()
        stages["grams"] += now - clock
        values, maximizer = _top_of_pencil(
            r_top, _denominator_factor(r_bottom, trace, floor))
        tops.extend(values.tolist() * copies)
        value = tops[-1]
        if best is None or value > best[0]:
            defect = (_operator(r_top)(maximizer)
                      - value * (r_bottom @ maximizer))
            best = value, index, maximizer, float(np.linalg.norm(defect))
        clock = time.perf_counter()
        stages["eigensolve"] += clock - now
    stages["grams"] += time.perf_counter() - clock
    value, index, maximizer, defect = best
    tops.sort()
    tie = len(tops) >= 2 and (value - tops[-2]) <= 1e-12 * max(1.0, abs(value))
    scale = frobenius * np.linalg.norm(maximizer)
    residual = defect / max(scale, np.finfo(float).tiny)
    return value, tie, index, maximizer, residual


def saturation_coefficient(
    spec: ProblemSpec, factors: dict | None = None
) -> SaturationResult:
    """Compute the saturation coefficient for one problem spec.

    Forms the dual Gram of the intermediate (degree q) space block by
    block, and that of the fine (degree r) space only in its blocks of
    order up to ``_DENSE_ORDER``: larger ones are applied by products of
    their 1D factors without being formed. Extracts the largest generalized
    eigenvalue over the blocks; the maximizer is returned in the family's
    full load order. The returned residual is the relative defect of the
    eigenpair and should be tiny.

    The 1D factors of both spaces, and the edge weights of families B and
    C, are looked up in ``factors``, a table filled on a miss (see
    ``_sides``). A caller that passes one table to many calls, as a sweep
    does, builds each of them once; without a table the call starts from
    an empty one of its own.
    """
    start = time.perf_counter()
    if factors is None:
        factors = {}
    blocks = _spec_blocks(spec)
    sides = (_sides(spec, degree, factors) for degree in (spec.r, spec.q))
    fine, mid = ([_pair(block, xs, ys) for block in blocks] for xs, ys in sides)
    stages = {"factors": time.perf_counter() - start, "grams": 0.0,
              "eigensolve": 0.0}
    clock = time.perf_counter()
    trace = _gram_trace(blocks, mid)
    frobenius = _gram_norm(blocks, fine)
    solved, fine, mid = ([item for block, item in zip(blocks, items) if block.copies]
                         for items in (blocks, fine, mid))
    # each entry of a coarse block sums at most (q + 1)^2 mode terms, so the
    # rounding in forming it has a norm of about this at most, and moves its
    # eigenvalues by no more (Weyl)
    rounding = (spec.q + 1) ** 2 * np.finfo(float).eps * trace
    floors = [floor - rounding for floor in _gram_floors(solved, mid)]
    stages["grams"] += time.perf_counter() - clock
    pairs = zip(_tops(solved, fine), _grams(solved, mid),
                (block.copies for block in solved), floors)
    value, tie, index, maximizer, residual = _max_over_blocks(
        pairs, trace, frobenius, stages)
    size = sum(block.index.size for block in blocks)
    return SaturationResult(
        spec=spec,
        mu=float(np.sqrt(value)),
        mu_squared=float(value),
        maximizer=_embed(solved[index], maximizer, size),
        dim_H=_dimension(spec, spec.r),
        dim_V=_dimension(spec, spec.q),
        dim_F=size,
        residual=float(residual),
        tie=tie,
        wall_seconds=time.perf_counter() - start,
        stages=stages,
    )
