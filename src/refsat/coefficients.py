"""Saturation coefficients of nested discrete spaces on the reference square.

A problem is a triple of degrees p <= q <= r together with a load family and
a Dirichlet edge set. The coefficient measures how much dual norm is lost
when the fine space of degree r is replaced by the intermediate space of
degree q:

    mu = max over functionals F of  ||F||_(fine dual) / ||F||_(coarse dual),

computed as the square root of the largest generalized eigenvalue of the
pair of dual Gram matrices R = L A^{-1} L^T (L the load matrix, A the
stiffness matrix). mu >= 1 always, mu = 1 up to rounding when q = r, and
small mu - 1 certifies that the intermediate space already captures the
loads.

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
from typing import NamedTuple

import numpy as np

from refsat.assembly import BOTTOM, LEFT, RIGHT, TOP, factor_conditions, normalize_edges
from refsat.bases import BoundaryCondition1D

# scipy.linalg is imported by saturation_coefficient and the kernels: it
# costs about a quarter second of start-up, which the patch checks and the
# help text never need

__all__ = [
    "FAMILIES",
    "Q_STRATEGIES",
    "CANONICAL_PROBLEMS",
    "NumericalError",
    "ProblemSpec",
    "SaturationResult",
    "estimated_seconds",
    "q_strategy",
    "saturation_coefficient",
]

FAMILIES = ("A", "B", "C")

#: admissible rules for choosing the intermediate degree from p
Q_STRATEGIES = ("p+4", "p+ceil(p/7)", "2p")

#: the ten canonical problems: five Dirichlet classes with volume loads,
#: four with edge loads, and the quotient problem. Edge loads act on edge 1,
#: so edge 1 never carries a Dirichlet condition in an F class
CANONICAL_PROBLEMS: dict[str, tuple[str, frozenset[int] | None]] = {
    "E1": ("A", frozenset({RIGHT})),
    "E2": ("A", frozenset({RIGHT, TOP})),
    "E3": ("A", frozenset({RIGHT, LEFT})),
    "E4": ("A", frozenset({RIGHT, TOP, LEFT})),
    "E5": ("A", frozenset({RIGHT, TOP, LEFT, BOTTOM})),
    "F1": ("B", frozenset({TOP})),
    "F2": ("B", frozenset({LEFT})),
    "F3": ("B", frozenset({TOP, LEFT})),
    "F4": ("B", frozenset({TOP, LEFT, BOTTOM})),
    "C": ("C", None),
}


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
        if self.family == "B" and ("B", edges) not in CANONICAL_PROBLEMS.values():
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
    #: seconds spent solving the 1D factors' chains, gathering their probe
    #: rows up to p, computing the edge weights and each block's load rows
    #: and weights (``factors``); the trace, the fine norm
    #: and the definiteness bounds, and forming each coarse block and each
    #: fine one of order up to 100 (``grams``); and factoring each coarse
    #: block, checking it is definite, solving its pencil (above order 100
    #: one Lanczos run through its inverse and the fine products), and
    #: taking the defect of the maximizer (``eigensolve``). A family-A block
    #: above order 300 is on the Schur route and forms nothing: its classes'
    #: shared setups, its corner factor, its run and any CG solves in it are
    #: all ``eigensolve``
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


class _Modes(NamedTuple):
    """One class of a 1D factor in its eigenbasis, before its probe rows are
    gathered (``_probe_rows``)."""

    #: eigenvalues of the pencil S v = lambda M v; the constant of a free
    #: factor (lambda = 0) comes first and is no chain mode
    lam: np.ndarray
    #: Q[j, i], the unit eigenvectors of the chain's tridiagonal mass, one
    #: row per member j
    vec: np.ndarray
    #: sqrt(theta_i) of each chain mode: V = Q diag(root)^(-1)
    root: np.ndarray
    #: member[s, k] and coeff[s, k], the member whose term s is L_k and its
    #: coefficient (0 where no member has L_k as term s), for k up to the
    #: factor's degree
    member: np.ndarray
    coeff: np.ndarray


class _Factor(NamedTuple):
    """One 1D factor basis, or one parity class of it, with its probe rows."""

    #: eigenvalues of the pencil S v = lambda M v
    lam: np.ndarray
    #: W[k, i] = <phi_k, v_i> for the probes phi_k of degree k that load the
    #: modes, one row per degree from 0 up to the cell's load degree p
    loads: np.ndarray


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


def _chain_lengths(bc: BoundaryCondition1D, degree: int) -> tuple[int, ...]:
    """The number of members of each chain of ``_chains(bc, degree)``: one
    chain of ``degree`` with one Dirichlet end, else the even and the odd
    one."""
    ends = bc.dirichlet_at_minus1 + bc.dirichlet_at_plus1
    return (degree,) if ends == 1 else (degree // 2, (degree + 1 - ends) // 2)


def _class_sizes(bc: BoundaryCondition1D, degree: int) -> tuple[int, ...]:
    """The number of modes of each class of ``_classes(bc, degree)``: its
    chain's members, and with no Dirichlet end the constant in the even
    class."""
    lengths = _chain_lengths(bc, degree)
    free = not (bc.dirichlet_at_minus1 or bc.dirichlet_at_plus1)
    return (lengths[0] + free,) + lengths[1:]


def _mass(index: np.ndarray, coeff: np.ndarray, degree: int):
    """Diagonal and off-diagonal of the tridiagonal mass of a chain."""
    norms = 2.0 / (2.0 * np.arange(degree + 1) + 1.0)
    weighted = coeff * norms[index]
    off = sum(weighted[:-1, s] * coeff[1:, t] * (index[:-1, s] == index[1:, t])
              for s in (0, 1) for t in (0, 1))
    return (coeff * weighted).sum(axis=1), off


def _chain(index: np.ndarray, coeff: np.ndarray, degree: int) -> _Modes:
    """Modes of the members of a chain (see ``_chains``).

    With S = I, S v = lambda M v is M v = v / lambda: one LAPACK ``dstevd``
    call gives the eigenpairs theta, Q of the tridiagonal M, so
    lambda = 1 / theta and V = Q diag(theta)^(-1/2). Q is kept unscaled,
    with the members that carry each Legendre degree, for ``_probe_rows``.
    """
    n = len(index)
    theta, vec = np.ones(0), np.zeros((0, 0))
    if n:
        import scipy.linalg

        diag, off = _mass(index, coeff, degree)
        # dstevd reads no coupling at order 1 but takes an array of one
        theta, vec, info = scipy.linalg.lapack.dstevd(
            diag, off if n > 1 else np.zeros(1))
        if info:
            raise NumericalError(f"1D eigensolve failed: dstevd returned info {info}")
        if theta[0] <= 0.0:
            raise NumericalError("1D eigensolve failed: the mass is not definite")
    member = np.zeros((2, degree + 1), dtype=int)
    terms = np.zeros((2, degree + 1))
    column = np.arange(2)[:, np.newaxis]
    member[column, index.T] = np.arange(n)
    terms[column, index.T] = coeff.T
    return _Modes(1.0 / theta, vec, np.sqrt(theta), member, terms)


def _classes(bc: BoundaryCondition1D, degree: int) -> tuple[_Modes, ...]:
    """The 1D factor of degree ``degree`` with ends ``bc``, one ``_Modes``
    per class: one per chain of ``_chains``, and with no Dirichlet end the
    constant (lambda = 0) joins the even chain.
    """
    classes = [_chain(index, coeff, degree) for index, coeff in _chains(bc, degree)]
    if _symmetric(bc) and not bc.dirichlet_at_minus1:
        classes[0] = classes[0]._replace(lam=np.concatenate(([0.0], classes[0].lam)))
    return tuple(classes)


def _probe_rows(modes: _Modes, p: int) -> _Factor:
    """A class of a 1D factor with its load rows of the probes up to degree
    p <= its degree.

    The probe phi_k = sqrt(k + 1/2) L_k loads a mode with sqrt(2/(2k+1))
    times its L_k coefficient. L_k is a term of at most two members of a
    chain, one per column of ``_chains``, so row k is c_0 V[j_0] + c_1 V[j_1]
    for those members j_s and their coefficients c_s: the rows up to p
    take O(p n) for n modes, and no full load matrix of all degree + 1
    probes is formed. The constant of a free factor is loaded by phi_0
    alone, with exactly 1. The rows of the other parity of a parity class
    are exactly zero, and ``_class_probes`` never asks for them.
    """
    lam, vec, root, member, coeff = modes
    loads = np.zeros((p + 1, lam.size))
    first = lam.size - root.size
    loads[0, :first] = 1.0
    if root.size:
        terms = vec[member[:, :p + 1]] / root
        terms *= coeff[:, :p + 1, np.newaxis]
        rows = loads[:, first:]
        np.add(terms[0], terms[1], out=rows)
        rows *= np.sqrt(2.0 / (2.0 * np.arange(p + 1) + 1.0))[:, np.newaxis]
    return _Factor(lam, loads)


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


def _probed(args: tuple, p: int, factors: dict) -> tuple[_Factor, ...]:
    """The classes of the 1D factor ``args`` = (bc, degree) with their probe
    rows up to p, looked up in ``factors`` and filled in on a miss: the
    modes of ``_classes`` under (bc, degree), so that every p shares one
    eigensolve, and the classes with their rows under (bc, degree, p)."""
    key = (*args, p)
    if key not in factors:
        if args not in factors:
            factors[args] = _classes(*args)
        factors[key] = tuple(_probe_rows(modes, p) for modes in factors[args])
    return factors[key]


def _sides(spec: ProblemSpec, degree: int, factors: dict) -> tuple[tuple, tuple]:
    """The x side and the y classes of the spec's space at ``degree``, with
    the probe rows up to the spec's p (``_probed``).

    The x side is the tuple of x classes for family A. Families B and C
    see x only through the right-edge trace, and their x side is the edge
    weights of each y class instead (``_edge_weights``); no x factor is
    built. Both are looked up in ``factors`` and filled in on a miss, the
    edge weights under ("edge", bc_x, bc_y, degree).
    """
    x_args, y_args = _factor_args(spec, degree)
    ys = _probed(y_args, spec.p, factors)
    if spec.family == "A":
        return _probed(x_args, spec.p, factors), ys
    key = ("edge", x_args[0], *y_args)
    if key not in factors:
        weights = _edge_weights(x_args[0], degree, np.concatenate([f.lam for f in ys]))
        factors[key] = tuple(np.split(weights, np.cumsum([f.lam.size for f in ys])[:-1]))
    return factors[key], ys


class _Block(NamedTuple):
    """One diagonal block of a dual Gram and its rows in the family's load order.

    Loads are probe pairs (a, b) at a * (p + 1) + b for family A, with the x
    probe outermost, and probe degrees for families B and C (from 1 for C),
    whose x side is one row that the edge weights load (see ``_pair``). The
    block has row k at ``index[k]``.
    """

    #: the x class contracted, None for families B and C
    x: int | None
    #: the y class contracted
    y: int
    #: x and y probe degrees: the block loads are px x py, py for B and C
    px: np.ndarray | None
    py: np.ndarray
    #: the number of rows
    order: int
    index: np.ndarray
    #: blocks of this spectrum that the eigensolve counts: 2 for a block
    #: whose mirror under the probe swap is not solved, 0 for that mirror
    copies: int = 1


def _spec_blocks(spec: ProblemSpec) -> list[_Block]:
    """Diagonal blocks of the spec's dual Grams (both degrees alike),
    skipping those without loads.

    Family A has one block per pair of x and y classes, and families B and
    C one per y class. Equal end conditions of the x and y factors mean
    equal factors. With equal symmetric factors (E5), the (odd, even) block
    is the probe swap of the (even, odd) one, with the same spectrum: only
    the latter is solved, and counted twice. Equal non-symmetric factors
    (E2) have one class, whose pair is one block of order (p + 1)^2. The
    probe swap would split it in halves, but no block above
    ``_SCHUR_ORDER`` is formed, and below it the cells up to p = 16 took
    no longer whole.
    """
    (bc_x, _), (bc_y, _) = _factor_args(spec, spec.p)
    first = 1 if spec.family == "C" else 0
    ys = [k[k >= first] for k in _class_probes(bc_y, spec.p)]
    if spec.family != "A":
        return [_Block(None, y, None, py, py.size, py - first)
                for y, py in enumerate(ys) if py.size]
    n = spec.p + 1
    mirrored = bc_x == bc_y
    return [_Block(x, y, px, py, px.size * py.size,
                   (px[:, np.newaxis] * n + py).ravel(),
                   copies=2 * (x < y) if mirrored and x != y else 1)
            for x, px in enumerate(_class_probes(bc_x, spec.p))
            for y, py in enumerate(ys) if px.size and py.size]


def _embed(block: _Block, rows: np.ndarray, size: int) -> np.ndarray:
    """Place the block rows of ``rows`` in the family's load order of
    ``size``."""
    out = np.zeros((size,) + rows.shape[1:])
    out[block.index] = rows
    return out


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
    wy = fy.loads[block.py]
    if block.x is None:
        return np.ones((1, 1)), wy, xs[block.y][np.newaxis]
    fx = xs[block.x]
    return fx.loads[block.px], wy, 1.0 / (fx.lam[:, np.newaxis] + fy.lam)


def _volume_gram(wx: np.ndarray, wy: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The dual Gram of the probe pairs of wx x wy, x probe outermost.

    R[(a, b), (c, d)] = sum_i xx[a, c, i] z[b, i, d] with xx[a, c, i] =
    wx[a, i] wx[c, i] and the weighted y side z[b, i, d] = sum_j
    weights[i, j] wy[b, j] wy[d, j], contracted first in one product; then
    one batched product of xx[a] against z[b] writes each R[(a, b), :, :]
    in place, so the block is formed in its final order, with no
    transposing copy and no other array of its size. A class may have no
    modes at low degrees, hence the explicit sizes. With the 1 x 1 identity
    for wx, the block is exactly (wy * e) @ wy.T for the edge weights e.
    """
    mx, (ny, my) = wx.shape[1], wy.shape
    z = (wy[:, np.newaxis, :] * weights).reshape(ny * mx, my) @ wy.T
    xx = wx[:, np.newaxis, :] * wx
    n = len(wx) * ny
    return np.matmul(xx[:, np.newaxis], z.reshape(ny, mx, ny)).reshape(n, n)


def _product(wx: np.ndarray, wy: np.ndarray, weights: np.ndarray):
    """v -> R v for the dual Gram R of the ``_pair`` triple (wx, wy,
    weights), without forming it.

    With V the nx x ny reshape of a vector v of its class pair (x probe
    outermost), the pair's Gram applies as Wx (G o (Wx^T V Wy)) Wy^T for
    the weights G.
    """
    nx, ny = len(wx), len(wy)

    def apply(v: np.ndarray) -> np.ndarray:
        modes = weights * (wx.T @ v.reshape(nx, ny) @ wy)
        return (wx @ modes @ wy.T).ravel()

    return apply


def _gram_trace(triples: list) -> float:
    """Trace of the whole dual Gram, the sum of the traces of its blocks'
    ``_pair`` triples.

    The diagonal of a block contracts the squared load rows, so the trace
    is sx G sy per class pair and no block is formed.
    """
    return float(sum((wx ** 2).sum(axis=0) @ weights @ (wy ** 2).sum(axis=0)
                     for wx, wy, weights in triples))


def _gram_norm(triples: list) -> float:
    """Frobenius norm of the whole dual Gram, from the 1D factors of its
    blocks' ``_pair`` triples.

    A class pair contributes trace(G^T Px G Py), with G its weights and
    Px = (Wx^T Wx) o (Wx^T Wx), Py the same for y. Every term is
    non-negative, and no block is formed.
    """
    return float(np.sqrt(sum(
        np.sum(((wx.T @ wx) ** 2 @ weights @ (wy.T @ wy) ** 2) * weights)
        for wx, wy, weights in triples)))


def _load_floor(bc: BoundaryCondition1D, degree: int, cls: int,
                probes: np.ndarray) -> float:
    """lambda_min(W W^T) for the load rows W of ``probes`` in class ``cls``
    of the 1D factor of degree ``degree`` with ends ``bc``. W W^T is the
    Gram of the probes' projections onto the class's L2-orthonormal modes:
    I without a Dirichlet end. An end e takes g = sum_K phi_k(e) phi_k out
    of the span of the class's probe degrees K (a second end the same g out
    of a parity class); as phi_k(e)^2 = k + 1/2, I - u u^T / ||g||^2 with
    u_k = phi_k(e) has lambda_min = 1 - sum_probes (k + 1/2) /
    sum_K (k + 1/2), exactly 0 when the probes are all of K.
    """
    if not (bc.dirichlet_at_minus1 or bc.dirichlet_at_plus1):
        return 1.0
    span = _class_probes(bc, degree)[cls]
    return 1.0 - (probes + 0.5).sum() / (span + 0.5).sum()


def _gram_floors(spec: ProblemSpec, blocks: list[_Block], triples: list) -> list[float]:
    """A lower bound on the smallest eigenvalue of each coarse block: a
    class pair's Gram B D B^T, B = Wx (x) Wy and D its weights, is at least
    min(D) lambda_min(Wx Wx^T) lambda_min(Wy Wy^T) (``_load_floor``; 1 for
    the 1 x 1 x side of a B or C block). No block is formed. The caller's
    (q + 1)^2 eps trace allowance also absorbs the 1D factors' rounding of
    W W^T: at degree 256 at most 7.9e-12 relative, against 1.5e-11.
    """
    (bc_x, _), (bc_y, _) = _factor_args(spec, spec.q)
    floors = []
    for block, (_, _, weights) in zip(blocks, triples):
        floor = _load_floor(bc_y, spec.q, block.y, block.py)
        if block.x is not None:
            floor *= _load_floor(bc_x, spec.q, block.x, block.px)
        # a class without modes has floor 0 and weights without extremes
        floors.append(floor and floor * float(weights.min()))
    return floors


def _dimension(spec: ProblemSpec, degree: int) -> int:
    """Dimension of the spec's space at ``degree``: a 1D factor of degree d
    has d + 1 members less one per Dirichlet end, and the quotient space
    leaves out the constant tensor member."""
    nx, ny = (d + 1 - bc.dirichlet_at_minus1 - bc.dirichlet_at_plus1
              for bc, d in _factor_args(spec, degree))
    return nx * ny - (spec.family == "C")


#: orders up to which the eigensolves form both blocks; above it the fine
#: block is applied by products, and the coarse one formed and factored
#: up to ``_SCHUR_ORDER``. A Lanczos run beats a dense eigensolve of the
#: formed pair well below the cut where q >= 2p (E1 (12, 32, 64), order
#: 91: 0.25 against 0.55 ms), and the two are about even up to it where q
#: is close to p (E1 (12, 14, 28), order 91: 0.61 against 0.58 ms)
_DENSE_ORDER = 100

#: orders above which a family-A block is never formed: it is solved
#: through the Schur complement of its Kronecker sum (``_schur_inverse``),
#: exactly or by CG. With the cut at 100 instead, E3 and E5 (28, 32, 64)
#: moved within their spread, but E1 (16, 32, 64), whose blocks would go
#: to CG, took 6.4-7.2 against 2.8-2.9 ms (best of nine, one BLAS thread)
_SCHUR_ORDER = 300

#: the most steps a Lanczos run may take short of its operator's order, and
#: the most iterations of a CG solve; the blocks of the published cells
#: converge within 17 steps and 11 iterations
_LANCZOS_STEPS = 300

#: relative residual at which a CG solve of a coarse block stops
_CG_TOL = 1e-13

#: relative floor on the smallest eigenvalue of the denominator dual Gram
_PD_FLOOR = 1e-12

#: relative gap under which the top two eigenvalues of a pencil tie
_TIE = 1e-12

#: relative norm under which a Lanczos direction spans nothing new
_BREAKDOWN = _TIE / 10

#: the start of the message of each rejection of a singular coarse block
_ILL_POSED = ("denominator dual Gram is numerically singular; the coarse space "
              "cannot represent all functionals (ill-posed quotient): ")


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
    apply, n: int, k: int, tol: float = 0.0, inner=None
) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenpairs, ascending, of the symmetric operator ``apply``.

    ``apply`` maps an n-vector to its image. Lanczos with full
    reorthogonalization (Parlett, The Symmetric Eigenvalue Problem, ch. 13):
    each image is orthogonalized twice against every basis vector
    (classical Gram-Schmidt twice), so the basis stays orthonormal to
    working precision and needs no restart. After each step LAPACK
    ``dstevd`` solves the tridiagonal projection T; beta |s_i[-1]| bounds
    the residual of its Ritz pair (theta_i, s_i), beta the norm of the
    step's new direction. The run stops once the top pair has
    beta |s[-1]| <= max(tol, eps) |theta| (``tol`` 0 asks for machine
    precision) and each of the k - 1 below it meets the same bound or lies
    wholly below the tie gap, theta_i + beta |s_i[-1]| < theta - ``_TIE``
    max(1, |theta|), or once the basis spans all n. So a lower pair is
    either converged or a Ritz value, a lower bound on its eigenvalue,
    certified more than the gap below the top: it decides the tie flag of
    ``_max_over_blocks`` as a converged one would. A near tie inside the
    gap keeps the top pair from converging until the run resolves both.
    A direction of norm at most ``_BREAKDOWN`` times its image's (1e-15 to
    2.2e-14 on the identity of a q = r block) spans nothing new: T takes
    0 for its coupling, so a run of k steps or more stops there, every
    residual bound reading 0, and a shorter one restarts from a fresh
    vector orthogonal to the basis. The image's norm is at most the
    operator's, so each Ritz value is then within 1e-13 of that norm of an
    eigenvalue: a tenth of the tie gap, far under the 1e-8 of a
    definiteness estimate. Start vectors come from a seeded generator, so
    repeated runs return bitwise equal results. The basis grows with the
    steps taken, not with n; a run that has not converged after
    ``_LANCZOS_STEPS`` steps raises a NumericalError.

    ``inner`` (v -> M v, M definite) makes every inner product and norm
    that of M, and the operator ``apply`` of M v, self-adjoint in M for a
    symmetric ``apply``, as K^{-1} M of a pencil M F = lambda K F with
    ``apply`` = K^{-1}. The basis is M-orthonormal; M times each basis
    vector is kept from one ``inner`` call per step for the image and the
    projections.
    """
    import scipy.linalg

    rng = np.random.default_rng(0)
    eps = np.finfo(float).eps
    bound = max(tol, eps)
    most = min(n, _LANCZOS_STEPS)

    def metric(v: np.ndarray) -> tuple[np.ndarray, float]:
        """M v (v itself without ``inner``) and the norm of v."""
        mv = v if inner is None else inner(v)
        return mv, np.sqrt(v @ mv)

    # the basis, and M times it, double as the run needs rows
    basis, alpha, beta = np.empty((min(most, 16), n)), np.empty(most), np.empty(most)
    mbasis = basis if inner is None else np.empty_like(basis)
    direction = rng.standard_normal(n)
    mdirection, norm = metric(direction)
    for steps in range(1, most + 1):
        if steps > len(basis):
            rows = (min(most, 2 * len(basis)), n)
            basis = np.resize(basis, rows)
            mbasis = basis if inner is None else np.resize(mbasis, rows)
        basis[steps - 1] = direction / norm
        if inner is not None:
            mbasis[steps - 1] = mdirection / norm
        kept, mkept = basis[:steps], mbasis[:steps]
        image = apply(mkept[-1])
        coeffs = mkept @ image
        alpha[steps - 1] = coeffs[-1]
        direction = image - kept.T @ coeffs
        direction -= kept.T @ (mkept @ direction)
        mdirection, norm = metric(direction)
        beta[steps - 1] = norm
        # the image's norm is that of its projection and of the direction
        if norm <= _BREAKDOWN * np.hypot(np.linalg.norm(coeffs), norm):
            beta[steps - 1] = 0.0
            direction = rng.standard_normal(n)
            for _ in range(2):
                direction -= kept.T @ (mkept @ direction)
            mdirection, norm = metric(direction)
        # dstevd reads no coupling at order 1 but takes an array of one
        theta, ritz, info = scipy.linalg.lapack.dstevd(alpha[:steps],
                                                      beta[:max(steps - 1, 1)])
        if info:
            raise NumericalError(f"Lanczos eigensolve failed: dstevd returned "
                                 f"info {info}")
        first = max(steps - k, 0)
        values = theta[first:].tolist()
        residuals = (beta[steps - 1] * np.abs(ritz[-1, first:])).tolist()
        gap = values[-1] - _TIE * max(1.0, abs(values[-1]))
        # a lower pair may lie wholly below the tie gap instead; the top
        # pair never does, so it must converge
        if steps == n or (steps >= k and all(
                residual <= bound * abs(value) or value + residual < gap
                for value, residual in zip(values, residuals))):
            break
    else:
        raise NumericalError(
            f"Lanczos eigensolve failed: the top {k} Ritz pairs of an operator "
            f"of order {n} did not converge in {_LANCZOS_STEPS} steps")
    return theta[first:], kept.T @ ritz[:, first:]


def _cholesky(r_bottom: np.ndarray) -> np.ndarray:
    """The Cholesky factor L L^T = r_bottom (LAPACK ``dpotrf``) of a formed
    coarse block, written over it, so that a cell holds one block, not a
    block and its factor; a failed one rejects the problem as ill posed."""
    import scipy.linalg

    # LAPACK factors the transpose in place; the factor's upper triangle
    # keeps stale entries, which the triangular products and solves never
    # read
    factor, info = scipy.linalg.lapack.dpotrf(r_bottom.T, lower=1, clean=0,
                                              overwrite_a=1)
    if info > 0:
        raise NumericalError(
            _ILL_POSED + f"its Cholesky factorization failed ({info}-th "
            f"leading minor of the array is not positive definite), so "
            f"lambda_min/trace is at or below roundoff, under the floor "
            f"{_PD_FLOOR:.0e}")
    return factor


def _solve_pencil(r_top: np.ndarray, factor: np.ndarray):
    """Top of the pencil r_top F = lambda L L^T F of one diagonal block of
    order up to ``_DENSE_ORDER``, with both blocks formed and ``factor``
    the ``_cholesky`` factor L of the coarse one.

    ``dsygst`` reduces the pair on the factor to the standard form
    L^{-1} r_top L^{-T}, and ``dsyevd`` computes its full spectrum (the
    index-subset drivers can return no eigenvalue at all for a tight
    cluster, as at q = r). These read only lower triangles, so the factor's
    stale upper triangle and roundoff skew in the blocks are never seen.

    Returns the top two eigenvalues, ascending (one at order 1), the
    maximizer F = L^{-T} y of the top one, normalized to F^T L L^T F = 1,
    and the norm of its defect r_top F - value L (L^T F).
    """
    from scipy.linalg.blas import dtrmv, dtrsv

    # r_top is symmetric: its transpose is the Fortran-ordered matrix
    (reduced,) = _lapack("dsygst", r_top.T, factor, lower=1)
    values, vectors = _lapack("dsyevd", reduced, lower=1, overwrite_a=1)
    maximizer = dtrsv(factor, vectors[:, -1], lower=1, trans=1)
    bottom = dtrmv(factor, dtrmv(factor, maximizer, lower=1, trans=1), lower=1)
    defect = r_top @ maximizer - values[-1] * bottom
    return values[-2:], maximizer, float(np.linalg.norm(defect))


def _conjugate_gradient(apply, precondition, b: np.ndarray) -> np.ndarray:
    """x with apply(x) = b for the definite operator ``apply``, by
    preconditioned CG from x = 0 (Hestenes & Stiefel, J. Res. NBS 1952).

    ``precondition`` applies a definite approximation of the inverse. The
    solve stops once the recurred residual is at most ``_CG_TOL`` times
    |b|; one that has not after ``_LANCZOS_STEPS`` iterations raises a
    NumericalError.
    """
    x, r = np.zeros_like(b), b.copy()
    z = precondition(r)
    direction, rz = z, r @ z
    target, iterations = _CG_TOL * np.linalg.norm(b), 0
    while np.linalg.norm(r) > target:
        if iterations == _LANCZOS_STEPS:
            raise NumericalError(
                f"CG solve failed: a coarse block of order {b.size} did not "
                f"converge in {_LANCZOS_STEPS} iterations")
        iterations += 1
        image = apply(direction)
        step = rz / (direction @ image)
        x += step * direction
        r -= step * image
        z = precondition(r)
        rz, previous = r @ z, rz
        direction = z + (rz / previous) * direction
    return x


def _schur_by_cg(modes: int, order: int) -> bool:
    """Whether ``_schur_inverse`` inverts a block of ``order`` rows whose
    class pair has ``modes`` mode pairs by CG: where its k = modes - order
    extra mode pairs are at least the order."""
    return modes >= 2 * order


def _schur_inverse(x: tuple, y: tuple, coarse):
    """v -> R^{-1} v for the dual Gram R = (Wx (x) Wy) G (Wx (x) Wy)^T of a
    family-A class pair from its ``_schur_sides`` and ``_pair`` triple
    ``coarse``, with no formed block.

    With G^{-1} = diag(lam_x) (+) diag(lam_y) and H the rotated sum
    Ax (+) Ay, R^{-1} is (Lx (x) Ly)^{-T} (H11 - H12 H22^{-1} H21)
    (Lx (x) Ly)^{-1}, set 1 being the n = nx ny mode pairs with a < nx and
    b < ny. The other k = mx my - n are the strips {a >= nx, b < ny}
    and {a < nx, b >= ny}, uncoupled Kronecker sums Ax22 (+) Ay11 and
    Ax11 (+) Ay22 solved in the sides' eigenbases (Lynch, Rice & Thomas,
    1964), and a corner of c = (mx - nx)(my - ny), which H12 does not
    reach. Only the corner's Schur complement is formed and factored, in
    (e2, f2) coordinates: diag(alpha2 (+) beta2) less Pe diag(dY[:, j])
    Pe^T on each column j and Fq^T diag(dX[i, :]) Fq on each row i, with
    Pe = e2^T Ax21 e1, Fq = f1^T Ay12 f2, dX = 1 / (alpha2 (+) beta1) and
    dY = 1 / (alpha1 (+) beta2). H11 and the couplings stay products in
    the load-row basis. Where k >= n, R^{-1} v is a ``_conjugate_gradient``
    solve on the block's ``_product``, preconditioned by the kernel
    without its corner (5 to 11 iterations a solve on the table).
    """
    # px = Pe^T, py = Fq
    ux, ax, ex, alpha1, alpha2, bx, px = x
    uy, ay, ey, beta1, beta2, by, py = y
    (nx, cx), (ny, cy) = px.shape, py.shape
    dx = 1.0 / (alpha2[:, np.newaxis] + beta1)
    dy = 1.0 / (alpha1[:, np.newaxis] + beta2)
    cg = _schur_by_cg((nx + cx) * (ny + cy), nx * ny)
    if not cg and cx * cy:
        corner = np.diag((alpha2[:, np.newaxis] + beta2).ravel())
        blocks = corner.reshape(cx, cy, cx, cy)
        rows, columns = np.arange(cx), np.arange(cy)
        blocks[rows, :, rows, :] -= (py.T * dx[:, np.newaxis]) @ py
        blocks[:, columns, :, columns] -= (px.T * dy.T[:, np.newaxis]) @ px
        # symmetric, so its transpose is Fortran-ordered
        (factor,) = _lapack("dpotrf", corner.T, lower=1, overwrite_a=1)

    def solve(v: np.ndarray, exact: bool) -> np.ndarray:
        # ux = Lx^{-T}: (Lx (x) Ly)^{-1} v is ux^T V uy on its nx x ny array
        modes = ux.T @ v.reshape(nx, ny) @ uy
        image = ax @ modes + modes @ ay
        strip_x = (bx.T @ modes @ ey) * dx
        strip_y = (ex.T @ modes @ by) * dy
        if exact and cx * cy:
            rhs = -(strip_x @ py + px.T @ strip_y).ravel()
            far = _lapack("dpotrs", factor, rhs, lower=1)[0].reshape(cx, cy)
            strip_x -= (far @ py.T) * dx
            strip_y -= (px @ far) * dy
        image -= bx @ strip_x @ ey.T + ex @ strip_y @ by.T
        return (ux @ image @ uy.T).ravel()

    if not cg:
        return lambda v: solve(v, True)
    product = _product(*coarse)
    return lambda v: _conjugate_gradient(product, lambda r: solve(r, False), v)


def _schur_route(block: _Block) -> bool:
    """Whether ``_solve_block`` inverts a block by ``_schur_inverse``,
    forming none: a family-A block of order above ``_SCHUR_ORDER``."""
    return block.x is not None and block.order > _SCHUR_ORDER


def _solve_lanczos(block: _Block, fine, mid, inverse):
    """Top of the pencil R_r F = lambda R_q F of one block above
    ``_DENSE_ORDER`` on either route: Lanczos (``_top_eigenpairs``) on
    R_q^{-1} R_r in the R_r inner product, each step one ``inverse``, the
    route's R_q^{-1}, and one ``_product`` of ``fine``, the ``_pair``
    triple at r (``mid`` at q). Returns what ``_solve_pencil`` returns, the
    maximizer rescaled to F^T R_q F = 1 by one coarse product that its
    defect reuses; the second value may be a Ritz value certified below
    the tie gap, which serves only the tie flag."""
    top, bottom = _product(*fine), _product(*mid)
    values, vectors = _top_eigenpairs(inverse, block.order, 2, inner=top)
    image = bottom(vectors[:, -1])
    scale = np.sqrt(vectors[:, -1] @ image)
    maximizer = vectors[:, -1] / scale
    defect = top(maximizer) - values[-1] * (image / scale)
    return values, maximizer, float(np.linalg.norm(defect))


def _schur_sides(spec: ProblemSpec, block: _Block, factors: dict) -> list:
    """The ``_schur_inverse`` share of a block's x and y classes at q, kept
    in ``factors`` under ("schur", bc, q, p, class) for all their blocks:
    for n load rows W = [L, 0] Q^T and A = Q^T diag(lam) Q, (L^{-T}, A11,
    e1, alpha1, alpha2, A12 e2, e1^T A12 e2) with A11 = e1 diag(alpha1)
    e1^T and A22 = e2 diag(alpha2) e2^T."""
    import scipy.linalg

    sides = []
    for args, cls, probes in zip(_factor_args(spec, spec.q), (block.x, block.y),
                                 (block.px, block.py)):
        key = ("schur", *args, spec.p, cls)
        if key not in factors:
            lam, loads = _probed(args, spec.p, factors)[cls]
            n = probes.size
            q, r = scipy.linalg.qr(loads[probes].T, check_finite=False)
            (u,) = _lapack("dtrtri", r[:n])
            a = (q.T * lam) @ q
            alpha1, e1 = _lapack("dsyevd", a[:n, :n], lower=1)
            alpha2, e2 = _lapack("dsyevd", a[n:, n:], lower=1)
            b = a[:n, n:] @ e2
            factors[key] = (u, a[:n, :n].copy(), e1, alpha1, alpha2, b, e1.T @ b)
        sides.append(factors[key])
    return sides


def _solve_block(block: _Block, fine, mid, floor: float, trace: float,
                 stages: dict, spec: ProblemSpec, factors: dict):
    """Check that one solved block's coarse block is definite, and solve
    its pencil through the route's inverse of it: on the Schur route
    (``_schur_route``) the ``_schur_inverse`` of its class pair, from the
    ``_schur_sides`` in ``factors``, with no block formed; otherwise two
    triangular solves on the ``_cholesky`` factor of the formed block.
    Above ``_DENSE_ORDER`` ``_solve_lanczos`` runs Lanczos through that
    inverse; up to it both blocks are formed and ``_solve_pencil`` solves
    the pair. ``fine`` and ``mid`` are the block's ``_pair`` triples at r
    and q; ``stages`` adds up the seconds of ``grams`` and ``eigensolve``.

    Unless ``floor``, a lower bound on the coarse block's smallest
    eigenvalue, is at least 1e-12 times ``trace``, that of the whole coarse
    dual Gram, a Lanczos run on the route's inverse estimates it as
    1 / lambda_max, at most a relative 1e-8 high; under the check the
    problem is rejected as ill posed.
    """
    clock = formed = time.perf_counter()
    dense = block.order <= _DENSE_ORDER
    if _schur_route(block):
        inverse = _schur_inverse(*_schur_sides(spec, block, factors), mid)
    else:
        from scipy.linalg.blas import dtrsv

        r_top = _volume_gram(*fine) if dense else None
        r_bottom = _volume_gram(*mid)
        formed = time.perf_counter()
        stages["grams"] += formed - clock
        factor = _cholesky(r_bottom)

        def inverse(v: np.ndarray) -> np.ndarray:
            return dtrsv(factor, dtrsv(factor, v, lower=1), lower=1, trans=1)

    if floor < _PD_FLOOR * trace:
        inverse_top, _ = _top_eigenpairs(inverse, block.order, 1, tol=1e-8)
        # trace > 0, as every block has passed its floor's singularity test
        margin = 1.0 / float(inverse_top[-1]) / trace
        if margin < _PD_FLOOR:
            raise NumericalError(_ILL_POSED + f"estimated lambda_min/trace "
                                 f"{margin:.3e} is under the floor {_PD_FLOOR:.0e}")
    solution = (_solve_pencil(r_top, factor) if dense
                else _solve_lanczos(block, fine, mid, inverse))
    stages["eigensolve"] += time.perf_counter() - formed
    return solution


def _max_over_blocks(solutions, copies, frobenius: float):
    """Top eigenpair of a block-diagonal pencil from the ``_solve_pencil``
    result of each solved diagonal block.

    ``copies`` gives the number of diagonal blocks with each block's
    spectrum (2 where a mirror block is not solved). The spectrum of the
    pencil is the union of the block spectra: the value is the largest
    block top, taken from the first block that reaches it, and the tie flag
    compares the top two over all blocks, each counted ``copies`` times.
    The residual is the winning block's defect norm relative to
    ``frobenius``, the norm ||r_top||_F of the whole r_top, times that of
    its maximizer. Returns (value, tie, winning block position, its
    maximizer, residual).
    """
    spectrum = sorted(value for (values, _, _), count in zip(solutions, copies)
                      for value in values.tolist() * count)
    tops = [float(values[-1]) for values, _, _ in solutions]
    value = max(tops)
    index = tops.index(value)
    _, maximizer, defect = solutions[index]
    tie = len(spectrum) >= 2 and (value - spectrum[-2]) <= _TIE * max(1.0, abs(value))
    scale = frobenius * np.linalg.norm(maximizer)
    residual = defect / max(scale, np.finfo(float).tiny)
    return value, tie, index, maximizer, residual


def saturation_coefficient(
    spec: ProblemSpec, factors: dict | None = None
) -> SaturationResult:
    """Compute the saturation coefficient for one problem spec.

    Forms the dual Gram of the intermediate (degree q) space block by
    block up to order ``_SCHUR_ORDER``, and that of the fine (degree r)
    space only in its blocks of order up to ``_DENSE_ORDER``: larger ones
    are applied by products of their 1D factors without being formed.
    Extracts the largest generalized eigenvalue over the blocks; the
    maximizer is returned in the family's full load order. The returned
    residual is the relative defect of the eigenpair and should be tiny.

    The 1D factors of both spaces, the edge weights of families B and C
    and the Schur route's class shares are looked up in ``factors``, a
    table filled on a miss (see ``_sides`` and ``_schur_sides``). A caller
    that passes one table to many calls, as a sweep does, builds each of
    them once; without a table the call starts from an empty one.
    """
    # imported before the clock starts: the first cell of a process would
    # otherwise time the import as its own work
    import scipy.linalg  # noqa: F401

    blocks = _spec_blocks(spec)
    start = time.perf_counter()
    if factors is None:
        factors = {}
    sides = [_sides(spec, degree, factors) for degree in (spec.r, spec.q)]
    fine, mid = ([_pair(block, xs, ys) for block in blocks] for xs, ys in sides)
    stages = {"factors": time.perf_counter() - start, "grams": 0.0,
              "eigensolve": 0.0}
    clock = time.perf_counter()
    trace = _gram_trace(mid)
    frobenius = _gram_norm(fine)
    solved, fine, mid = ([item for block, item in zip(blocks, items) if block.copies]
                         for items in (blocks, fine, mid))
    floors = _gram_floors(spec, solved, mid)
    for block, floor in zip(solved, floors):
        # exactly when a class has more probes than modes: the block is
        # singular, and is rejected before it is formed
        if floor == 0.0:
            classes = f"y class {block.y}" if block.x is None else (
                f"x class {block.x} and y class {block.y}")
            raise NumericalError(
                _ILL_POSED + f"the coarse block of {classes} is singular, as "
                f"one of its 1D classes has more probes than modes")
    # each entry of a coarse block sums at most (q + 1)^2 mode terms, so the
    # rounding in forming it has a norm of about this at most, and moves its
    # eigenvalues by no more (Weyl)
    rounding = (spec.q + 1) ** 2 * np.finfo(float).eps * trace
    floors = [floor - rounding for floor in floors]
    stages["grams"] += time.perf_counter() - clock
    solutions = [_solve_block(*args, trace, stages, spec, factors)
                 for args in zip(solved, fine, mid, floors)]
    value, tie, index, maximizer, residual = _max_over_blocks(
        solutions, [block.copies for block in solved], frobenius)
    # the published cells stay under 1.1e-16: a pair this far off is broken
    if residual > 1e-8:
        raise NumericalError(f"eigensolve failed: the top eigenpair has "
                             f"relative residual {residual:.1e}, above 1e-8")
    size = sum(block.order for block in blocks)
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


def estimated_seconds(spec: ProblemSpec) -> float:
    """Deterministic cost estimate in seconds, used for budget skipping.

    The terms follow the stages of ``saturation_coefficient``: a fixed
    per-cell overhead; the 1D factors at q and at r, a fixed cost and ~n^2
    per chain of n members (``_chain_lengths``: one chain of d members with
    one Dirichlet end, two of about d/2 otherwise) for each distinct end
    condition (family A counts its x and y factors, once where they
    coincide; families B and C their y factor, and a fixed cost and ~d^2
    for the edge weights, whose eliminations run over about d members for
    about d values of mu), for every cell, as a lone ``compute`` starts
    cold; and per solved block of order n, its coarse Gram at degree q and
    its eigensolve. A block's Gram costs a fixed amount, ~n^2 for its
    writes and ~n^2 d for its products at degree d. Up to order 100 the
    eigensolve is the fine block, formed as the coarse one is at degree r,
    and a dense reduction and full eigensolve of the formed pair (a fixed
    cost and ~n^3); above it a Cholesky factor (~n^3) and one Lanczos run,
    each step a fixed cost and ~n^2. A run takes 4 to 6 steps where q >= 2p
    and 10 to 17 where q is close to p on the published blocks, priced as 5
    and 13. A block on the Schur route (``_schur_route``) has no Gram; each
    of its 1D classes costs a fixed amount and ~m^3 for m modes, once per
    cell. Where its class pair has k < n extra mode pairs, its corner costs
    a fixed amount and ~c^3, and each Lanczos step a fixed cost and ~mx my
    (mx + my). Where k >= n, each step is a CG solve, priced as 8
    iterations (7.3 on the table), each a fixed cost and ~mx my (nx + ny).
    A block that the closed-form floor does not certify, as at E1 (256,
    260, 520), adds one unpriced Lanczos run to check it. Every constant is
    in seconds at the speed where ``perfbench.harness.reference_seconds()``
    takes 0.1 s, fitted with one BLAS thread on a 2-core Xeon VM where it
    took about 0.13 s: the Gram terms to the kernels alone, the others to
    the wall time of the published cells. The terms above order 100 were
    refitted by relative least squares to the calls of the published blocks
    above order 100 (best of three), the Schur terms also to five cells
    past the table. Over two runs where the kernel took 0.11-0.19 s, the
    Cholesky term reads 0.67-1.62 of its 25 solves, the Schur terms
    0.26-1.92 of their calls (medians 0.82-1.00), and the whole estimate
    0.62-1.88 of the wall time of the 32 published cells with blocks above
    order 100 (medians 1.08, 1.06), their 1D factors built. In fresh
    processes (six runs) it reads 0.66-0.75 of the time of E1 (128, 256,
    512), 0.72-0.84 of E2 (112, 128, 256), 0.77-0.93 of E1 (168, 192, 384)
    and 0.81-1.04 of E1 (512, 586, 1172), whose two definiteness estimates
    it leaves out. The 1D factor term was refitted, where the kernel took
    about 0.14 s, to the cold factors stage of the 145 distinct published
    cells (best of five, six runs). On the 20 B and C cells at r = 256 it
    reads 0.92-1.19 of that stage per cell (median 1.03): 1.02-1.19 where
    the y factor is one chain (F1, F3) and 0.92-1.01 where it is two (F2,
    F4, C).
    """
    r, q = spec.r, spec.q
    overhead = 4e-4
    x_args, y_args = _factor_args(spec, r)
    conditions = {x_args[0], y_args[0]} if spec.family == "A" else {y_args[0]}
    members = [n for bc in conditions for degree in (r, q)
               for n in _chain_lengths(bc, degree)]
    modes = 2.8e-4 * len(conditions) + 5.4e-8 * sum(n * n for n in members)
    if spec.family != "A":
        modes += 2.7e-4 + 1e-8 * (r ** 2 + q ** 2)

    def gram(n: int, degree: int) -> float:
        return 6e-6 + 6.4e-10 * n ** 2 + 2.4e-11 * n ** 2 * degree

    steps = 5 if q >= 2 * spec.p else 13
    grams = eig = 0.0
    classes = {}
    for block in _spec_blocks(spec):
        n = block.order
        if not block.copies:
            continue
        if _schur_route(block):
            mx, my = (_class_sizes(args[0], q)[cls]
                      for args, cls in ((x_args, block.x), (y_args, block.y)))
            # one setup per class and cell (``_schur_sides``)
            classes[x_args[0], block.x] = 2.3e-4 + 5.8e-10 * mx ** 3
            classes[y_args[0], block.y] = 2.3e-4 + 5.8e-10 * my ** 3
            nx, ny = block.px.size, block.py.size
            if _schur_by_cg(mx * my, n):
                eig += steps * 8 * (4.3e-5 + 2e-10 * mx * my * (nx + ny))
            else:
                eig += (7.7e-5 + 1.55e-11 * ((mx - nx) * (my - ny)) ** 3
                        + steps * (8.3e-5 + 5.55e-10 * mx * my * (mx + my)))
            continue
        grams += gram(n, q)
        eig += (gram(n, r) + 4.2e-5 + 1.3e-9 * n ** 3 if n <= _DENSE_ORDER
                else 5e-4 + 1.2e-11 * n ** 3 + steps * (7.8e-6 + 1.1e-10 * n ** 2))
    return overhead + modes + grams + eig + sum(classes.values())
