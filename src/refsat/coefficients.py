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
from typing import NamedTuple

import numpy as np
import scipy.linalg

from refsat.assembly import EDGE_CLASSES, factor_conditions, normalize_edges
from refsat.bases import BoundaryCondition1D

__all__ = [
    "FAMILIES",
    "Q_STRATEGIES",
    "CANONICAL_PROBLEMS",
    "NumericalError",
    "ProblemSpec",
    "SaturationResult",
    "q_strategy",
    "block_orders",
    "dual_gram",
    "max_generalized_eigenvalue",
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
    #: seconds spent building the 1D factors (``factors``), forming the dual
    #: Gram blocks (``grams``) and solving them (``eigensolve``)
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
    #: t[i] = v_i(+1), the values of the modes on the right edge
    trace: np.ndarray
    #: the probe degrees k of the rows of ``loads``, ascending
    probes: np.ndarray


def _symmetric(bc: BoundaryCondition1D) -> bool:
    """Whether a factor spans a space invariant under x -> -x."""
    return bc.dirichlet_at_minus1 == bc.dirichlet_at_plus1


def _class_probes(bc: BoundaryCondition1D, degree: int) -> list:
    """Probe degrees up to ``degree`` of each class of a factor."""
    k = np.arange(degree + 1)
    return [k[0::2], k[1::2]] if _symmetric(bc) else [k]


def _chain(index: np.ndarray, coeff: np.ndarray, degree: int) -> _Factor:
    """Modes of members with unit stiffness whose mass couples only neighbours.

    Member j is the sum of coeff[j, s] L_index[j, s] over s = 0, 1, with no
    index twice in a column. With S = I, S v = lambda M v is M v = v / lambda:
    the eigenpairs theta, Q of the tridiagonal M give lambda = 1 / theta and
    V = Q diag(theta)^(-1/2). The probe phi_k loads v_i with sqrt(2/(2k+1))
    times its L_k coefficient, and v_i(+1) is the sum of its coefficients.
    """
    norms = 2.0 / (2.0 * np.arange(degree + 1) + 1.0)
    weighted = coeff * norms[index]
    theta, vec = np.ones(0), np.zeros((0, 0))
    if len(index):
        off = sum(weighted[:-1, s] * coeff[1:, t] * (index[:-1, s] == index[1:, t])
                  for s in (0, 1) for t in (0, 1))
        try:
            theta, vec = scipy.linalg.eigh_tridiagonal(
                (coeff * weighted).sum(axis=1), off)
            if theta[0] <= 0.0:
                raise scipy.linalg.LinAlgError("the mass is not definite")
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(f"1D eigensolve failed: {exc}") from exc
    vec = vec / np.sqrt(theta)
    loads = np.zeros((degree + 1, theta.size))
    for s in (0, 1):
        loads[index[:, s]] += coeff[:, s, np.newaxis] * vec
    loads *= np.sqrt(norms)[:, np.newaxis]
    return _Factor(1.0 / theta, loads, coeff.sum(axis=1) @ vec,
                   np.arange(degree + 1))


def _classes(bc: BoundaryCondition1D, degree: int) -> tuple[_Factor, ...]:
    """The 1D factor of degree ``degree`` with ends ``bc``, one ``_Factor``
    per class.

    It spans the polynomials of degree at most ``degree`` that vanish at
    the Dirichlet ends, in the ``integrated_legendre`` basis of
    ``refsat.bases``; with no Dirichlet end it equally stands for the
    ``mean_zero`` basis, which spans the same P_r. The derivatives of
    xi_k = (L_{k-2} - L_k) / sqrt(4k - 2) and of the supplements are
    orthonormal Legendre polynomials, so the stiffness is the identity on
    every non-constant member, and the mass couples xi_k only with
    xi_{k+-2} and a supplement only with xi_2 and xi_3 (Shen, SIAM J. Sci.
    Comput. 1994). The chains are xi_2, xi_4, ... and xi_3, xi_5, ... with
    two Dirichlet ends; xi_r, ..., xi_2, supplement, xi_3, ... with one;
    with none, the constant (lambda = 0, set up exactly) with
    -L_2/sqrt(6), xi_4, ... and -L_1/sqrt(2), xi_3, ... Each parity class
    keeps only the probe rows of its parity: its loads on the other
    parity's modes are exactly zero.
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
    if ends == 1:
        (even, even_c), (odd, odd_c) = chains
        # the supplement and the odd members list their terms the other way
        # round, so that no Legendre index appears twice in a column
        half = np.sqrt(0.5) * np.array([1.0 if bc.dirichlet_at_minus1 else -1.0, 1.0])
        return (_chain(np.vstack([even[::-1], [1, 0], odd[:, ::-1]]),
                       np.vstack([even_c[::-1], half, odd_c[:, ::-1]]), degree),)
    classes = [_chain(index, coeff, degree) for index, coeff in chains]
    if not ends:
        constant = (np.zeros(1), np.eye(degree + 1, 1), np.full(1, np.sqrt(0.5)))
        classes[0] = _Factor(*(np.concatenate(pair, axis=-1) for pair in
                               zip(constant, classes[0][:3])), classes[0].probes)
    return tuple(part._replace(loads=part.loads[parity::2],
                               probes=part.probes[parity::2])
                 for parity, part in enumerate(classes))


def _factor_args(spec: ProblemSpec, degree: int) -> tuple[tuple, tuple]:
    """Keys (bc, degree) of the x and y factors; family C uses the free-free
    factor in both directions."""
    if spec.family == "C":
        args = (BoundaryCondition1D(), degree)
        return args, args
    bc_x, bc_y = factor_conditions(spec.edges)
    return (bc_x, degree), (bc_y, degree)


class _Block(NamedTuple):
    """One diagonal block of a dual Gram and its rows in the family's load order.

    Loads are probe pairs (a, b) at a * (p + 1) + b for family A, with the x
    probe outermost, and probe degrees for families B and C (from 1 for C).
    A parity block has row k at ``index[k]``. A swap block has row k at
    (e_index[k] + sign * e_partner[k]) / sqrt(2), or at e_index[k] where
    ``index[k] == partner[k]``.
    """

    #: the x class contracted, None for families B and C (summed over)
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


def _blocks(spec: ProblemSpec, bc_x: BoundaryCondition1D,
            bc_y: BoundaryCondition1D) -> list[_Block]:
    """Diagonal blocks of the spec's dual Grams, skipping those without loads.

    ``bc_x`` and ``bc_y`` are the end conditions of the two factors; equal
    conditions mean equal factors. Family A has one block per
    pair of x and y classes, except with equal non-symmetric factors (E2):
    R is then invariant under (a, b) <-> (b, a) and splits into a
    symmetric and an antisymmetric block of orders n(n + 1)/2 and
    n(n - 1)/2. Families B and C have one block per y class.
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
    return [_Block(x, y, px, py, (px[:, np.newaxis] * n + py).ravel())
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


def _weights(spec: ProblemSpec, fx: _Factor, fy: _Factor) -> np.ndarray:
    """1 / (lambda_i + mu_j): the inverse stiffness in the tensor eigenbasis.

    Fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 1964): with
    the 1D modes V^T S V = diag(lambda), V^T M V = I of each factor basis,
    the stiffness Sx (x) My + Mx (x) Sy is diagonal in the basis Vx (x) Vy
    with entries lambda_i + mu_j, so a dual Gram contracts the 1D load
    Grams W with these weights and no 2D matrix is formed.
    """
    denom = fx.lam[:, np.newaxis] + fy.lam
    if spec.family == "C":
        # the constant tensor member is not part of the quotient space
        denom[(fx.lam == 0.0)[:, np.newaxis] & (fy.lam == 0.0)] = np.inf
    return 1.0 / denom


def _edge_weights(spec: ProblemSpec, xs, fy: _Factor) -> np.ndarray:
    """sum_i t_i^2 / (lambda_i + mu_j) over the x classes: edge loads see a
    mode only through its trace on the right edge."""
    return sum(fx.trace**2 @ _weights(spec, fx, fy) for fx in xs)


def _rows(factor: _Factor, probes: np.ndarray) -> np.ndarray:
    """The load rows of ``factor`` for the given probe degrees."""
    return factor.loads[np.searchsorted(factor.probes, probes)]


def _volume_gram(wx: np.ndarray, wy: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """t[a, c, b, d] = R[(a, b), (c, d)] for the probe pairs of wx x wy.

    xx[(a, c), i] = wx[a, i] wx[c, i] and yy[j, (b, d)] = wy[b, j] wy[d, j]
    are bitwise symmetric in their index pairs, and so is the product.
    """
    nx, ny = len(wx), len(wy)
    xx = (wx[:, np.newaxis, :] * wx).reshape(nx * nx, -1)
    yy = (wy.T[:, :, np.newaxis] * wy.T[:, np.newaxis, :]).reshape(-1, ny * ny)
    return (xx @ (weights @ yy)).reshape(nx, nx, ny, ny)


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


def _grams(spec: ProblemSpec, blocks: list[_Block], xs, ys):
    """Yield the diagonal blocks of the dual Gram R = L A^{-1} L^T, in order.

    ``xs`` and ``ys`` are the classes of the x and y factors. Family A
    blocks contract their x and y class; the swap blocks are both cut from
    one product of their class pair, which is dropped once they are.
    B and C blocks contract their y class with the edge weights.
    """
    swapped = None
    for block in blocks:
        fy = ys[block.y]
        wy = _rows(fy, block.py)
        if spec.family != "A":
            yield (wy * _edge_weights(spec, xs, fy)) @ wy.T
            continue
        fx = xs[block.x]
        wx = _rows(fx, block.px)
        if block.partner is None:
            t = _volume_gram(wx, wy, _weights(spec, fx, fy))
            n = t.shape[0] * t.shape[2]
            yield t.transpose(0, 2, 1, 3).reshape(n, n)
            continue
        if swapped is None:
            swapped = _swap_grams(wx, _weights(spec, fx, fy), blocks)
        yield swapped.pop(0)


def _gram_trace(spec: ProblemSpec, blocks: list[_Block], xs, ys) -> float:
    """Trace of the whole dual Gram, the sum of its block traces.

    The diagonal of a block contracts the squared load rows, so the trace
    costs one small product per class pair and no block is formed.
    """
    total = 0.0
    for block in {(b.x, b.y): b for b in blocks}.values():
        fy = ys[block.y]
        sy = (_rows(fy, block.py) ** 2).sum(axis=0)
        if spec.family != "A":
            total += _edge_weights(spec, xs, fy) @ sy
        else:
            fx = xs[block.x]
            sx = (_rows(fx, block.px) ** 2).sum(axis=0)
            total += sx @ _weights(spec, fx, fy) @ sy
    return float(total)


def _spec_blocks(spec: ProblemSpec) -> list[_Block]:
    """The diagonal blocks of the spec's dual Grams (both degrees alike)."""
    (bc_x, _), (bc_y, _) = _factor_args(spec, spec.p)
    return _blocks(spec, bc_x, bc_y)


def block_orders(spec: ProblemSpec) -> tuple[int, ...]:
    """Orders of the diagonal blocks of the spec's dual Grams, as solved."""
    return tuple(block.index.size for block in _spec_blocks(spec))


def dual_gram(spec: ProblemSpec, degree: int) -> np.ndarray:
    """Dual Gram matrix R = L A^{-1} L^T of the spec's loads at ``degree``.

    The space is the spec's Dirichlet tensor space (family A and B) or
    quotient space (family C) of coordinate degree at most ``degree``, which
    must be at least the load degree p. Its 1D factors are computed afresh,
    and the blocks contracted as in ``saturation_coefficient`` are scattered
    into the full matrix in the family's load order.
    """
    if spec.p > degree:
        raise ValueError(
            f"load degree p = {spec.p} exceeds the space degree {degree}")
    xs, ys = (_classes(*args) for args in _factor_args(spec, degree))
    blocks = _spec_blocks(spec)
    size = sum(block.index.size for block in blocks)
    gram = np.zeros((size, size))
    for block, part in zip(blocks, _grams(spec, blocks, xs, ys)):
        gram += _embed(block, _embed(block, part.T, size).T, size)
    return gram


#: orders up to which the eigensolves form their operator densely: a dense
#: eigh of the explicit matrix beats the fixed cost of a Lanczos run (at
#: least 20 operator applications) up to about this order
_DENSE_ORDER = 100

#: relative floor on the smallest eigenvalue of the denominator dual Gram
_PD_FLOOR = 1e-12


def _top_eigenpairs(
    apply, n: int, k: int, tol: float = 0.0, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """The k largest eigenpairs, ascending, of the symmetric operator ``apply``.

    ``apply`` maps an n-vector or an n x m block to its image. Small orders
    apply it to the identity and use a dense eigh; larger ones run ARPACK's
    Lanczos (Lehoucq, Sorensen & Yang, 1998) to the relative accuracy
    ``tol`` (0 asks for machine precision) from a seeded start vector, so
    repeated runs return bitwise equal vectors. Without ``vectors`` only
    the values are computed, and None stands for the vectors.
    """
    if n <= _DENSE_ORDER:
        # the full spectrum: LAPACK's index-subset drivers can return no
        # eigenvalue at all for a tight cluster, as at q = r. eigh reads
        # only the lower triangle, so roundoff skew needs no symmetrizing
        try:
            result = scipy.linalg.eigh(
                apply(np.eye(n)), driver="evd", check_finite=False,
                eigvals_only=not vectors,
            )
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(f"dense eigensolve failed: {exc}") from exc
        if not vectors:
            return result[n - k:], None
        return result[0][n - k:], result[1][:, n - k:]
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


def _denominator_factor(r_bottom: np.ndarray, trace: float) -> np.ndarray:
    """Cholesky factor L of r_bottom = L L^T, checked to be safely definite.

    The smallest eigenvalue of r_bottom, estimated as
    1 / lambda_max(r_bottom^{-1}) with the same factor, must be at least
    1e-12 times ``trace``, the trace of the whole denominator of which
    r_bottom is a diagonal block; otherwise the problem is rejected as ill
    posed rather than silently regularized.
    """
    ill_posed = (
        "denominator dual Gram is numerically singular; the coarse space "
        "cannot represent all functionals (ill-posed quotient): "
    )
    try:
        factor = scipy.linalg.cholesky(r_bottom, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            ill_posed + f"its Cholesky factorization failed ({exc}), so "
            f"lambda_min/trace is at or below roundoff, under the floor "
            f"{_PD_FLOOR:.0e}"
        ) from exc
    # a Ritz value never exceeds lambda_max, so a loose tolerance can only
    # overstate lambda_min by a relative 1e-8
    inverse_top, _ = _top_eigenpairs(
        lambda y: scipy.linalg.cho_solve((factor, True), y, check_finite=False),
        r_bottom.shape[0], 1, tol=1e-8, vectors=False,
    )
    margin = 1.0 / (float(inverse_top[-1]) * max(trace, np.finfo(float).tiny))
    if margin < _PD_FLOOR:
        raise NumericalError(
            ill_posed + f"estimated lambda_min/trace {margin:.3e} is under the "
            f"floor {_PD_FLOOR:.0e}"
        )
    return factor


def _top_of_pencil(
    r_top: np.ndarray, factor: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Top two eigenvalues, ascending, of r_top F = lambda L L^T F, and the
    maximizer F = L^{-T} y of the top one, normalized to F^T L L^T F = 1."""
    n = r_top.shape[0]

    def standard_form(y: np.ndarray) -> np.ndarray:
        z = scipy.linalg.solve_triangular(
            factor, y, lower=True, trans="T", check_finite=False
        )
        return scipy.linalg.solve_triangular(
            factor, r_top @ z, lower=True, check_finite=False
        )

    values, vectors = _top_eigenpairs(standard_form, n, min(2, n))
    maximizer = scipy.linalg.solve_triangular(
        factor, vectors[:, -1], lower=True, trans="T"
    )
    return values, maximizer


def _max_over_blocks(pairs, trace: float, stages: dict | None = None):
    """Top eigenpair of a block-diagonal pencil, one block pair at a time.

    ``pairs`` yields the (r_top, r_bottom) diagonal blocks, and ``trace``
    is the trace of the whole r_bottom: each block's smallest eigenvalue is
    checked against 1e-12 times it, which is the whole pencil's check, as
    the smallest eigenvalue of r_bottom is the smallest over its blocks.
    The spectrum of the pencil is the union of the block spectra: the value
    is the largest block top, the tie flag compares the top two over all
    blocks, and the residual is the winning block's defect relative to
    ||r_top||_F, summed over the blocks. ``stages`` adds up the seconds
    spent forming the blocks (``grams``) and solving them (``eigensolve``).
    Returns (value, tie, winning block index, its maximizer, residual).
    """
    if stages is None:
        stages = {"grams": 0.0, "eigensolve": 0.0}
    tops, frobenius, best = [], 0.0, None
    clock = time.perf_counter()
    for index, (r_top, r_bottom) in enumerate(pairs):
        now = time.perf_counter()
        stages["grams"] += now - clock
        values, maximizer = _top_of_pencil(
            r_top, _denominator_factor(r_bottom, trace))
        tops.extend(values.tolist())
        frobenius += float(np.linalg.norm(r_top)) ** 2
        value = tops[-1]
        if best is None or value > best[0]:
            defect = r_top @ maximizer - value * (r_bottom @ maximizer)
            best = value, index, maximizer, float(np.linalg.norm(defect))
        clock = time.perf_counter()
        stages["eigensolve"] += clock - now
    stages["grams"] += time.perf_counter() - clock
    value, index, maximizer, defect = best
    tops.sort()
    tie = len(tops) >= 2 and (value - tops[-2]) <= 1e-12 * max(1.0, abs(value))
    scale = np.sqrt(frobenius) * np.linalg.norm(maximizer)
    residual = defect / max(scale, np.finfo(float).tiny)
    return value, tie, index, maximizer, residual


def max_generalized_eigenvalue(
    r_top: np.ndarray, r_bottom: np.ndarray
) -> tuple[float, np.ndarray, bool]:
    """Largest lambda with r_top F = lambda r_bottom F, plus maximizer and tie flag.

    With the Cholesky factor r_bottom = L L^T the pencil becomes the
    standard problem for L^{-1} r_top L^{-T}, whose top two eigenpairs give
    the value, the tie flag and, through F = L^{-T} y, the maximizer. Only
    the top of the spectrum is computed. r_bottom must be safely positive
    definite: its smallest eigenvalue, estimated as 1 / lambda_max(r_bottom^{-1})
    with the same factor, is checked against 1e-12 times its trace, and the
    problem is rejected as ill posed otherwise, rather than silently
    regularized.
    """
    r_top = np.asarray(r_top, dtype=float)
    r_bottom = np.asarray(r_bottom, dtype=float)
    if r_top.shape != r_bottom.shape or r_top.shape[0] != r_top.shape[1]:
        raise ValueError(
            f"expected square matrices of equal shape, got {r_top.shape} "
            f"and {r_bottom.shape}"
        )
    value, tie, _, maximizer, _ = _max_over_blocks(
        [(r_top, r_bottom)], float(np.trace(r_bottom)))
    return value, maximizer, tie


def saturation_coefficient(
    spec: ProblemSpec, factors: dict | None = None
) -> SaturationResult:
    """Compute the saturation coefficient for one problem spec.

    Forms the dual Grams of the fine (degree r) and intermediate (degree q)
    spaces block by block and extracts the largest generalized eigenvalue
    over the blocks; the maximizer is returned in the family's full load
    order. The returned residual is the relative defect of the eigenpair
    and should be tiny.

    The 1D factors of both spaces are looked up in ``factors``, a table
    keyed by their end conditions and degree (bc, degree) and filled on a
    miss. A caller that passes one table to many calls, as a sweep does,
    builds each factor once; without a table the call starts from an empty
    one of its own.
    """
    start = time.perf_counter()
    if factors is None:
        factors = {}
    spaces = [_factor_args(spec, degree) for degree in (spec.r, spec.q)]
    for args in spaces[0] + spaces[1]:
        if args not in factors:
            factors[args] = _classes(*args)
    spaces = [[factors[args] for args in pair] for pair in spaces]
    (fine_x, fine_y), (mid_x, mid_y) = spaces
    blocks = _spec_blocks(spec)
    stages = {"factors": time.perf_counter() - start, "grams": 0.0,
              "eigensolve": 0.0}
    clock = time.perf_counter()
    trace = _gram_trace(spec, blocks, mid_x, mid_y)
    stages["grams"] += time.perf_counter() - clock
    pairs = zip(_grams(spec, blocks, fine_x, fine_y),
                _grams(spec, blocks, mid_x, mid_y))
    value, tie, index, maximizer, residual = _max_over_blocks(
        pairs, trace, stages)
    size = sum(block.index.size for block in blocks)
    dims = [sum(f.lam.size for f in xs) * sum(f.lam.size for f in ys)
            # the quotient space leaves out the constant tensor member
            - (spec.family == "C") for xs, ys in spaces]
    return SaturationResult(
        spec=spec,
        mu=float(np.sqrt(value)),
        mu_squared=float(value),
        maximizer=_embed(blocks[index], maximizer, size),
        dim_H=dims[0],
        dim_V=dims[1],
        dim_F=size,
        residual=float(residual),
        tie=tie,
        wall_seconds=time.perf_counter() - start,
        stages=stages,
    )
