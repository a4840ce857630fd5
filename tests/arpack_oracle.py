"""ARPACK's implicitly restarted Lanczos: the test oracle.

``refsat.coefficients._top_eigenpairs`` runs Lanczos with full
reorthogonalization and stops as soon as its top Ritz pair converges and
each lower one has converged or is certified below the tie gap. This is the
route it replaced: ARPACK (Lehoucq, Sorensen & Yang, 1998) through
``scipy.sparse.linalg.eigsh``, restarted on an 8-vector Krylov space, which
converges every one of the k pairs it returns. The top pair has the same
contract. A lower value of ``_top_eigenpairs`` may be a Ritz value short of
convergence, a lower bound; on the published blocks it still agrees with
ARPACK's to 1e-14, as a Ritz value's error is about the square of its
residual bound over the gap to the rest of the spectrum.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from refsat.coefficients import NumericalError

#: Lanczos vectors kept by each ARPACK run, which needs at most two
#: eigenpairs. Over the published cells 8 takes the fewest operator
#: applications: 1311, against 1350 at 6, 1325 at 12 and 1651 at scipy's
#: default of 20, which applies the operator at least 21 times per run
KRYLOV_SIZE = 8


def top_eigenpairs(
    apply, n: int, k: int, tol: float = 0.0, inner=None
) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenpairs, ascending, of the symmetric operator ``apply``.

    ``apply`` maps an n-vector to its image: ARPACK's Lanczos runs to the
    relative accuracy ``tol`` (0 asks for machine precision) from a seeded
    start vector, so repeated runs return bitwise equal vectors. It keeps
    ``KRYLOV_SIZE`` Lanczos vectors (all n below that). With
    ``inner`` (v -> M v), the operator is ``apply`` of M v, self-adjoint in
    the M inner product for a symmetric ``apply``: ARPACK runs in its mode 2
    on A x = lambda M x, A = M ``apply`` M. Mode 2 applies M^{-1} only to
    the A x it has just asked for, so M^{-1} returns the image that A x was
    formed from.
    """
    op = LinearOperator((n, n), matvec=apply, dtype=float)
    metric = {}
    if inner is not None:
        images = []

        def product(v):
            images.append(apply(inner(v)))
            return inner(images[-1])

        op = LinearOperator((n, n), matvec=product, dtype=float)
        metric = {"M": LinearOperator((n, n), matvec=inner, dtype=float),
                  "Minv": LinearOperator((n, n), matvec=lambda _: images.pop(),
                                         dtype=float)}
    start = np.random.default_rng(0).standard_normal(n)
    try:
        result = eigsh(op, k=k, which="LA", tol=tol, v0=start,
                       ncv=min(n, KRYLOV_SIZE), **metric)
    except ArpackError as exc:
        raise NumericalError(f"Lanczos eigensolve failed: {exc}") from exc
    order = np.argsort(result[0])
    return result[0][order], result[1][:, order]
