"""The Schur route's exact inverse through a factor of the whole H22: the
test oracle.

``refsat.coefficients._schur_inverse`` eliminates the two strips of set 2
by fast diagonalization and factors only the corner's Schur complement.
``h22_inverse`` is the route it replaced: it forms the k x k block H22 of
every extra mode pair and factors it whole, so its memory grows like k^2
(about 13 GB at E1 (512, 586, 1172)).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from refsat.coefficients import _lapack


def h22_inverse(wx: np.ndarray, wy: np.ndarray, lam_x: np.ndarray,
                lam_y: np.ndarray):
    """v -> R^{-1} v for the dual Gram R = (Wx (x) Wy) G (Wx (x) Wy)^T of a
    family-A class pair, exactly, through the Cholesky factor of H22.

    With the complete QRs Wx^T = Qx [Lx^T; 0], Wy^T = Qy [Ly^T; 0] and the
    rotated sum H = Ax (+) Ay, Ax = Qx^T diag(lam_x) Qx and Ay likewise,

        R^{-1} = (Lx (x) Ly)^{-T} (H11 - H12 H22^{-1} H21) (Lx (x) Ly)^{-1},

    set 1 being the nx ny mode pairs (a, b) with a < nx and b < ny, set 2
    the other k. H applies as Ax V + V Ay to the mx x my array V of a
    vector, and the Schur complement as H [v; -w] on set 1, with
    H22 w = (H [v; 0]) on set 2. H22, entries Ax[c, c'] [d = d'] +
    [c = c'] Ay[d, d'], is formed and factored by ``dpotrf``.
    """
    (nx, mx), (ny, my) = wx.shape, wy.shape
    sides = []
    for w, lam in ((wx, lam_x), (wy, lam_y)):
        q, r = scipy.linalg.qr(w.T, check_finite=False)
        (inverse,) = _lapack("dtrtri", r[:len(w)])
        sides.append(((q.T * lam) @ q, inverse))
    (ax, ux), (ay, uy) = sides
    outer = np.ones((mx, my), dtype=bool)
    outer[:nx, :ny] = False
    c, d = np.nonzero(outer)
    h22 = (ax.take(c, 0).take(c, 1) * np.equal.outer(d, d)
           + np.equal.outer(c, c) * ay.take(d, 0).take(d, 1))
    (factor,) = _lapack("dpotrf", h22, lower=1, overwrite_a=1)
    dpotrs = scipy.linalg.lapack.dpotrs

    def apply(v: np.ndarray) -> np.ndarray:
        # ux = Lx^{-T}: (Lx (x) Ly)^{-1} v is ux^T V uy on its nx x ny array
        modes = np.zeros((mx, my))
        modes[:nx, :ny] = ux.T @ v.reshape(nx, ny) @ uy
        image = ax @ modes + modes @ ay
        if c.size:
            modes[c, d] = -dpotrs(factor, image[c, d], lower=1)[0]
            image = ax[:nx] @ modes[:, :ny] + modes[:nx] @ ay[:, :ny]
        return (ux @ image[:nx, :ny] @ uy.T).ravel()

    return apply
