"""One-dimensional polynomial bases on [-1, 1].

Every basis function is a short Legendre series. The saturation problems
use three families: the probes and two trial families, which
``refsat.coefficients`` realises as 1D factors keyed by a
:class:`BoundaryCondition1D` and a degree, built from closed-form entries
without ever forming a basis:

``legendre``
    phi_k = sqrt(k + 1/2) * L_k for k = 0..r, orthonormal in L2(-1, 1); the
    probes that load the saturation problems.

``integrated_legendre``
    Interior functions xi_k = sqrt(k - 1/2) * int_x^1 L_{k-1}(t) dt for
    k = 2..r, which vanish at both endpoints and are orthonormal in the H1
    seminorm, optionally preceded by the linear boundary supplements
    xi_1(x) = sqrt(2)/2 * (1 - x) (vanishes at +1, kept only when the left
    endpoint is unconstrained) and xi_1~(x) = xi_1(-x) (vanishes at -1, kept
    only when the right endpoint is unconstrained).

``mean_zero``
    The constant chi_0 = 1/sqrt(2) followed by xi_k minus its mean value for
    k = 1..r (xi_1 here is the left supplement above). Every non-constant
    member integrates to zero, which makes the family suitable for building
    quotient spaces modulo constants. It spans P_r, as the free-free
    ``integrated_legendre`` family does, and shares its 1D factor.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BoundaryCondition1D"]


@dataclass(frozen=True)
class BoundaryCondition1D:
    """Homogeneous Dirichlet flags for the two endpoints of [-1, 1]."""

    dirichlet_at_minus1: bool = False
    dirichlet_at_plus1: bool = False
