"""The Lanczos solves of the production eigensolve, counted by coarse route.

Both coarse routes solve every block above ``_DENSE_ORDER`` by one
function, ``refsat.coefficients._solve_lanczos``, through the route's
inverse of the coarse block, so a run's route is read off its block
(``_schur_route``). ``lanczos_solves`` is the one place the tests and the
CI step that reproduces the whole table attribute runs to routes. It
loads nothing beyond ``refsat.coefficients``, so that step can install it
before the table runs and still check that the table loaded no
scipy.sparse.linalg.
"""

from __future__ import annotations

from typing import NamedTuple

import refsat.coefficients


class Solve(NamedTuple):
    """One ``_solve_lanczos`` call that returned."""

    #: "Schur" or "Cholesky"
    route: str
    order: int
    #: mx my - order for the mx x my modes of the block's class pair at q
    k: int
    #: operator applications of its run, one inverse each
    applications: int


def lanczos_solves(setattr=setattr) -> list[Solve]:
    """Wrap ``_solve_lanczos`` through ``setattr`` (pytest's
    ``monkeypatch.setattr``, or the builtin) and return the list that the
    wrapper fills, one ``Solve`` per call as it returns."""
    solves = []
    solve = refsat.coefficients._solve_lanczos

    def counted_solve(block, fine, mid, inverse):
        applied = []

        def counted(v):
            applied.append(v.size)
            return inverse(v)

        solution = solve(block, fine, mid, counted)
        (nx, mx), (ny, my) = mid[0].shape, mid[1].shape
        route = "Schur" if refsat.coefficients._schur_route(block) else "Cholesky"
        solves.append(Solve(route, block.order, mx * my - nx * ny, len(applied)))
        return solution

    setattr(refsat.coefficients, "_solve_lanczos", counted_solve)
    return solves
