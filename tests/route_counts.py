"""Counts of the production kernels' calls: the one counting helper.

``counts`` wraps the kernels of ``refsat.coefficients`` that the tests and
the CI step that reproduces the whole table count, and returns the lists
that the wrappers fill as the kernels run:

- the Lanczos solves, ``_solve_lanczos``, by coarse route. Both routes
  solve every block above ``_DENSE_ORDER`` by that one function, through
  the route's inverse of the coarse block, so a run's route is read off
  its block (``_schur_route``);
- every Lanczos run, ``_top_eigenpairs``, by its operator applications;
  the definiteness estimates are the runs for one pair;
- the CG solves, ``_conjugate_gradient``, by their iterations;
- the 1D chain eigensolves, ``_chain``.

It loads nothing beyond ``refsat.coefficients``, so that step can install
it before the table runs and still check that the table loaded no
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


class Run(NamedTuple):
    """One ``_top_eigenpairs`` run that returned."""

    order: int
    #: pairs asked for: 2 for a pencil solve, 1 for a definiteness estimate
    k: int
    applications: int


class Counts(NamedTuple):
    """The calls of each counted kernel, one entry per call as it returns."""

    solves: list[Solve]
    runs: list[Run]
    #: the iterations of each CG solve
    cg: list[int]
    #: the degree of the factor of each chain eigensolve
    chains: list[int]

    @property
    def estimates(self) -> list[int]:
        """The block order of each definiteness estimate so far."""
        return [run.order for run in self.runs if run.k == 1]


def counts(setattr=setattr) -> Counts:
    """Wrap the counted kernels through ``setattr`` (pytest's
    ``monkeypatch.setattr``, or the builtin) and return the ``Counts`` that
    the wrappers fill."""
    found = Counts([], [], [], [])
    coefficients = refsat.coefficients
    solve, lanczos = coefficients._solve_lanczos, coefficients._top_eigenpairs
    cg, chain = coefficients._conjugate_gradient, coefficients._chain

    def tallied(apply, calls: list):
        """``apply``, appending to ``calls`` once per call."""

        def counted(v):
            calls.append(v.size)
            return apply(v)

        return counted

    def counted_solve(block, fine, mid, inverse):
        applied = []
        solution = solve(block, fine, mid, tallied(inverse, applied))
        (nx, mx), (ny, my) = mid[0].shape, mid[1].shape
        route = "Schur" if coefficients._schur_route(block) else "Cholesky"
        found.solves.append(Solve(route, block.order, mx * my - nx * ny,
                                  len(applied)))
        return solution

    def counted_lanczos(apply, n, k, *args, **kwargs):
        applied = []
        pairs = lanczos(tallied(apply, applied), n, k, *args, **kwargs)
        found.runs.append(Run(n, k, len(applied)))
        return pairs

    def counted_cg(apply, precondition, b):
        iterations = []
        x = cg(tallied(apply, iterations), precondition, b)
        found.cg.append(len(iterations))
        return x

    def counted_chain(index, coeff, degree):
        modes = chain(index, coeff, degree)
        found.chains.append(degree)
        return modes

    for name, wrapper in (("_solve_lanczos", counted_solve),
                          ("_top_eigenpairs", counted_lanczos),
                          ("_conjugate_gradient", counted_cg),
                          ("_chain", counted_chain)):
        setattr(coefficients, name, wrapper)
    return found
