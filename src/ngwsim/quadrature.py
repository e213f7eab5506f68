"""Midpoint rule for smooth 2 pi-periodic integrands, refined by tripling.

For a periodic analytic integrand the midpoint (equivalently trapezoid) rule
converges geometrically in the node count (Trefethen & Weideman, SIAM Rev.
56, 385 (2014)), so the difference of two successive levels is a pessimistic
error estimate for the finer one. Tripling keeps every earlier node, so each
level evaluates only the new ones; every level has an even node count, so no
node lands on 0 or pi. The integrand takes a 1-D array of angles.
"""

import numpy as np

from .errors import QuadratureConvergenceError


def integrate_adaptive(f, rel_tol=1e-10, max_nodes=2 * 3**10):
    """Integrate the 2 pi-periodic f over one period, from 18 nodes, until two
    successive levels agree to rel_tol. Returns (value, error_estimate).

    Raises QuadratureConvergenceError if the next level would exceed
    max_nodes first.
    """
    n, total, value = 18, 0.0, np.inf
    nodes = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    while True:
        total += float(np.sum(f(nodes)))
        coarse, value = value, 2.0 * np.pi * total / n
        err = abs(value - coarse)  # infinite on the first level
        if err <= rel_tol * max(abs(value), 1e-12):
            return value, err
        if 3 * n > max_nodes:
            raise QuadratureConvergenceError(
                "periodic quadrature did not converge",
                achieved_tol=err / max(abs(value), 1e-12),
            )
        # the nodes (k + 1/2) h of this level are the centres of triples of the next
        old = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        offset = 2.0 * np.pi / (3 * n)
        nodes, n = np.concatenate([old - offset, old + offset]), 3 * n
