import math

import numpy as np
import pytest

from ngwsim import quadrature


@pytest.mark.parametrize("f,exact", [
    (lambda s: np.exp(-s), 1.0),
    # the s^(-3/2) tail of a pure state's FI integrand
    (lambda s: (1.0 + 2.0 * s) ** -1.5, 1.0),
    (lambda s: np.exp(-s) / np.sqrt(1.0 + 2.0 * s),
     math.sqrt(math.pi / 2) * math.exp(0.5) * math.erfc(1.0 / math.sqrt(2.0))),
    (lambda s: (1.0 + 2e-4 * s) ** -1.5, 1e4),
])
def test_closed_form_laplace_integrals(f, exact):
    # Bare scales far below 1e-4 are not asserted: the integral of e^(-1e-6 s)
    # is off by 5e-10. In the FI integrand the terms of such scales carry
    # coefficients that vanish with the scale; the near-rank-one FI tests in
    # test_fisher.py check those cases on the FI itself.
    value, err = quadrature.integrate_adaptive(f)
    assert abs(value / exact - 1.0) < 1e-13
    assert err < 1e-13 * exact


def test_one_evaluation_on_fixed_nodes_and_halved_rule_error():
    seen = []

    def f(s):
        return 1.0 / (1.0 + s) ** 2

    def record(s):
        seen.append(s.copy())
        return f(s)

    value, err = quadrature.integrate_adaptive(record)
    again, _ = quadrature.integrate_adaptive(record)
    assert len(seen) == 2 and value == again
    assert seen[0].shape == (361,) and np.all(seen[0] > 0.0)
    np.testing.assert_array_equal(seen[0], seen[1])
    assert np.all(np.diff(seen[0]) > 0.0)
    terms = quadrature.WEIGHTS * f(quadrature.NODES)
    assert err == abs(value - 2.0 * np.sum(terms[::2]))
    assert abs(value - 1.0) < 1e-13
