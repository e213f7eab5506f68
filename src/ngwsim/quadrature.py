"""Fixed exp-sinh rule for smooth integrands on (0, inf).

The substitution s = exp(pi/2 sinh t) turns an integrand that is smooth and
bounded on (0, inf) and decays algebraically as s -> inf into one that decays
double-exponentially in t, so the trapezoid rule in t converges geometrically
in 1/h (Mori & Sugihara, J. Comput. Appl. Math. 127, 287 (2001)). With step
h = 0.025 over |t| <= 4.5 the 361 nodes span s from about 1e-31 to 1e31, so
an s^(-3/2) tail is cut off near 1e-15 of its integral. The integrand takes a
1-D array of nodes.
"""

import numpy as np

_STEP = 0.025
_T = _STEP * np.arange(-180, 181)
NODES = np.exp(0.5 * np.pi * np.sinh(_T))
WEIGHTS = _STEP * 0.5 * np.pi * np.cosh(_T) * NODES
NODES.flags.writeable = False
WEIGHTS.flags.writeable = False


def integrate_adaptive(f):
    """Integrate f over (0, inf) on the fixed nodes. Returns (value, error_estimate).

    f is evaluated once, on all 361 nodes; the error estimate is the
    difference from the rule of step 2h on the even-indexed nodes. The rule
    has no tolerance and no refinement: the name is kept from an earlier
    adaptive rule because callers and profiling spans refer to it.
    """
    terms = WEIGHTS * f(NODES)
    value = float(np.sum(terms))
    return value, abs(value - 2.0 * float(np.sum(terms[::2])))
