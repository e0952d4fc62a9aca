"""The Lebesgue-exponent bootstrap of the regularity argument, in exact
rational arithmetic on scalars: this module imports no numpy."""

from collections import namedtuple
from fractions import Fraction

from .errors import NumericalError, ParameterError

# reciprocals: 1/l^{(M)} from the recursion; m_star: the first M with a
# negative value, or None when none is reached in MAX_STEPS steps
BootstrapTrace = namedtuple("BootstrapTrace", "reciprocals m_star")
MAX_STEPS = 64


def bootstrap_exponents(n, p, l0):
    """Iterate 1/l^{(M)} = (p-1)/l^{(M-1)} - 1/n until < 0 or MAX_STEPS.

    A value of 0 does not stop the run: 1/l = 0 puts u in W^{1,n}, the
    borderline case that embeds into every L^r with r < inf but not into
    L^inf, so one more step is needed.  Exact rational arithmetic checks
    each value against the closed form (p-1)^M (1/l0 - 1/(n(p-2))) +
    1/(n(p-2)), including at the fixed point of the affine map.
    NumericalError, naming bootstrap.l0 and M, when a 1/l^{(M)} leaves
    the floats (a tiny l0).
    """
    if n < 3:
        raise ParameterError("bootstrap needs n >= 3, got %r" % (n,))
    pf = Fraction(p)
    if pf <= 2:
        raise ParameterError("bootstrap needs p > 2, got %r" % (p,))
    if not 0 < Fraction(l0):
        raise ParameterError("l0 must be positive, got %r" % (l0,))
    if pf >= Fraction(2 * n - 2, n - 2):
        raise ParameterError("p=%r at or above the admissible range" % (p,))

    x, values = Fraction(1, 1) / Fraction(l0), []
    fixed = 1 / (n * (pf - 2))
    gap = x - fixed  # 1/l0 - 1/(n(p-2))
    for m in range(MAX_STEPS + 1):
        if x != (pf - 1) ** m * gap + fixed:
            raise NumericalError("bootstrap recursion/closed-form mismatch")
        try:
            values.append(float(x))
        except OverflowError:
            raise NumericalError(
                "1/l^(M) leaves the floating-point range at M = %d for "
                "bootstrap.l0 = %r" % (m, l0)) from None
        if x < 0:  # the exponent l itself turned negative
            return BootstrapTrace(reciprocals=values, m_star=m)
        x = (pf - 1) * x - Fraction(1, n)
    return BootstrapTrace(reciprocals=values, m_star=None)
