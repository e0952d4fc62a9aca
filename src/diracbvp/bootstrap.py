"""The Lebesgue-exponent bootstrap of the regularity argument, in exact
rational arithmetic on scalars: this module imports no numpy."""

from dataclasses import dataclass
from fractions import Fraction

from .errors import NumericalError, ParameterError


@dataclass
class BootstrapTrace:
    reciprocals: list     # 1/l^{(M)} from the recursion
    closed_form: list     # corrected closed-form values
    m_star: int           # first index with value <= 0, or None

    def agreement(self):
        return max(abs(a - b) for a, b in zip(self.reciprocals,
                                              self.closed_form))


def bootstrap_exponents(n, p, l0, max_steps=64):
    """Iterate 1/l^{(M)} = (p-1)/l^{(M-1)} - 1/n until <= 0 or max_steps.

    Exact rational arithmetic keeps the recursion and the closed form
    (p-1)^M (1/l0 - 1/(n(p-2))) + 1/(n(p-2)) in lockstep, including at the
    fixed point of the affine map.  NumericalError, naming bootstrap.l0
    and M, when a 1/l^{(M)} leaves the floats (a tiny l0).
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

    x = Fraction(1, 1) / Fraction(l0)
    fixed = 1 / (n * (pf - 2))
    rec, closed = [x], [x]
    m_star = None
    for m in range(1, max_steps + 1):
        x = (pf - 1) * x - Fraction(1, n)
        rec.append(x)
        closed.append((pf - 1) ** m * (rec[0] - fixed) + fixed)
        if x < 0:  # the exponent l itself turned negative
            m_star = m
            break
    if any(a != b for a, b in zip(rec, closed)):
        raise NumericalError("bootstrap recursion/closed-form mismatch")
    values = []  # of rec, and so of closed, which equals it exactly
    for m, v in enumerate(rec):
        try:
            values.append(float(v))
        except OverflowError:
            raise NumericalError(
                "1/l^(M) leaves the floating-point range at M = %d for "
                "bootstrap.l0 = %r" % (m, l0)) from None
    return BootstrapTrace(reciprocals=values, closed_form=list(values),
                          m_star=m_star)
