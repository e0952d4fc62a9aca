"""Explicit constants, sufficient conditions, bootstrap exponents and the
variational functional.

Everything in this module is arithmetic on scalars plus a few quadrature
evaluations: the Hoelder/Gagliardo-Nirenberg exponents theta_A, theta_B,
p_B, the constant kappa, the condition families (A1)-(A4), (B1)-(B3),
(C1)-(C3), the Lebesgue-exponent bootstrap recursion, the functional
F(phi) whose critical values are the eigenvalue moduli, and empirical
lower-bound estimators for the Gagliardo-Nirenberg constants.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePairingError, NumericalError, ParameterError
from .grids import CIRCLE, SpinorField, lp_norm, w1q_norm
from .spectral import apply_operator, graph_norm

MODE_C = "C_final"
MODE_B = "B_explicit"
MODE_A = "A_raw"


@dataclass
class AnalyticConstants:
    n: int
    p: float = None  # default: critical exponent 2n/(n-1)
    p_A: float = None
    c_h: float = 1.0
    C_h: float = 1.0
    c1: float = 1.0
    c_half: float = 1.0
    K_GN: float = 1.0
    K_GN2: float = 1.0
    K_FGN: float = 1.0
    lambda_abs: float = 0.0
    lambda1_abs: float = 1.0
    Dg_L2: float = 0.0
    g_L2T: float = 0.0
    g_H1T: float = 0.0
    Xi: float = 1.0
    Lambda_cap: float = 1.0
    provenance: dict = field(default_factory=dict)  # name -> assumed/empirical/computed

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("need n >= 2, got %r" % (self.n,))
        if self.p is None:
            self.p = 2.0 * self.n / (self.n - 1.0)
        if self.p_A is None:
            self.p_A = 2.0 * self.n / (self.n - 1.0)
        lo = 2.0 * self.n / (self.n - 1.0)
        hi = math.inf if self.n == 2 else 2.0 * self.n / (self.n - 2.0)
        if not lo - 1e-12 <= self.p_A <= hi + 1e-12:
            raise ParameterError(
                "p_A=%r outside [%g, %g]" % (self.p_A, lo, hi))
        for name in ("c_h", "C_h", "c1", "c_half", "K_GN", "K_GN2", "K_FGN",
                     "lambda1_abs", "Xi", "Lambda_cap"):
            if getattr(self, name) <= 0:
                raise ParameterError("%s must be positive" % name)
        if self.lambda_abs < 0:
            raise ParameterError("lambda_abs must be nonnegative")


def derive_exponents(consts):
    """(theta_A, theta_B, p_B, kappa) from the analytic constants."""
    n, p, p_a = consts.n, consts.p, consts.p_A
    theta_a = n / 2.0 - n / p_a
    theta_b = 2.0 * n / ((n - 1.0) * p_a)
    denom = p_a - p + 2.0
    if denom <= 0:
        raise ParameterError("p too large for the Hoelder split: p_A - p + 2 <= 0")
    p_b = 2.0 * p_a / denom
    kappa = (2.0 * (p - 1.0)
             * consts.c_h ** (-2.0 / (n - 1.0) - 2.0)
             * consts.C_h ** (2.0 * (1.0 - theta_b))
             * consts.c_half ** theta_b
             * consts.K_GN2 ** (2.0 / (n - 1.0))
             * consts.K_FGN ** 2)
    return theta_a, theta_b, p_b, kappa


@dataclass
class ConditionReport:
    mode: str
    conditions: dict  # name -> {"lhs":, "rhs":, "satisfied":, "strict":}
    theta_A: float
    theta_B: float
    p_B: float
    kappa: float
    A: float
    B: float
    eps: float
    contraction_bound: float  # sqrt(2)*B/(1-A), inf when A >= 1

    @property
    def certified(self):
        return all(c["satisfied"] for c in self.conditions.values())

    def to_dict(self):
        return {
            "mode": self.mode,
            "conditions": self.conditions,
            "theta_A": self.theta_A,
            "theta_B": self.theta_B,
            "p_B": self.p_B,
            "kappa": self.kappa,
            "A": self.A,
            "B": self.B,
            "eps": self.eps,
            # strict JSON has no Infinity; null marks "no bound"
            "contraction_bound": (self.contraction_bound
                                  if math.isfinite(self.contraction_bound)
                                  else None),
            "certified": self.certified,
        }


def _cond(lhs, rhs, strict):
    ok = (lhs < rhs) if strict else (lhs <= rhs)
    return {"lhs": lhs, "rhs": rhs, "satisfied": bool(ok), "strict": strict}


def check_conditions(consts, mode=MODE_C):
    """Evaluate the chosen sufficient-condition family as printed.

    Inequalities are non-strict for the norm-cap conditions and strict for
    the contraction-factor condition.  A_raw failures (eps <= 0) are
    reported as unsatisfied conditions, never raised.
    """
    if mode not in (MODE_C, MODE_B, MODE_A):
        raise ParameterError("unknown condition mode %r" % (mode,))
    n = consts.n
    theta_a, theta_b, p_b, kappa = derive_exponents(consts)
    lam, lam1 = consts.lambda_abs, consts.lambda1_abs
    inv1 = 1.0 / lam1
    exp_gn = (n + 1.0) / (n - 1.0)
    xi, cap = (1.0, 1.0) if mode == MODE_C else (consts.Xi, consts.Lambda_cap)

    # A = norm of the (rescaled) inverse; the B-family rescales by
    # R = 2/|lambda_1| which makes A exactly 1/2
    a_val = inv1 if mode == MODE_A else 0.5
    eps = 1.0 - a_val
    xl_pow = xi ** (2.0 * (1.0 - theta_a) / (n - 1.0)) \
        * cap ** (2.0 * theta_a / (n - 1.0))
    if mode == MODE_A:
        b_val = kappa * xl_pow * lam * lam1 ** (-(1.0 - theta_b))
    else:
        b_val = kappa * 2.0 ** theta_b * xl_pow * lam * inv1
    bound = math.inf if eps <= 0 else math.sqrt(2.0) * b_val / eps

    # the Gagliardo-Nirenberg source term of the induction bounds
    gn_term = (lam * consts.c_h ** (-exp_gn) * consts.K_GN ** exp_gn
               * xi ** (1.0 / (n - 1.0)) * cap ** (n / (n - 1.0)))
    conds = {}
    if mode == MODE_C:
        conds["C1"] = _cond(
            consts.C_h * inv1 * (gn_term + consts.Dg_L2) + consts.g_L2T,
            1.0, strict=False)
        conds["C2"] = _cond(
            4.0 * math.sqrt(consts.c1) * inv1 * (gn_term + consts.Dg_L2)
            + consts.g_H1T,
            1.0, strict=False)
        conds["C3"] = _cond(
            kappa * 2.0 ** 1.5 * 3.0 ** theta_b * lam * inv1,
            1.0, strict=True)
    elif mode == MODE_B:
        conds["B1"] = _cond(
            consts.C_h * inv1 * (gn_term + consts.Dg_L2) + consts.g_L2T,
            xi, strict=False)
        conds["B2"] = _cond(
            3.0 * math.sqrt(consts.c1) * inv1 * (gn_term + consts.Dg_L2)
            + consts.g_H1T,
            cap, strict=False)
        conds["B3"] = _cond(
            kappa * 2.0 ** theta_b * xl_pow * lam * inv1,
            math.sqrt(2.0) / 4.0, strict=True)
    else:
        conds["A1"] = _cond(max(consts.g_L2T - xi, consts.g_H1T - cap),
                            0.0, strict=False)
        conds["A2"] = _cond(
            consts.C_h * inv1 * (gn_term + consts.Dg_L2) + consts.g_L2T,
            xi, strict=False)
        conds["A3"] = _cond(
            math.sqrt(consts.c1) * (1.0 + inv1) * (gn_term + consts.Dg_L2)
            + consts.g_H1T,
            cap, strict=False)
        conds["A4"] = _cond(b_val, eps / math.sqrt(2.0), strict=True)

    return ConditionReport(mode=mode, conditions=conds, theta_A=theta_a,
                           theta_B=theta_b, p_B=p_b, kappa=kappa, A=a_val,
                           B=b_val, eps=eps, contraction_bound=bound)


def c3_lambda_threshold(consts):
    """Largest |lambda|/|lambda_1| ratio compatible with condition (C3)."""
    _, theta_b, _, kappa = derive_exponents(consts)
    return 1.0 / (kappa * 2.0 ** 1.5 * 3.0 ** theta_b)


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
    fixed point of the affine map.
    """
    # imported here, its only use: fractions and decimal cost every other
    # command 4-13 ms at start-up
    from fractions import Fraction

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
    trace = BootstrapTrace(reciprocals=[float(v) for v in rec],
                           closed_form=[float(v) for v in closed],
                           m_star=m_star)
    if any(a != b for a, b in zip(rec, closed)):
        raise NumericalError("bootstrap recursion/closed-form mismatch")
    return trace


def variational_functional(sd, phi, n):
    """F(phi) = (int |D phi|^q)^{(n+1)/n} / |int Re<D phi, phi>|, q = 2n/(n+1).

    0-homogeneous in phi; equals |lambda_k| on normalized eigenfunctions.
    """
    if n < 2:
        raise ParameterError("need n >= 2, got %r" % (n,))
    dphi = apply_operator(sd, phi)
    q = 2.0 * n / (n + 1.0)
    num = lp_norm(dphi, q) ** q
    w = phi.grid.weights()
    pairing = float(np.sum(w * np.real(np.sum(dphi.values.conj()
                                              * phi.values, axis=1))))
    if abs(pairing) <= 1e-12:
        raise DegeneratePairingError(
            "pairing |int Re<D phi, phi>| = %.3e too small" % abs(pairing))
    return num ** ((n + 1.0) / n) / abs(pairing)


def el_transform(sd, phi, q):
    """Transformed spinor Psi = |D phi|^{q-2} D phi (pointwise)."""
    dphi = apply_operator(sd, phi)
    m = dphi.modulus()
    fac = np.zeros_like(m)
    nz = m > 0
    fac[nz] = m[nz] ** (q - 2.0)
    return SpinorField(phi.grid, fac[:, None] * dphi.values)


VARIANT_FIRST = "first"
VARIANT_SECOND = "second"
VARIANT_FRACTIONAL = "fractional"


def _random_smooth_field(grid, rng, max_mode=8):
    """Band-limited random scalar trial field (not boundary-constrained)."""
    x = grid.points()
    vals = np.zeros(grid.n_points, dtype=complex)
    for k in range(max_mode + 1):
        c = (rng.standard_normal() + 1j * rng.standard_normal()) / (1.0 + k * k)
        if grid.topology == CIRCLE:
            vals += c * np.exp(2j * np.pi * k * x / grid.length)
        else:
            vals += c * np.exp(1j * np.pi * k * x / grid.length)
    return SpinorField(grid, vals)


def estimate_gn_ratio(grid, variant, n, p=None, p_A=None, trials=100, seed=0,
                      sd=None):
    """Empirical LOWER bound for a Gagliardo-Nirenberg constant.

    Maximizes the relevant norm ratio over random band-limited trial
    fields.  variants: 'first' bounds K_GN (target L^{p(n+1)/(n-1)}...),
    'second' bounds K_GN2 (target L^{2n/(n-1)}), 'fractional' bounds K_FGN
    (source norm H^{1/2}_D through sd, which is then required).
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if variant not in (VARIANT_FIRST, VARIANT_SECOND, VARIANT_FRACTIONAL):
        raise ParameterError("unknown variant %r" % (variant,))
    if variant == VARIANT_FRACTIONAL and sd is None:
        raise ParameterError("fractional variant needs spectral data")
    theta = n / (n + 1.0)
    q = 2.0 * n / (n + 1.0)
    if variant == VARIANT_FIRST:
        if p is None:
            raise ParameterError("first variant needs p")
        target = p * (n + 1.0) / (n - 1.0)
    else:
        if p_A is None:
            raise ParameterError("variant %r needs p_A" % (variant,))
        target = 2.0 * n / (n - 1.0) if variant == VARIANT_SECOND else p_A

    rng = np.random.default_rng(seed)
    best = 0.0
    for trial in range(trials):
        if variant == VARIANT_FRACTIONAL:
            m = sd.size
            c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            f = sd.operator.embed(c)
            source = graph_norm(sd, 0.5, f)
        else:
            if trial == 0:  # constant field: a clean deterministic sample
                f = SpinorField(grid, np.ones(grid.n_points, dtype=complex))
            else:
                f = _random_smooth_field(grid, rng)
            source = w1q_norm(f, q)
        num = lp_norm(f, target)
        den = lp_norm(f, q) ** (1.0 - theta) * source ** theta
        if den > 0:
            best = max(best, num / den)
    return best
