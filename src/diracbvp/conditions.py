"""Explicit constants, sufficient conditions and the variational functional.

Everything in this module is arithmetic on scalars plus a few quadrature
evaluations: the Hoelder/Gagliardo-Nirenberg exponents theta_A, theta_B,
p_B, the constant kappa, the condition families (A1)-(A4), (B1)-(B3),
(C1)-(C3) (their names MODE_A/B/C live in `names`), the functional
F(phi) whose critical values are the eigenvalue moduli, and one witness
per Gagliardo-Nirenberg constant, k_gn_witness, k_gn2_witness and
k_fgn_witness: a lower bound from fixed trial fields.
The Lebesgue-exponent bootstrap recursion is the `bootstrap` module.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .grids import SpinorField, _modulus_power, lp_norm, w1q
from .names import MODE_A, MODE_B, MODE_C
from .spectral import apply_operator, eigenfunction, graph_norm


@dataclass
class AnalyticConstants:
    """The numbers check_conditions reads; RunConfig.build_constants
    returns their provenance (assumed or computed) beside them."""
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

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("need n >= 2, got %r" % (self.n,))
        lo = 2.0 * self.n / (self.n - 1.0)  # the critical exponent
        if self.p is None:
            self.p = lo
        if self.p_A is None:
            self.p_A = lo
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


def _pow(name, base, exponent):
    """base ** exponent; a ParameterError names the constant on overflow."""
    try:
        return base ** exponent
    except OverflowError:
        raise ParameterError("%s = %r: %s ** %r overflows"
                             % (name, base, name, exponent)) from None


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
             * _pow("c_h", consts.c_h, -2.0 / (n - 1.0) - 2.0)
             * _pow("C_h", consts.C_h, 2.0 * (1.0 - theta_b))
             * _pow("c_half", consts.c_half, theta_b)
             * _pow("K_GN2", consts.K_GN2, 2.0 / (n - 1.0))
             * _pow("K_FGN", consts.K_FGN, 2))
    if not math.isfinite(kappa):
        raise ParameterError("kappa = %r is not finite" % (kappa,))
    return theta_a, theta_b, p_b, kappa


@dataclass
class ConditionReport:
    """check_conditions' verdict on one set of constants in one mode.

    check_conditions computes every field once; nothing recomputes one.
    theta_A, theta_B, p_B and kappa come from derive_exponents.
    c3_lambda_threshold, in every mode, is the largest ratio
    |lambda|/|lambda_1| that (C3) admits, 1/(kappa 2^{3/2} 3^{theta_B}),
    or inf when that coefficient underflows to 0 (a tiny K_FGN).
    certified is read off conditions; to_dict is the payload of `check`'s
    conditions.json, to which `check` adds the constants and provenance.
    """
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
    c3_lambda_threshold: float  # (C3) holds iff |lam|/|lam_1| is below it

    @property
    def certified(self):
        return all(c["satisfied"] for c in self.conditions.values())

    def to_dict(self):
        return dict(asdict(self), certified=self.certified)


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
    xl_pow = _pow("Xi", xi, 2.0 * (1.0 - theta_a) / (n - 1.0)) \
        * _pow("Lambda_cap", cap, 2.0 * theta_a / (n - 1.0))
    if mode == MODE_A:
        b_val = kappa * xl_pow * lam * _pow("lambda1_abs", lam1, theta_b - 1)
    else:
        b_val = kappa * 2.0 ** theta_b * xl_pow * lam * inv1
    bound = math.inf if eps <= 0 else math.sqrt(2.0) * b_val / eps

    # the Gagliardo-Nirenberg source term of the induction bounds
    gn_term = (lam * _pow("c_h", consts.c_h, -exp_gn)
               * _pow("K_GN", consts.K_GN, exp_gn)
               * _pow("Xi", xi, 1.0 / (n - 1.0))
               * _pow("Lambda_cap", cap, n / (n - 1.0)))
    source = gn_term + consts.Dg_L2
    c3 = kappa * 2.0 ** 1.5 * 3.0 ** theta_b  # (C3): c3 |lam|/|lam_1| < 1
    l2_cap = _cond(consts.C_h * inv1 * source + consts.g_L2T, xi,
                   strict=False)  # (C1), (B1) and (A2); xi = 1 in mode C
    root_c1 = math.sqrt(consts.c1)
    if mode == MODE_C:
        conds = {"C1": l2_cap,
                 "C2": _cond(4.0 * root_c1 * inv1 * source + consts.g_H1T,
                             cap, strict=False),
                 "C3": _cond(c3 * lam * inv1, 1.0, strict=True)}
    elif mode == MODE_B:
        conds = {"B1": l2_cap,
                 "B2": _cond(3.0 * root_c1 * inv1 * source + consts.g_H1T,
                             cap, strict=False),
                 "B3": _cond(b_val, math.sqrt(2.0) / 4.0, strict=True)}
    else:
        conds = {"A1": _cond(max(consts.g_L2T - xi, consts.g_H1T - cap),
                             0.0, strict=False),
                 "A2": l2_cap,
                 "A3": _cond(root_c1 * (1.0 + inv1) * source + consts.g_H1T,
                             cap, strict=False),
                 "A4": _cond(b_val, eps / math.sqrt(2.0), strict=True)}

    return ConditionReport(mode=mode, conditions=conds, theta_A=theta_a,
                           theta_B=theta_b, p_B=p_b, kappa=kappa, A=a_val,
                           B=b_val, eps=eps, contraction_bound=bound,
                           c3_lambda_threshold=1.0 / c3 if c3 else math.inf)


def variational_functional(sd, phi, n):
    """F(phi) = (int |D phi|^q)^{(n+1)/n} / |int Re<D phi, phi>|, q = 2n/(n+1).

    0-homogeneous in phi; equals |lambda_k| on normalized eigenfunctions
    of a unit-length model.  F has degree 1 in D phi, so it is computed
    from D phi / s and multiplied by s, a power of two near max |D phi|:
    a tiny model.length, whose |D phi|^2 leaves the floats, keeps its F.
    ParameterError when the pairing is at most 1e-12 times its
    Cauchy-Schwarz bound ||D phi||_2 ||phi||_2, a test as 0-homogeneous
    as F; NumericalError, naming model.length and model.n_points, when F
    itself is not finite.
    """
    q = _gn_exponent(n)
    dphi = apply_operator(sd, phi)
    grid = phi.grid
    s = np.ldexp(1.0, np.frexp(np.max(np.abs(dphi.values)))[1] - 1)
    dphi = SpinorField(grid, dphi.values / s)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # in np.float64 a power past the floats is inf, not OverflowError
        num = np.float64(lp_norm(dphi, q)) ** q
        pairing = abs(float(np.sum(grid.weights() * np.real(np.sum(
            dphi.values.conj() * phi.values, axis=1)))))
        if pairing <= 1e-12 * lp_norm(dphi, 2) * lp_norm(phi, 2):
            raise ParameterError(
                "pairing |int Re<D phi, phi>| = %.3e too small"
                % (pairing * s))
        value = float(num ** ((n + 1.0) / n) / pairing * s)
    if not math.isfinite(value):
        raise NumericalError("computing F(phi) overflows at model.length = "
                             "%r, model.n_points = %d"
                             % (grid.length, grid.n_points))
    return value


def el_transform(sd, phi, q):
    """Transformed spinor Psi = |D phi|^{q-2} D phi (pointwise)."""
    return _modulus_power(apply_operator(sd, phi), q - 2.0)


def _gn_exponent(n):
    """q = 2n/(n+1), the Lebesgue exponent of F and of every GN quotient."""
    if n < 2:
        raise ParameterError("need n >= 2, got %r" % (n,))
    return 2.0 * n / (n + 1.0)


def _bumps(grid, q):
    """The K_GN and K_GN2 trials (f, ||f||_q, S), S the W^{1,q} norm of f
    from its exact derivative f' = g/w: the constant field (g = 0), then
    f = exp(-t^2), g = -2 t f, t = d/w, for w = 2^j from about 4h up to
    L/4, d = x - L/2 (on a circle the arc distance from the middle, as
    |d| <= L/2).  |g| < 1, so no sample leaves the floats at any L, and
    lp_norm(g, q)/w is the L^q norm of f'."""
    def trial(f, df_q):
        f = SpinorField(grid, f)
        f_q = lp_norm(f, q)
        return f, f_q, w1q(f_q, df_q, q)
    yield trial(np.ones(grid.n_points), 0.0)
    d = grid.points() - grid.length / 2.0
    for j in range(math.ceil(math.log2(4.0 * grid.spacing)),
                   math.floor(math.log2(grid.length / 4.0)) + 1):
        w = math.ldexp(1.0, j)
        t = d / w
        f = np.exp(-t * t)
        yield trial(f, lp_norm(SpinorField(grid, -2.0 * t * f), q) / w)


def _witness(trials, n, r):
    """The largest ||f||_r / (||f||_q^{1-theta} S^theta), theta = n/(n+1),
    over the trials (f, ||f||_q, S): a witnessed LOWER bound for the
    Gagliardo-Nirenberg constant of that quotient.  The trials are fixed
    fields, so a witness is the same on every call."""
    theta = n / (n + 1.0)
    best = 0.0
    for f, f_q, source in trials:
        den = f_q ** (1.0 - theta) * source ** theta
        if den > 0:
            best = max(best, lp_norm(f, r) / den)
    return best


def k_gn_witness(grid, n, p):
    """Lower bound for K_GN over the _bumps trials, r = p(n+1)/(n-1)."""
    q = _gn_exponent(n)
    return _witness(_bumps(grid, q), n, p * (n + 1.0) / (n - 1.0))


def k_gn2_witness(grid, n):
    """Lower bound for K_GN2 over the _bumps trials, r = 2n/(n-1)."""
    q = _gn_exponent(n)
    return _witness(_bumps(grid, q), n, 2.0 * n / (n - 1.0))


def k_fgn_witness(sd, n, p_A):
    """Lower bound for K_FGN, r = p_A, S the H^{1/2}_D graph norm, over
    sd's eigenfunctions phi_k, k < 16, and the sums phi_0 + phi_k,
    0 < k < 8, on sd's own grid."""
    q = _gn_exponent(n)
    phi = [eigenfunction(sd, k) for k in range(min(sd.size, 16))]
    return _witness(((f, lp_norm(f, q), graph_norm(sd, 0.5, f))
                     for f in phi + [phi[0] + f for f in phi[1:8]]), n, p_A)
