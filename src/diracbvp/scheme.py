"""Fixed-point iteration for D u = lambda |u|^{p-2} u, P u = P g.

The homogenized iterate is utilde_k = u_k - g.  One step of the scheme
shifted by a solves

    (D_P - a) utilde_{k+1} = lambda |u_k|^{p-2} u_k - a utilde_k - D g

in eigen-coefficients; with a = 0 this is the plain Picard map
utilde_{k+1} = D_P^{-1}(lambda |u_k|^{p-2} u_k - D g).  True solutions are
stationary for every admissible a; a rescaled R D_P - a iterates as the
shift a/R.  Convergence is monitored through the H^{1/2}_D graph norm of
Delta_k = u_k - u_{k-1}, from coefficients.

Outside the smallness conditions the iteration may blow up; run reports
that as the verdict "diverged", never as an error: an iterate, D g or a
field computed from them (a nonlinearity, a step's right-hand side) that
leaves the floats, a non-finite increment, or an L2 norm past the blow-up cap.
"""

import math
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .errors import InvalidFieldError, ParameterError
from .grids import SpinorField, lp_norm, nonlinearity, w1q
from .operators import apply_D, boundary_residual
from .spectral import graph_weight, shifted_spectrum


@dataclass
class SchemeConfig:
    lam: complex
    p: float
    g: SpinorField
    a: complex = 0.0
    f0: Optional[SpinorField] = None  # default: start from g
    Xi: float = 1.0
    Lambda_cap: float = 1.0
    max_iter: int = 200
    tol_cauchy: float = 1e-10
    tol_residual: float = 1e-8

    def __post_init__(self):
        if self.p < 2:
            raise ParameterError("scheme needs p >= 2, got %r" % (self.p,))
        if self.max_iter < 1:
            raise ParameterError("max_iter must be >= 1")
        if self.tol_cauchy <= 0 or self.tol_residual <= 0:
            raise ParameterError("tolerances must be positive")
        if self.Xi <= 0 or self.Lambda_cap <= 0:
            raise ParameterError("Xi and Lambda_cap must be positive")


@dataclass
class IterationState:
    """One iterate u_k of a run: the scalars of its trace.csv row.

    delta_norm_H12D is ||u_k - u_{k-1}|| in the H^{1/2}_D graph norm, from
    the eigen-coefficients of the two iterates (0 at k = 0), ratio is delta_k / delta_{k-1} (None when delta_{k-1} = 0,
    always at k <= 1); u_k itself is not kept.
    """
    k: int
    delta_norm_H12D: float
    ratio: Optional[float]
    l2t_norm: float
    h1t_norm: float
    pde_residual: float


@dataclass
class IterationReport:
    """A run's states, its last iterate u and the summaries of the states."""
    states: list
    u: SpinorField
    verdict: str
    iterations: int  # the last k whose increment is >= tol_cauchy, else 0
    pde_residual: float
    boundary_residual: float
    bounds_held: bool
    lambda1: float
    conditions_certified: Optional[bool] = None

    @property
    def ratios(self):
        """The increment ratios of the states that have one, in order."""
        return [st.ratio for st in self.states if st.ratio is not None]

    def to_dict(self):
        """Every scalar field; the states go to trace_rows."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("states", "u")}


def step(sd, cfg, u_k, n_k, dg):
    """One iteration step: the coefficients c_{k+1} of utilde_{k+1}.

    n_k = |u_k|^{p-2} u_k and dg = D g are the caller's; the right-hand
    side lambda n_k - dg - a utilde_k is one array (the SpinorField
    operations, in their order), checked finite once (InvalidFieldError).
    Its coefficients are divided by shifted_spectrum(sd, a).
    """
    shifted = shifted_spectrum(sd, cfg.a)
    rhs = n_k.values * cfg.lam - dg.values - (u_k.values - cfg.g.values) * cfg.a
    return sd.to_coeffs(SpinorField(u_k.grid, rhs)) / shifted


def _pde_residual(cfg, du, nu):
    """||du - lambda nu||_L2: the strong residual, du = D u, nu = N(u)."""
    return lp_norm(du - cfg.lam * nu, 2)


def verify_solution(sd, cfg, u):
    """Strong PDE residual and boundary residual of a candidate solution."""
    spec = sd.operator.spec
    return (_pde_residual(cfg, apply_D(spec, u), nonlinearity(u, cfg.p)),
            boundary_residual(spec, u, cfg.g))


def run(sd, cfg):
    """Iterate from f0 until Cauchy convergence, divergence or max_iter.

    A run keeps the eigen-coefficients c_k of utilde_k = u_k - g, from
    c_0 = sd.to_coeffs(f0 - g) (f0 may lie off the constraint space): a
    step is one transform pair, and the increment's H^{1/2}_D norm is
    (sum_j |c_k - c_{k-1}|_j^2 (1 + |lambda_j|))^{1/2}.  D g is computed
    once per run, D u_k, N(u_k) and ||u_k||_L2 once per state (N(u_k)
    serves its pde_residual and the next step, ||u_k||_L2 is u_L2 and,
    with ||D u_k||_L2, gives u_H1 by grids.w1q).  Each iterate is kept
    as an IterationState and only the last as report.u: a run holds
    O(N) memory whatever max_iter is.  The run ends as "diverged" when a
    step leaves the floats, when the increment is not finite, or when
    the L2 norm of an iterate u_k, k >= 1, exceeds 10 max(Xi,
    Lambda_cap, 1).  State 0 is recorded, a norm that overflows reading
    inf, but the start is not held to that cap: at lambda = 0 one step
    solves the linear problem from any f0.
    """
    u = cfg.f0 if cfg.f0 is not None else cfg.g
    spec = sd.operator.spec
    blow_up = 10.0 * max(cfg.Xi, cfg.Lambda_cap, 1.0)
    weight = graph_weight(sd.eigenvalues, 0.5)

    def make_state(k, u_cur, delta, prev):
        """State k and N(u_k); a D u or N(u) past the floats reads as inf
        norms (each apart) and N(u_k) as None."""
        l2t_norm = lp_norm(u_cur, 2)
        h1t_norm = pde_residual = math.inf
        du = nu = None
        with suppress(InvalidFieldError):
            du = apply_D(spec, u_cur)
            h1t_norm = w1q(l2t_norm, lp_norm(du, 2), 2)
        with suppress(InvalidFieldError):
            nu = nonlinearity(u_cur, cfg.p)
            if du is not None:
                pde_residual = _pde_residual(cfg, du, nu)
        return IterationState(
            k=k, delta_norm_H12D=delta, ratio=delta / prev if prev else None,
            l2t_norm=l2t_norm, h1t_norm=h1t_norm,
            pde_residual=pde_residual), nu

    with np.errstate(over="ignore", invalid="ignore"):
        st, nu = make_state(0, u, 0.0, 0.0)
        states = [st]
        verdict = "max_iter_exceeded"
        for k in range(1, cfg.max_iter + 1):
            try:
                if k == 1:  # guarded like a step: diverged from state 0
                    dg, coeffs = apply_D(spec, cfg.g), sd.to_coeffs(u - cfg.g)
                if nu is None:
                    raise InvalidFieldError("|u_k|^{p-2} u_k is not finite")
                c_next = step(sd, cfg, u, nu, dg)
                delta = float(np.sqrt(np.sum(np.abs(c_next - coeffs) ** 2
                                             * weight)))
                u_next = sd.from_coeffs(c_next) + cfg.g
            except InvalidFieldError:
                delta = math.inf
            if not np.isfinite(delta):
                verdict = "diverged"
                break
            u, coeffs = u_next, c_next
            st, nu = make_state(k, u, delta, states[-1].delta_norm_H12D)
            states.append(st)
            if st.l2t_norm > blow_up:
                verdict = "diverged"
                break
            if (delta < cfg.tol_cauchy and (st.ratio is None or st.ratio < 1.0)
                    and st.pde_residual < cfg.tol_residual):
                verdict = "converged"  # Cauchy alone iterates on to max_iter
                break
        # |u - g| past ~1e154 at an endpoint overflows the norm to inf
        boundary = boundary_residual(spec, u, cfg.g)

    bounds_held = all(st.l2t_norm <= cfg.Xi * (1 + 1e-12)
                      and st.h1t_norm <= cfg.Lambda_cap * (1 + 1e-12)
                      for st in states)
    if verdict == "max_iter_exceeded" and not bounds_held:
        verdict = "bound_violated"
    return IterationReport(
        states=states, u=u, verdict=verdict,
        iterations=max((st.k for st in states
                        if st.delta_norm_H12D >= cfg.tol_cauchy), default=0),
        pde_residual=states[-1].pde_residual, boundary_residual=boundary,
        bounds_held=bounds_held, lambda1=sd.lambda1)


def scale_problem(cfg, alpha):
    """Equivalent problem with lambda-hat = alpha*lambda (Remark-style scaling).

    Fields (and the caps Xi, Lambda) scale by alpha^{1/(2-p)}; defined for
    p > 2 only.
    """
    if alpha <= 0:
        raise ParameterError("alpha must be positive, got %r" % (alpha,))
    if cfg.p == 2:
        raise ParameterError("scaling is undefined at p = 2")
    fac = alpha ** (1.0 / (2.0 - cfg.p))
    return replace(cfg,
                   lam=alpha * cfg.lam,
                   g=fac * cfg.g,
                   f0=None if cfg.f0 is None else fac * cfg.f0,
                   Xi=fac * cfg.Xi,
                   Lambda_cap=fac * cfg.Lambda_cap)


def trace_rows(report):
    """Iteration trace as rows `k,delta_H12D,ratio,u_L2,u_H1,pde_residual`."""
    return [[st.k, repr(st.delta_norm_H12D),
             "" if st.ratio is None else repr(st.ratio),
             repr(st.l2t_norm), repr(st.h1t_norm), repr(st.pde_residual)]
            for st in report.states]
