"""Fixed-point iteration for D u = lambda |u|^{p-2} u, P u = P g.

The iterates u_k = g + utilde_k keep P u_k = P g, and a run iterates on
the eigen-coefficients c_k of utilde_k.  One step of the scheme shifted
by a corrects them by the residual r_k = D u_k - lambda |u_k|^{p-2} u_k:

    c_{k+1} = c_k - (D_P - a)^{-1} P r_k,

which on P u_k = P g is the map (D_P - a) utilde_{k+1} =
P(lambda |u_k|^{p-2} u_k - D g) - a utilde_k, Picard's at a = 0, with no
D g to build.  True solutions (r = 0) are stationary for every admissible
a; a rescaled R D_P - a iterates as the shift a/R.  Convergence is
monitored through the H^{1/2}_D graph norm of Delta_k = u_k - u_{k-1},
read off the correction.

Outside the smallness conditions the iteration may blow up; run reports
that as the verdict "diverged", never as an error: a start f0 - g, an
iterate or a field computed from it (D u, the nonlinearity, the
residual) that leaves the floats, a non-finite increment, or an L2 norm
past the blow-up cap.
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
    the eigen-coefficients of the correction (0 at k = 0), and ratio is
    delta_k / delta_{k-1} (None when delta_{k-1} = 0, always at k <= 1);
    u_k itself is not kept.
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


def step(sd, r_k, shifted):
    """The Picard map T as a correction: c_{k+1} - c_k = -(D_P - a)^{-1} P r_k,
    from state k's residual r_k = D u_k - lambda |u_k|^{p-2} u_k and
    shifted = shifted_spectrum(sd, a), which run builds once per run."""
    return -sd.to_coeffs(r_k) / shifted


def _residual(cfg, u, du):
    """r = D u - lambda |u|^{p-2} u, given du = D u."""
    return du - cfg.lam * nonlinearity(u, cfg.p)


def verify_solution(sd, cfg, u):
    """Strong PDE residual ||r||_L2 and boundary residual of a candidate."""
    spec = sd.operator.spec
    return (lp_norm(_residual(cfg, u, apply_D(spec, u)), 2),
            boundary_residual(spec, u, cfg.g))


def _measure(spec, cfg, k, u, delta, prev):
    """State k of iterate u, after increments prev and delta, and its
    residual r: D u, N(u) and ||u||_L2 once each.  A D u, N(u) or r past
    the floats gives r = None and an inf pde_residual (and u_H1, for D u)."""
    l2t_norm = lp_norm(u, 2)
    h1t_norm = pde_residual = math.inf
    r = None
    with suppress(InvalidFieldError):
        du = apply_D(spec, u)
        h1t_norm = w1q(l2t_norm, lp_norm(du, 2), 2)
        r = _residual(cfg, u, du)
        pde_residual = lp_norm(r, 2)
    return IterationState(
        k=k, delta_norm_H12D=delta, ratio=delta / prev if prev else None,
        l2t_norm=l2t_norm, h1t_norm=h1t_norm,
        pde_residual=pde_residual), r


def run(sd, cfg):
    """Iterate from f0 until Cauchy convergence, divergence or max_iter.

    A run keeps the eigen-coefficients c_k of utilde_k = u_k - g, from f0
    projected onto the space the map acts on: c_0 = sd.to_coeffs(f0 - g)
    and u_0 = g + from_coeffs(c_0), which is g when f0 = g.  The H^{1/2}_D
    weight 1 + |lambda_j| is built once, and the shifted spectrum at the
    first step, where a singular shift raises.  One loop body serves every
    state k: it measures u_k and r_k, applies the stop tests from k = 1 on,
    and else adds the correction step(sd, r_k, shifted) to c_k, taking
    u_{k+1} only after a finite increment norm (sum_j |correction_j|^2
    (1 + |lambda_j|))^{1/2}.  Only the last iterate is kept, as report.u.
    The run ends "diverged" when f0 - g (state 0 is then f0), r_k or a step
    leaves the floats, or when ||u_k||_L2, k >= 1, exceeds
    10 max(Xi, Lambda_cap, 1) (state 0 is exempt: at lambda = 0 one step
    solves the problem from any f0).
    """
    u = cfg.f0 if cfg.f0 is not None else cfg.g
    spec = sd.operator.spec
    blow_up = 10.0 * max(cfg.Xi, cfg.Lambda_cap, 1.0)
    weight = graph_weight(sd.eigenvalues, 0.5)
    states, verdict, prev, delta = [], "max_iter_exceeded", 0.0, 0.0
    shifted = coeffs = None  # f0 - g past the floats: diverged
    with np.errstate(over="ignore", invalid="ignore"):
        with suppress(InvalidFieldError):
            c_0 = sd.to_coeffs(u - cfg.g)
            u, coeffs = sd.from_coeffs(c_0) + cfg.g, c_0
        for k in range(cfg.max_iter + 1):
            st, r = _measure(spec, cfg, k, u, delta, prev)
            states.append(st)
            if k and st.l2t_norm > blow_up:
                verdict = "diverged"
            elif k and delta < cfg.tol_cauchy and (st.ratio or 0.0) < 1.0 \
                    and st.pde_residual < cfg.tol_residual:
                verdict = "converged"  # Cauchy alone iterates on to max_iter
            if verdict != "max_iter_exceeded" or k == cfg.max_iter:
                break
            try:
                if r is None or coeffs is None:
                    raise InvalidFieldError("r_k or f0 - g is not finite")
                if shifted is None:
                    shifted = shifted_spectrum(sd, cfg.a)
                correction = step(sd, r, shifted)
                prev, delta = delta, float(np.sqrt(np.sum(
                    np.abs(correction) ** 2 * weight)))
                c_next = coeffs + correction
                u_next = sd.from_coeffs(c_next) + cfg.g
            except InvalidFieldError:
                delta = math.inf
            if not np.isfinite(delta):
                verdict = "diverged"
                break
            u, coeffs = u_next, c_next
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
