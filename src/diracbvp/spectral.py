"""Spectral decomposition of D_P and the functional calculus built on it.

Every model (antiperiodic, periodic, bag1d) is diagonal in modulated
Fourier modes of its constrained coordinates, so decompose reads its
eigenvalues off the frequencies of operators.model_structure, and its
eigen-coefficient transform is demodulate, FFT, sort: O(m log m) time
and O(m) memory, with no dense matrix and no stored eigenvectors.
Everything downstream lives here: the transform
(SpectralData.to_coeffs/from_coeffs), the application of D_P, inverses
(optionally shifted), fractional powers |D_P|^s, the +/- spectral
splitting and graph norms of H^s_D, all on SpinorFields, and the
empirical regularity constants c1 and c_{1/2}: the largest generalized
Rayleigh quotients, found matrix-free by the plain three-term Lanczos
recurrence, capped in steps and O(m) in memory, on products with the
transform, the constraint map and O(N log N) grid stencils.
"""

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidFieldError, NumericalError, ParameterError
from .grids import slobodeckij_operator
from .operators import apply_D, derivative_form


@dataclass
class SpectralData:
    """Eigenvalues of D_P and the eigen-coefficient transform.

    eigenvalues are sorted by increasing modulus, the positive one first
    on a tie.  The eigenvectors are diag(phase) F^H / sqrt(m), never
    stored: order[k] is the FFT bin of eigenvalue k, and phase is the
    modulation of the model's structure (operators.model_structure).  On
    constrained coordinates y, _analyze is y -> fft(conj(phase) y,
    norm="ortho") with the bins sorted into eigenvalue order, and
    _synthesize its inverse; to_coeffs and from_coeffs add project and
    embed.  c1_emp and c_half_emp are estimate_constants(self, 1) and
    estimate_constants(self, 1/2), computed when first read and kept by
    cached_property, so each runs its Lanczos at most once per
    decomposition.
    """
    operator: object
    eigenvalues: np.ndarray = field(repr=False)
    lambda1: float
    invertible: bool
    order: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.eigenvalues.size

    @cached_property
    def c1_emp(self):
        return estimate_constants(self, 1.0)

    @cached_property
    def c_half_emp(self):
        return estimate_constants(self, 0.5)

    def to_coeffs(self, f):
        """Eigen-coefficients of a SpinorField."""
        return self._analyze(self.operator.project(f))

    def from_coeffs(self, coeff):
        """Inverse of to_coeffs: the SpinorField with these coefficients."""
        return self.operator.embed(self._synthesize(coeff))

    def _analyze(self, y):
        phase = self.operator.spec.structure.phase
        return np.fft.fft(phase.conj() * y, norm="ortho")[self.order]

    def _synthesize(self, coeff):
        bins = np.empty(self.size, dtype=complex)
        bins[self.order] = coeff
        phase = self.operator.spec.structure.phase
        return phase * np.fft.ifft(bins, norm="ortho")


def _order_spectrum(vals):
    """Eigenvalue order, lambda1 and invertibility of a real spectrum.

    The order sorts by increasing modulus, the positive eigenvalue first
    on an exact tie.  lambda1 is the eigenvalue of smallest modulus, the
    positive one on a near-tie (1e-9 |lambda1|); invertible is
    shifted_spectrum's rule at a = 0.
    """
    order = np.lexsort((vals < 0, np.abs(vals)))
    vals = vals[order]
    invertible = bool(abs(vals[0]) > 1e-10 * np.max(np.abs(vals)))
    # on a near-tie at the smallest modulus, report the positive eigenvalue
    lambda1 = vals[0]
    close = np.abs(np.abs(vals) - abs(vals[0])) <= 1e-9 * abs(vals[0])
    if np.any(vals[close] > 0):
        lambda1 = float(np.max(vals[close] * (vals[close] > 0)))
    return order, float(lambda1), invertible


def shifted_spectrum(sd, a):
    """The spectrum lambda_k - a of D_P - a; ParameterError if singular."""
    shifted = sd.eigenvalues - a
    k = int(np.argmin(np.abs(shifted)))
    if abs(shifted[k]) <= 1e-10 * np.max(np.abs(shifted)):  # scale-free
        raise ParameterError(
            "lambda - a = %r too close to zero at eigenvalue %r"
            % (complex(shifted[k]), float(sd.eigenvalues[k])))
    return shifted


def decompose(op):
    """Spectral decomposition of D_P, sorted by increasing modulus.

    Eigenvalues and transform come from the Fourier modes of
    ModelSpec.structure: no dense matrix and no eigh.  The transform is
    checked once on the probe c = _fixed_unit_vector(m): D_P c through
    the eigenexpansion must match project(apply_D(embed(c))) to
    1e-9 max |lambda|, else NumericalError, as when the eigenvalues or
    the probe leave the floats (a tiny model.length); each names
    model.length and model.n_points.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        freqs = op.spec.structure.freqs
        order, lambda1, invertible = _order_spectrum(freqs)
        sd = SpectralData(operator=op, eigenvalues=freqs[order],
                          lambda1=lambda1, invertible=invertible,
                          order=order)
        c = _fixed_unit_vector(sd.size)
        try:
            ref = op.project(apply_D(op.spec, op.embed(c)))
        except InvalidFieldError:  # D_P c leaves the floats
            ref = math.inf
        resid = np.max(np.abs(sd._synthesize(sd.eigenvalues * sd._analyze(c))
                              - ref))
    if not np.isfinite(resid) or resid > 1e-9 * np.max(np.abs(freqs)):
        grid = op.spec.grid
        why = ("Fourier probe residual %.3e too large" % resid
               if np.isfinite(resid) else
               "the eigenvalues of D_P or its Fourier probe are not finite")
        raise NumericalError("%s at model.length = %r, model.n_points = %d"
                             % (why, grid.length, grid.n_points))
    return sd


def _fixed_unit_vector(m):
    """A fixed pseudo-random unit vector of C^m, the same on every run.

    Before normalization the real and imaginary parts of entry j are
    uniform in (-1/2, 1/2): the high and low 32-bit halves of splitmix64's
    output for the counter j + 1 (Steele, Lea & Flood 2014), computed by
    a few whole-array uint64 operations, so the cost is O(m) with no
    Python loop over m.  numpy.random is not used: importing it costs
    every command about 13 ms and 6 MiB.
    """
    z = np.arange(1, m + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    # big-endian words: the high half first on any platform
    x = z.astype(">u8").view(">u4") * 2.0 ** -32
    x -= 0.5 - 2.0 ** -33
    c = x.view(complex)
    return c / np.linalg.norm(c)


def apply_operator(sd, f):
    """D_P f through the eigenexpansion."""
    return sd.from_coeffs(sd.eigenvalues * sd.to_coeffs(f))


def eigenfunction(sd, k):
    """Normalized eigenfunction k (eigenvalue order) as a SpinorField."""
    coeff = np.zeros(sd.size)
    coeff[k] = 1.0
    return sd.from_coeffs(coeff)


def apply_inverse(sd, f, a=0.0):
    """(D_P - a)^{-1} f by the eigenexpansion; shifted_spectrum guards a."""
    return sd.from_coeffs(sd.to_coeffs(f) / shifted_spectrum(sd, a))


def apply_fractional(sd, s, f):
    """|D_P|^s f for s in (0, 1]."""
    if not 0.0 < s <= 1.0:
        raise ParameterError("s must lie in (0,1], got %r" % (s,))
    if not sd.invertible and s < 1.0:
        raise ParameterError(
            "fractional power %r of a non-invertible operator" % (s,))
    return sd.from_coeffs(np.abs(sd.eigenvalues) ** s * sd.to_coeffs(f))


def split_pm(sd, f):
    """Orthogonal projections of f onto positive/negative spectral subspaces."""
    if not sd.invertible:
        raise ParameterError("zero eigenvalue present, +/- split undefined")
    a = sd.to_coeffs(f)
    pos = sd.eigenvalues > 0
    return (sd.from_coeffs(np.where(pos, a, 0.0)),
            sd.from_coeffs(np.where(pos, 0.0, a)))


def graph_weight(eigenvalues, s):
    """The H^s_D weights 1 + |lambda_k|^{2s} of the eigen-coefficients."""
    return 1.0 + np.abs(eigenvalues) ** (2 * s)


def graph_norm(sd, s, f):
    """H^s_D graph norm (sum |a_k|^2 (1 + |lambda_k|^{2s}))^{1/2}.

    Finite on a zero mode too, so it needs no invertible operator.
    """
    if not 0.0 < s <= 1.0:
        raise ParameterError("s must lie in (0,1], got %r" % (s,))
    a = sd.to_coeffs(f)
    return float(np.sqrt(np.sum(np.abs(a) ** 2
                                * graph_weight(sd.eigenvalues, s))))


def estimate_constants(sd, s):
    """Empirical regularity constant c1_emp (s = 1) or c_half_emp (s = 1/2).

    The largest generalized Rayleigh quotient y^H N y / y^H Den y over the
    constraint space: ||psi||_{W^{1,2}}^2 / (||psi||_{L2}^2 + ||D_P psi||^2)
    at s = 1, the Slobodeckij H^{1/2} norm over the |D_P|^{1/2} graph norm
    at s = 1/2.  It is the one function that runs the Lanczos for a
    constant, afresh on each call: SpectralData.c1_emp and c_half_emp
    call it when first read and keep the value.

    Den = I + |D_P|^{2s} is
    U diag(d) U^H (d = graph_weight), so the maximum is the top
    eigenvalue of d^{-1/2} U^H N U d^{-1/2}, which _lanczos_max finds
    from products with it alone: synthesize, embed, apply the numerator
    on the grid, V^H, analyze, scale.  N is I + V^H D^H W D V at s = 1
    (operators.derivative_form: D the model's own operator, W the
    quadrature weights), else I + V^H Q V (grids.slobodeckij_operator).
    On the scalar models D V = V D_P, so the c1 form is the identity and
    c1_emp is 1; on bag1d the SBP boundary rows make it grow like
    1.52 N.  Both refuse a model whose 1 + lambda_k^2 overflows, by one
    NumericalError naming model.length and model.n_points.
    """
    op = sd.operator
    if not sd.invertible:
        raise ParameterError("estimate_constants needs an invertible operator")
    grid = op.spec.grid
    with np.errstate(over="ignore"):  # 1 + lambda^2 >= 1 + |lambda|
        finite = np.all(np.isfinite(graph_weight(sd.eigenvalues, 1.0)))
    if not finite:
        raise NumericalError(
            "1 + lambda_k^2 or 1 + |lambda_k| overflows at model.length = %r, "
            "model.n_points = %d" % (grid.length, grid.n_points))
    if s == 1.0:
        numerator, name = functools.partial(derivative_form, op.spec), "c1_emp"
    else:
        numerator, name = slobodeckij_operator(grid, s), "c_half_emp"
    scale = 1.0 / np.sqrt(graph_weight(sd.eigenvalues, s))

    def matvec(x):
        y = sd._synthesize(scale * x)
        ny = y + op.adjoint(numerator(op.embed(y).values).reshape(-1))
        return scale * sd._analyze(ny)
    return _lanczos_max(matvec, sd.size, "%s at model.n_points = %d"
                        % (name, grid.n_points))


# Lanczos steps allowed per ceil(sqrt(m / 4096)) before _lanczos_max
# gives up: 1024 up to m = 4096, 2048 up to 16384, 3072 up to 36864.
# The c_half form of the antiperiodic model, the slowest, needs about
# 6.5 sqrt(N): 96 steps at N=256, 208 at N=1024, 408 at N=4096, 584 at
# N=8192 and 824 at N=16384; bag1d needs at most 16 up to N=4096, and
# either model's c1 form converges at the first check.  Only
# the run time grows with the steps; the memory stays O(m).
LANCZOS_MAX_STEPS = 1024
# steps between two convergence checks of the top Ritz pair
_LANCZOS_CHECK_EVERY = 8


def _lanczos_max(matvec, m, what):
    """Largest eigenvalue of a Hermitian positive definite map of C^m.

    The plain three-term Lanczos recurrence from the fixed start vector
    _fixed_unit_vector(m), with no reorthogonalization: it keeps the last
    two basis vectors and the tridiagonal T = (a, b) of Python floats
    only, so its memory is O(m) however many steps it takes.  Every
    _LANCZOS_CHECK_EVERY steps, at the last step allowed, and at a
    beta_k = 0 (an invariant subspace: the residual is 0, so it returns
    there), it bisects T's top Ritz value theta to the last bit
    (_bisect_top), finds the last entry s of its vector
    (_last_component), and stops when the residual beta_k |s| is at most
    1e-10 theta.  Both are O(k) scalar recurrences, with no LAPACK call:
    LAPACK on a k x k matrix hands its inner products to the threaded
    BLAS once k passes about 100, and on two threads the wake-ups of the
    BLAS workers cost more than the whole check and vary tenfold from one
    run to the next.  Lost orthogonality does not spoil the test for the
    top eigenvalue (Paige, Lin. Alg. Appl. 34, 1980): it brings only
    copies of Ritz values that have already converged.  Nor is step m an
    exit, since the basis is no longer orthogonal by then: a run may go on
    past m steps.  NumericalError, naming `what` and the cap, when
    LANCZOS_MAX_STEPS * ceil(sqrt(m / 4096)) steps do not converge.
    """
    cap = LANCZOS_MAX_STEPS * math.ceil(math.sqrt(m / 4096))
    a, b, b2 = [], [], []
    q, q_prev = _fixed_unit_vector(m), None
    for k in range(cap):
        v = matvec(q)
        if k:
            v -= b[-1] * q_prev
        a.append(float(np.vdot(q, v).real))
        v -= a[-1] * q
        beta = float(np.linalg.norm(v))
        if (k + 1) % _LANCZOS_CHECK_EVERY == 0 or beta == 0.0 or k + 1 == cap:
            theta = _bisect_top(a, b, b2)
            resid = beta * abs(_last_component(a, b, b2, theta))
            if resid <= 1e-10 * theta:
                return theta
        b.append(beta)
        b2.append(beta * beta)
        q_prev, q = q, v / beta
    raise NumericalError("Lanczos did not converge in %d steps for %s "
                         "(residual %.3e of %.6e)"
                         % (cap, what, resid, theta))


def _bisect_top(a, b, b2):
    """Top eigenvalue of T = (a, b), b2 = b^2, bisected to the last bit.

    Bisection by _above_spectrum from max(a), a Rayleigh quotient of T,
    and the Gershgorin bound (b holds norms: no abs) until no float lies
    strictly between the ends (Demmel, Dhillon & Ren, ETNA 3, 1995);
    returns the upper end, the least float above which T has no eigenvalue.
    """
    lo = max(a)
    hi = max(ai + right + left for ai, right, left
             in zip(a, b + [0.0], [0.0] + b))
    pivmin = float(np.finfo(float).tiny) * max(b2 + [1.0])
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _above_spectrum(a, b2, mid, pivmin):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def _last_component(a, b, b2, theta):
    """Last entry of T's top eigenvector, by inverse iteration near theta.

    Two steps of inverse iteration with sigma I - T, sigma =
    theta (1 + 1e-11) above the spectrum when theta >= lambda_1, so the
    system is positive definite and is solved without pivoting.  T's
    off-diagonal b (b2 its squares) is positive, so its top eigenvector
    is positive (Perron-Frobenius) and the start vector of ones is never
    orthogonal to it.
    """
    # pivots of sigma I - T = L diag(piv) L^T, then two solves with it
    sigma = theta * (1.0 + 1e-11)
    piv = [sigma - a[0]]
    for ai, bi2 in zip(a[1:], b2):
        piv.append(sigma - ai - bi2 / piv[-1])
    x = [1.0] * len(a)
    for _ in range(2):
        for i, bi in enumerate(b):  # forward: L y = x
            x[i + 1] += bi / piv[i] * x[i]
        x[-1] /= piv[-1]
        for i in range(len(b) - 1, -1, -1):  # back: diag(piv) L^T x = y
            x[i] = x[i] / piv[i] + b[i] / piv[i] * x[i + 1]
        norm = sum(v * v for v in x) ** 0.5
        x = [v / norm for v in x]
    return x[-1]


def _above_spectrum(a, b2, sigma, pivmin):
    """Whether sigma lies above every eigenvalue of T = (a, sqrt(b2)).

    That is, whether the Sturm count of T - sigma I is len(a): whether
    every pivot of its LDL^T factorization is negative once a pivot
    smaller than pivmin in modulus is replaced by -pivmin, as in
    LAPACK's dlaebz.  Returns at the first pivot that is not.
    """
    d = a[0] - sigma
    for ai, bi2 in zip(a[1:], b2):
        # comparisons and a branch: no call in this hot loop
        if d >= pivmin:
            return False
        if d > -pivmin:
            d = -pivmin
        d = ai - sigma - bi2 / d
    return d < pivmin
