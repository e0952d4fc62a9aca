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

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidFieldError, NumericalError, ParameterError
from .grids import slobodeckij_operator
from .operators import apply_D, derivative_form

ConstantEstimates = namedtuple("ConstantEstimates", ["c1_emp", "c_half_emp"])


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
    embed.
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
    def rayleigh_maxima(self):  # estimate_constants's memo
        return _rayleigh_maxima(self)

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
    positive one on a near-tie; the spectrum is invertible when
    |lambda1| > 1e-10 * max(max |vals|, 1).
    """
    order = np.lexsort((vals < 0, np.abs(vals)))
    vals = vals[order]
    scale = max(np.max(np.abs(vals)), 1.0)
    invertible = bool(abs(vals[0]) > 1e-10 * scale)
    # on a near-tie at the smallest modulus, report the positive eigenvalue
    lambda1 = vals[0]
    close = np.abs(np.abs(vals) - abs(vals[0])) <= 1e-9 * max(abs(vals[0]), 1.0)
    if np.any(vals[close] > 0):
        lambda1 = float(np.max(vals[close] * (vals[close] > 0)))
    return order, float(lambda1), invertible


def decompose(op):
    """Spectral decomposition of D_P, sorted by increasing modulus.

    Eigenvalues and transform come from the Fourier modes of
    ModelSpec.structure: no dense matrix and no eigh.  The transform is
    checked once on the probe c = _fixed_unit_vector(m): D_P c through
    the eigenexpansion must match project(apply_D(embed(c))) to
    1e-9 * max(max |lambda|, 1), else NumericalError.  A model whose
    eigenvalues or probe leave the floats (a tiny model.length) raises
    NumericalError too, naming model.length and model.n_points.
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
    if not np.isfinite(resid):
        grid = op.spec.grid
        raise NumericalError(
            "the eigenvalues of D_P or its Fourier probe are not finite at "
            "model.length = %r, model.n_points = %d"
            % (grid.length, grid.n_points))
    if resid > 1e-9 * max(np.max(np.abs(freqs)), 1.0):
        raise NumericalError("Fourier probe residual %.3e too large" % resid)
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
    """(D_P - a)^{-1} f through the eigenexpansion."""
    dist = np.abs(sd.eigenvalues - a)
    k = int(np.argmin(dist))
    if dist[k] <= 1e-8:
        raise ParameterError(
            "shift a=%r within 1e-8 of eigenvalue %r"
            % (complex(a), float(sd.eigenvalues[k])))
    return sd.from_coeffs(sd.to_coeffs(f) / (sd.eigenvalues - a))


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


def graph_norm(sd, s, f):
    """H^s_D graph norm (sum |a_k|^2 (1 + |lambda_k|^{2s}))^{1/2}.

    Finite on a zero mode too, so it needs no invertible operator.
    """
    if not 0.0 < s <= 1.0:
        raise ParameterError("s must lie in (0,1], got %r" % (s,))
    a = sd.to_coeffs(f)
    return float(np.sqrt(np.sum(np.abs(a) ** 2
                                * (1.0 + np.abs(sd.eigenvalues) ** (2 * s)))))


def estimate_constants(sd):
    """Empirical regularity constants as generalized Rayleigh quotients.

    c1_emp maximizes ||psi||_{W^{1,2}}^2 / (||psi||_{L2}^2 + ||D_P psi||^2)
    over the constraint space; c_half_emp does the same with the s = 1/2
    Slobodeckij numerator and |D_P|^{1/2} denominator.  Both depend on sd
    alone; they are computed on the first call and kept on sd.  The
    config's c_half = formula is resolved by RunConfig.build_constants.
    """
    return ConstantEstimates(*sd.rayleigh_maxima)


def _rayleigh_maxima(sd):
    """Largest generalized eigenvalues behind c1_emp and c_half_emp.

    Each is max over constrained y of y^H N y / y^H Den y.  Both
    denominators, I + D_P^2 and I + |D_P|, are diagonal in the
    eigenbasis U, Den = U diag(d) U^H, so the maximum is the largest
    eigenvalue of the standard form d^{-1/2} U^H N U d^{-1/2}, found by
    _lanczos_max from products with it alone: synthesize, embed, apply
    the numerator on the grid, V^H, analyze, scale.  The numerators are
    I + V^H D^H W D V (operators.derivative_form: D the model's own
    operator, W the quadrature weights) and I + V^H Q V (Q of
    grids.slobodeckij_operator, s = 1/2).  On the scalar models D V =
    V D_P, so the c1 standard form is the identity and c1_emp is 1; on
    bag1d the SBP boundary rows make it grow like 1.52 N.
    NumericalError, naming model.length and model.n_points, when a
    denominator overflows.
    """
    op = sd.operator
    if not sd.invertible:
        raise ParameterError("estimate_constants needs an invertible operator")
    grid, lam = op.spec.grid, sd.eigenvalues

    def standard_form_max(numerator, d, what):
        scale = 1.0 / np.sqrt(d)

        def matvec(x):
            y = sd._synthesize(scale * x)
            ny = y + op.adjoint(numerator(op.embed(y).values).reshape(-1))
            return scale * sd._analyze(ny)
        return _lanczos_max(matvec, sd.size, what)

    with np.errstate(over="ignore"):
        den_1, den_half = 1.0 + lam ** 2, 1.0 + np.abs(lam)
    if not np.all(np.isfinite((den_1, den_half))):
        raise NumericalError(
            "1 + lambda_k^2 or 1 + |lambda_k| overflows at model.length = %r, "
            "model.n_points = %d" % (grid.length, grid.n_points))
    where = "at model.n_points = %d" % grid.n_points
    c1_emp = standard_form_max(lambda v: derivative_form(op.spec, v), den_1,
                               "c1_emp " + where)
    c_half_emp = standard_form_max(slobodeckij_operator(grid, 0.5), den_half,
                                   "c_half_emp " + where)
    return c1_emp, c_half_emp


# Lanczos steps allowed per ceil(sqrt(m / 4096)) before _lanczos_max
# gives up: 1024 up to m = 4096, 2048 up to 16384, 3072 up to 36864.
# The c_half form of the antiperiodic model, the slowest, needs about
# 6.5 sqrt(N): 104 steps at N=256, 216 at N=1024, 416 at N=4096, 592 at
# N=8192 and 840 at N=16384; bag1d needs at most 16 up to N=4096, and
# either model's c1 form converges at the first check.  Only
# the run time grows with the steps; the memory stays O(m).
LANCZOS_MAX_STEPS = 1024
# steps between two convergence checks of the top Ritz pair
_LANCZOS_CHECK_EVERY = 8


def _lanczos_max(matvec, m, what):
    """Largest eigenvalue of a Hermitian positive definite map of C^m.

    The plain three-term Lanczos recurrence from the fixed start vector
    _fixed_unit_vector(m), with no reorthogonalization: it keeps the last
    two basis vectors and the tridiagonal's entries only, so its memory
    is O(m) however many steps it takes.  Every _LANCZOS_CHECK_EVERY
    steps, and at the last step allowed, the top Ritz pair (theta, s) of
    the tridiagonal is computed to the last bit by _top_ritz_pair, and
    the run stops when its residual beta_k |s_k| is at most 1e-10 theta.
    Lost orthogonality does not spoil that test for the top eigenvalue
    (Paige, Lin. Alg. Appl. 34, 1980): it brings only copies of Ritz
    values that have already converged.  Nor is step m an exit, since
    the basis is no longer orthogonal by then: a run may go on past m
    steps.  NumericalError, naming `what` and the cap, when
    LANCZOS_MAX_STEPS * ceil(sqrt(m / 4096)) steps do not converge.
    """
    cap = LANCZOS_MAX_STEPS * math.ceil(math.sqrt(m / 4096))
    alpha, beta = [], []
    q, q_prev = _fixed_unit_vector(m), None
    for k in range(cap):
        v = matvec(q)
        if k:
            v -= beta[-1] * q_prev
        alpha.append(np.vdot(q, v).real)
        v -= alpha[-1] * q
        beta.append(np.linalg.norm(v))
        if ((k + 1) % _LANCZOS_CHECK_EVERY == 0 or beta[-1] == 0.0
                or k + 1 == cap):
            theta, s = _top_ritz_pair(alpha, beta[:-1])
            resid = beta[-1] * abs(s)
            if resid <= 1e-10 * theta:
                return float(theta)
        q_prev, q = q, v / beta[-1]
    raise NumericalError("Lanczos did not converge in %d steps for %s "
                         "(residual %.3e of %.6e)"
                         % (cap, what, resid, theta))


def _top_ritz_pair(alpha, beta):
    """Top eigenvalue of the Lanczos tridiagonal T, last entry of its vector.

    Both come from O(k) scalar recurrences on the entries of T, with no
    LAPACK call: LAPACK on a k x k matrix hands its inner products to
    the threaded BLAS once k passes about 100, and on two threads the
    wake-ups of the BLAS workers cost more than the whole check and vary
    tenfold from one run to the next.  theta is found by _bisect_top to
    the last bit, the least float above which T has no eigenvalue, and
    the vector by _last_component.
    """
    a, b = [float(x) for x in alpha], [float(x) for x in beta]
    theta = _bisect_top(a, b)
    return theta, _last_component(a, b, theta)


def _bisect_top(a, b):
    """Top eigenvalue of T = (a, b), bisected to the last bit.

    Bisection on Sturm counts between max(a), a Rayleigh quotient of T,
    and the Gershgorin bound, until no float lies strictly between the
    ends; returns the upper end, the least float above which T has no
    eigenvalue.
    """
    b2 = [x * x for x in b]
    mag = [abs(x) for x in b]
    lo = max(a)
    hi = max(ai + right + left for ai, right, left
             in zip(a, mag + [0.0], [0.0] + mag))
    pivmin = np.finfo(float).tiny * max(b2 + [1.0])
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _count_below(a, b2, mid, pivmin) == len(a):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def _last_component(a, b, theta):
    """Last entry of T's top eigenvector, by inverse iteration near theta.

    Two steps of inverse iteration with sigma I - T, sigma =
    theta (1 + 1e-11) above the spectrum when theta >= lambda_1, so the
    system is positive definite and is solved without pivoting.  T's
    off-diagonal beta is positive, so its top eigenvector is positive
    (Perron-Frobenius) and the start vector of ones is never orthogonal
    to it.
    """
    b2 = [x * x for x in b]
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


def _count_below(a, b2, sigma, pivmin):
    """Sturm count: eigenvalues of the tridiagonal (a, sqrt(b2)) below sigma.

    The number of negative pivots of the LDL^T factorization of
    T - sigma I; a pivot smaller than pivmin in modulus is replaced by
    -pivmin, as in LAPACK's dlaebz.
    """
    count, d = 0, a[0] - sigma
    for ai, bi2 in zip(a[1:], b2):
        # chained comparisons and a branch: no call in this hot loop
        if -pivmin < d < pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
        d = ai - sigma - bi2 / d
    return count + (d < pivmin)

