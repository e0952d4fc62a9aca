"""Spectral decomposition of D_P and the functional calculus built on it.

decompose has two backends behind one interface, SpectralData.  Every
grid-backed model (antiperiodic, periodic, bag1d) is diagonal in
modulated Fourier modes, so its eigenvalues are the frequencies of
operators.fourier_modes and its eigen-coefficient transform is permute,
demodulate, FFT (FourierSpectralData), in O(m log m) time and O(m)
memory.  Only bare matrices (AssembledOperator.from_matrix) go through
the dense Hermitian eigensolve decompose_dense (DenseSpectralData), which
is also the tests' reference.  Everything downstream lives here: the
eigen-coefficient transform (SpectralData.to_coeffs/from_coeffs), the
application of D_P, inverses (optionally shifted), fractional powers
|D_P|^s, the +/- spectral splitting, graph norms of H^s_D, and the
empirical regularity constants c1 and c_{1/2}: the largest generalized
Rayleigh quotients, found matrix-free by a capped Lanczos iteration on
products with the transform, the constraint map and O(N log N) grid
stencils, with no dense form and no scipy.  No production path reads
the dense eigenvectors.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ConfigurationError, NearSingularError, NumericalError,
                     ParameterError, SingularPowerError,
                     UndefinedSplittingError)
from .grids import (SpinorField, derivative, derivative_adjoint,
                    slobodeckij_operator)
from .operators import apply_D

ConstantEstimates = namedtuple("ConstantEstimates",
                               ["c1_emp", "c_half_emp", "c_half_formula"])


@dataclass
class SpectralData:
    """Eigenvalues of D_P and the eigen-coefficient transform.

    eigenvalues are sorted by increasing modulus, the positive one first
    on a tie; each backend supplies the transform (_analyze/_synthesize on
    constrained coordinates) and `eigenvectors`, the orthonormal
    eigenvector columns in the same order.
    """
    operator: object
    eigenvalues: np.ndarray = field(repr=False)
    lambda1: float
    invertible: bool
    # (c1_emp, c_half_emp) once estimate_constants has computed them
    _rayleigh_maxima: tuple = field(default=None, init=False, repr=False,
                                    compare=False)

    @property
    def size(self):
        return self.eigenvalues.size

    def to_coeffs(self, f):
        """Eigen-coefficients of a SpinorField or constrained coordinates."""
        return self._analyze(self.operator.project(f))

    def from_coeffs(self, coeff, like=None):
        """Inverse of to_coeffs; a raw vector when like is an ndarray."""
        c = self._synthesize(coeff)
        if isinstance(like, np.ndarray):
            return c
        return self.operator.embed(c)


@dataclass
class DenseSpectralData(SpectralData):
    """Backend of decompose_dense: stored eigenvectors, dense products."""
    eigenvectors: np.ndarray = field(repr=False)

    def _analyze(self, y):
        return self.eigenvectors.conj().T @ y

    def _synthesize(self, coeff):
        return self.eigenvectors @ coeff


@dataclass
class FourierSpectralData(SpectralData):
    """Fourier backend: eigenvectors P^T diag(phase) F^H / sqrt(m).

    order[k] is the FFT bin of eigenvalue k; phase and perm are the
    modulation and coordinate permutation of operators.fourier_modes.
    to_coeffs is y -> fft(conj(phase) y[perm], norm="ortho") and from_coeffs
    its inverse, with the bins permuted into eigenvalue order.
    """
    order: np.ndarray = field(repr=False)
    phase: np.ndarray = field(repr=False)
    perm: np.ndarray = field(repr=False)

    def _analyze(self, y):
        z = self.phase.conj() * y[self.perm]
        return np.fft.fft(z, norm="ortho")[self.order]

    def _synthesize(self, coeff):
        bins = np.empty(self.size, dtype=complex)
        bins[self.order] = coeff
        out = np.empty(self.size, dtype=complex)
        out[self.perm] = self.phase * np.fft.ifft(bins, norm="ortho")
        return out

    @cached_property
    def eigenvectors(self):
        """The dense eigenvector matrix, built by FFT on first read."""
        vecs = np.zeros((self.size, self.size), dtype=complex)
        vecs[self.order, np.arange(self.size)] = 1.0
        vecs = np.fft.ifft(vecs, axis=0, norm="ortho")
        vecs *= self.phase[:, None]
        out = np.empty_like(vecs)
        out[self.perm] = vecs
        return out


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

    A grid-backed operator, on every model, gets the Fourier backend:
    eigenvalues and transform from the model's fourier_modes
    (ModelSpec.modes), no dense matrix and no eigh.  Its transform is checked once on the probe
    c = _fixed_unit_vector(m): D_P c through the eigenexpansion must match
    project(apply_D(embed(c))) to 1e-9 * max(max |lambda|, 1), else
    NumericalError.  A bare matrix goes through decompose_dense.
    """
    if op.spec is None:
        return decompose_dense(op)
    freqs, phase, perm = op.spec.modes
    order, lambda1, invertible = _order_spectrum(freqs)
    sd = FourierSpectralData(operator=op, eigenvalues=freqs[order],
                             lambda1=lambda1, invertible=invertible,
                             order=order, phase=phase, perm=perm)

    c = _fixed_unit_vector(sd.size)
    ref = op.project(apply_D(op.spec, op.embed(c)))
    resid = np.max(np.abs(apply_operator(sd, c) - ref))
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


def decompose_dense(op):
    """Dense Hermitian eigendecomposition of op.matrix, by modulus.

    O(m^3): the backend of bare matrices only, and the reference the
    Fourier backend is tested against.  Raises NumericalError when an
    eigenpair residual exceeds 1e-9 * max(max |lambda|, 1).
    """
    try:
        vals, vecs = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed: %s" % exc) from exc
    order, lambda1, invertible = _order_spectrum(vals)
    vals, vecs = vals[order], vecs[:, order]

    scale = max(np.max(np.abs(vals)), 1.0)
    resid = np.max(np.abs(op.matrix @ vecs - vecs * vals))
    if resid > 1e-9 * scale:
        raise NumericalError("eigenpair residual %.3e too large" % resid)
    return DenseSpectralData(operator=op, eigenvalues=vals, eigenvectors=vecs,
                             lambda1=lambda1, invertible=invertible)


def apply_operator(sd, f):
    """D_P f through the eigenexpansion."""
    return sd.from_coeffs(sd.eigenvalues * sd.to_coeffs(f), f)


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
        raise NearSingularError(
            "shift a=%r within 1e-8 of eigenvalue %r"
            % (complex(a), float(sd.eigenvalues[k])))
    return sd.from_coeffs(sd.to_coeffs(f) / (sd.eigenvalues - a), f)


def apply_fractional(sd, s, f):
    """|D_P|^s f for s in (0, 1]."""
    if not 0.0 < s <= 1.0:
        raise ParameterError("s must lie in (0,1], got %r" % (s,))
    if not sd.invertible and s < 1.0:
        raise SingularPowerError(
            "fractional power %r of a non-invertible operator" % (s,))
    return sd.from_coeffs(np.abs(sd.eigenvalues) ** s * sd.to_coeffs(f), f)


def split_pm(sd, f):
    """Orthogonal projections of f onto positive/negative spectral subspaces."""
    if not sd.invertible:
        raise UndefinedSplittingError("zero eigenvalue present, +/- split undefined")
    a = sd.to_coeffs(f)
    pos = sd.eigenvalues > 0
    return (sd.from_coeffs(np.where(pos, a, 0.0), f),
            sd.from_coeffs(np.where(pos, 0.0, a), f))


def graph_norm(sd, s, f):
    """H^s_D graph norm (sum |a_k|^2 (1 + |lambda_k|^{2s}))^{1/2}.

    Finite on a zero mode too, so it needs no invertible operator.
    """
    if not 0.0 < s <= 1.0:
        raise ParameterError("s must lie in (0,1], got %r" % (s,))
    a = sd.to_coeffs(f)
    return float(np.sqrt(np.sum(np.abs(a) ** 2
                                * (1.0 + np.abs(sd.eigenvalues) ** (2 * s)))))


def estimate_constants(sd, c_h=1.0, iota=1.0):
    """Empirical regularity constants as generalized Rayleigh quotients.

    c1_emp maximizes ||psi||_{W^{1,2}}^2 / (||psi||_{L2}^2 + ||D_P psi||^2)
    over the constraint space; c_half_emp does the same with the s = 1/2
    Slobodeckij numerator and |D_P|^{1/2} denominator.  c_half_formula is
    the plug-in bound 2 * c1_emp * c_h^2 * iota^2.  The two maxima depend
    on sd alone; they are computed on the first call and kept on sd.
    """
    if sd._rayleigh_maxima is None:
        sd._rayleigh_maxima = _rayleigh_maxima(sd)
    c1_emp, c_half_emp = sd._rayleigh_maxima
    return ConstantEstimates(c1_emp=c1_emp, c_half_emp=c_half_emp,
                             c_half_formula=2.0 * c1_emp * c_h ** 2 * iota ** 2)


def _rayleigh_maxima(sd):
    """Largest generalized eigenvalues behind c1_emp and c_half_emp.

    Each is max over constrained y of y^H N y / y^H Den y.  Both
    denominators, I + D_P^2 and I + |D_P|, are diagonal in the
    eigenbasis U, Den = U diag(d) U^H, so the maximum is the largest
    eigenvalue of the standard form d^{-1/2} U^H N U d^{-1/2}, found by
    _lanczos_max from products with it alone: synthesize, embed, apply
    the numerator on the grid, V^H, analyze, scale.  The numerators are
    I + V^H G^H W G V (G the grids.derivative stencil, W the quadrature
    weights) and I + V^H Q V (Q of grids.slobodeckij_operator, s = 1/2).
    """
    op = sd.operator
    if op.spec is None:
        raise ConfigurationError("estimate_constants needs a grid-backed operator")
    if not sd.invertible:
        raise SingularPowerError("estimate_constants needs an invertible operator")
    grid, lam = op.spec.grid, sd.eigenvalues
    w = grid.weights()[:, None]

    def sobolev(v):  # G^H W G
        dv = derivative(SpinorField(grid, v))
        return derivative_adjoint(SpinorField(grid, w * dv.values)).values

    def standard_form_max(numerator, d):
        scale = 1.0 / np.sqrt(d)

        def matvec(x):
            y = sd._synthesize(scale * x)
            ny = y + op.adjoint(numerator(op.embed(y).values).reshape(-1))
            return scale * sd._analyze(ny)
        return _lanczos_max(matvec, sd.size)

    c1_emp = standard_form_max(sobolev, 1.0 + lam ** 2)
    c_half_emp = standard_form_max(slobodeckij_operator(grid, 0.5),
                                   1.0 + np.abs(lam))
    return c1_emp, c_half_emp


# Lanczos steps allowed before _lanczos_max gives up.  Measured on the
# c_half form of the antiperiodic model, the slowest to converge: 136
# steps at N=512, 264 at N=2048, 376 at N=4096, 552 at N=8192 (beyond
# the cap); bag1d needs at most 16 up to N=4096.
LANCZOS_MAX_STEPS = 512
# steps between two convergence checks of the top Ritz pair
_LANCZOS_CHECK_EVERY = 8
# relative width of the bracket on theta in an intermediate check
_RITZ_RTOL = 1e-8


def _lanczos_max(matvec, m):
    """Largest eigenvalue of a Hermitian positive definite map of C^m.

    Lanczos from the fixed start vector _fixed_unit_vector(m), with the
    three-term recurrence followed by one full reorthogonalization
    against the basis, written as einsum products, not BLAS
    matrix-vector calls.  Every few steps the top Ritz pair (theta, s) of
    the tridiagonal is checked; the run stops when its residual
    beta_k |s_k| is at most 1e-10 theta, or at step m, where theta is
    exact.  A check first asks the cheaper _surely_unconverged and
    computes the pair to the last bit only when that cannot rule
    convergence out, so the stopping step and the returned float are
    those of checks done to the last bit throughout.  NumericalError
    when LANCZOS_MAX_STEPS steps do not converge; the basis never holds
    more than that many vectors.
    """
    steps = min(m, LANCZOS_MAX_STEPS)
    # rows are written one per step, so memory grows with the steps taken
    basis = np.empty((steps, m), dtype=complex)
    alpha, beta = np.zeros(steps), np.zeros(steps)
    basis[0] = _fixed_unit_vector(m)
    for k in range(steps):
        q, prev = basis[k], basis[:k + 1]
        v = matvec(q)
        if k:
            v -= beta[k - 1] * basis[k - 1]
        alpha[k] = np.vdot(q, v).real
        v -= alpha[k] * q
        # full reorthogonalization: v -= Q (Q^H v)
        v -= np.einsum("ij,i->j", prev, np.einsum("ij,j->i", prev,
                                                   v.conj()).conj())
        beta[k] = np.linalg.norm(v)
        check = (k + 1) % _LANCZOS_CHECK_EVERY == 0 or k + 1 == steps \
            or beta[k] == 0.0
        if check and (k + 1 == steps or not _surely_unconverged(
                alpha[:k + 1], beta[:k], beta[k])):
            theta, s = _top_ritz_pair(alpha[:k + 1], beta[:k])
            resid = beta[k] * abs(s)
            if resid <= 1e-10 * theta or k + 1 == m:
                return float(theta)
            if k + 1 == steps:
                raise NumericalError(
                    "Lanczos did not converge in %d steps (residual %.3e "
                    "of %.6e)" % (steps, resid, theta))
        basis[k + 1] = v / beta[k]


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
    a, b = alpha.tolist(), beta.tolist()
    theta = _bisect_top(a, b, 0.0)[1]
    return theta, _last_component(a, b, theta)


def _surely_unconverged(alpha, beta, beta_k):
    """True only if _top_ritz_pair would find beta_k |s| > 1e-10 theta.

    A cheaper check of the same residual: theta is bracketed to
    _RITZ_RTOL only, lo <= lambda_1 <= hi, about 26 Sturm counts instead
    of 52, and s comes from _last_component at hi.  That s is off by the
    share of the other eigenvectors left after two steps of inverse
    iteration, at most sqrt(k) r^2 in the 2-norm (the start vector of
    ones has norm sqrt(k) and a component >= 1 along the positive top
    eigenvector), where r = e / (e + d) bounds |sigma - lambda_1| /
    |sigma - lambda_j| over j >= 2: e = sigma - lo, and d = lo - q,
    with q a bisection point shown to lie above lambda_2 by its count.
    The same bound holds for the s of _top_ritz_pair, whose sigma lies
    between lambda_1 and this one.  The answer is True only when the
    residual stays above the threshold with |s| lowered by both bounds
    and by rounding, so it never differs from the full check's.
    """
    a, b = alpha.tolist(), beta.tolist()
    lo, hi, q = _bisect_top(a, b, _RITZ_RTOL)
    if q is None:  # no room between lambda_2 and lambda_1 was seen
        return False
    e = hi * (1.0 + 1e-11) - lo
    r = e / (e + lo - q)
    err = 2.0 * len(a) ** 0.5 * r * r + 8 * len(a) * np.finfo(float).eps
    return beta_k * (abs(_last_component(a, b, hi)) - err) > 1e-10 * hi


def _bisect_top(a, b, rtol):
    """Bracket lo <= lambda_1 <= hi on the top eigenvalue of T = (a, b).

    Bisection on Sturm counts between max(a), a Rayleigh quotient of T,
    and the Gershgorin bound, until hi - lo <= rtol * hi, or to the last
    bit when rtol = 0.  Also returns q, the first bisection point below
    which T has all but one eigenvalue (so lambda_2 < q <= lambda_1), or
    None when no bisection point fell between the two.
    """
    b2 = [x * x for x in b]
    mag = [abs(x) for x in b]
    lo = max(a)
    hi = max(ai + right + left for ai, right, left
             in zip(a, mag + [0.0], [0.0] + mag))
    pivmin = np.finfo(float).tiny * max(b2 + [1.0])
    q = None
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        count = _count_below(a, b2, mid, pivmin)
        if count == len(a):
            hi = mid
        else:
            if q is None and count == len(a) - 1:
                q = mid
            lo = mid
    return lo, hi, q


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


def random_constrained_field(sd, rng):
    """Random field in the discrete constraint space (unit coefficient scale)."""
    m = sd.size
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return sd.operator.embed(c / np.sqrt(2 * m))
