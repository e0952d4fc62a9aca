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
empirical regularity constants c1 and c_{1/2} as generalized Rayleigh
quotients, the one part that imports scipy.  No other module reads
the eigenvectors.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ConfigurationError, DegenerateFormError, NearSingularError,
                     NumericalError, ParameterError, SingularPowerError,
                     UndefinedSplittingError)
from .grids import SpinorField, derivative, slobodeckij_form
from .operators import apply_D, fourier_modes

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
    eigenvalues and transform from operators.fourier_modes, no dense
    matrix and no eigh.  Its transform is checked once on a fixed unit
    probe vector c: D_P c through the eigenexpansion must match
    project(apply_D(embed(c))) to 1e-9 * max(max |lambda|, 1), else
    NumericalError.  A bare matrix goes through decompose_dense.
    """
    if op.spec is None:
        return decompose_dense(op)
    freqs, phase, perm = fourier_modes(op.spec)
    order, lambda1, invertible = _order_spectrum(freqs)
    sd = FourierSpectralData(operator=op, eigenvalues=freqs[order],
                             lambda1=lambda1, invertible=invertible,
                             order=order, phase=phase, perm=perm)

    rng = np.random.default_rng(0)
    c = rng.standard_normal(sd.size) + 1j * rng.standard_normal(sd.size)
    c /= np.linalg.norm(c)
    ref = op.project(apply_D(op.spec, op.embed(c)))
    resid = np.max(np.abs(apply_operator(sd, c) - ref))
    if resid > 1e-9 * max(np.max(np.abs(freqs)), 1.0):
        raise NumericalError("Fourier probe residual %.3e too large" % resid)
    return sd


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
    """Largest generalized eigenvalues behind c1_emp and c_half_emp."""
    # imported here: scipy.linalg is the largest part of the start-up time
    # of every command, and nothing else needs it
    import scipy.linalg
    op = sd.operator
    if op.spec is None or op.constraint_map is None:
        raise ConfigurationError("estimate_constants needs a grid-backed operator")
    if not sd.invertible:
        raise SingularPowerError("estimate_constants needs an invertible operator")
    grid, r = op.spec.grid, op.spec.rank
    vmap, w, vals = op.constraint_map, op.weights, sd.eigenvalues
    eye = np.eye(sd.size)

    # d/dx of every column of V, each spinor component on its own: V's
    # rows are point-major, so (N, r*m) puts the points along axis 0
    dv = derivative(SpinorField(grid, vmap.reshape(grid.n_points, -1)))
    dv = dv.values.reshape(vmap.shape)
    num1 = eye + dv.conj().T @ (w[:, None] * dv)
    den1 = _eigen_form(sd, 1.0 + vals ** 2)  # I + D_P^2
    try:
        c1_emp = float(np.max(scipy.linalg.eigh(num1, den1,
                                                eigvals_only=True)))
    except np.linalg.LinAlgError as exc:
        raise DegenerateFormError("singular denominator form: %s" % exc) from exc

    q = slobodeckij_form(grid, 0.5)
    if r > 1:
        q = np.kron(q, np.eye(r))
    num_h = eye + vmap.conj().T @ (q @ vmap)
    num_h = 0.5 * (num_h + num_h.conj().T)
    den_h = _eigen_form(sd, 1.0 + np.abs(vals))  # I + |D_P|
    try:
        c_half_emp = float(np.max(scipy.linalg.eigh(num_h, den_h,
                                                    eigvals_only=True)))
    except np.linalg.LinAlgError as exc:
        raise DegenerateFormError("singular denominator form: %s" % exc) from exc

    return c1_emp, c_half_emp


def _eigen_form(sd, d):
    """The Hermitian form sym(U diag(d) U^H) over the eigenvectors U."""
    u = sd.eigenvectors
    form = (u * d) @ u.conj().T
    return 0.5 * (form + form.conj().T)


def random_constrained_field(sd, rng):
    """Random field in the discrete constraint space (unit coefficient scale)."""
    m = sd.size
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return sd.operator.embed(c / np.sqrt(2 * m))
