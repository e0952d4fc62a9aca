"""Eigendecomposition of D_P and the functional calculus built on it.

Everything downstream of the dense Hermitian eigensolve lives here:
the eigen-coefficient transform (SpectralData.to_coeffs/from_coeffs), the
application of D_P, inverses (optionally shifted), fractional powers
|D_P|^s, the +/- spectral splitting, graph norms of H^s_D, and the
empirical regularity constants c1 and c_{1/2} as generalized Rayleigh
quotients.  No other module reads the eigenvectors.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (ConfigurationError, DegenerateFormError, NearSingularError,
                     NumericalError, ParameterError, SingularPowerError,
                     UndefinedSplittingError)
from .grids import SpinorField, derivative, slobodeckij_form

ConstantEstimates = namedtuple("ConstantEstimates",
                               ["c1_emp", "c_half_emp", "c_half_formula"])


@dataclass
class SpectralData:
    operator: object
    eigenvalues: np.ndarray = field(repr=False)   # sorted by modulus
    eigenvectors: np.ndarray = field(repr=False)  # orthonormal columns
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
        return self.eigenvectors.conj().T @ self.operator.project(f)

    def from_coeffs(self, coeff, like=None):
        """Inverse of to_coeffs; a raw vector when like is an ndarray."""
        c = self.eigenvectors @ coeff
        if isinstance(like, np.ndarray):
            return c
        return self.operator.embed(c)


def decompose(op):
    """Full Hermitian eigendecomposition, sorted by increasing modulus."""
    try:
        vals, vecs = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed: %s" % exc) from exc
    order = np.lexsort((vals < 0, np.abs(vals)))
    vals, vecs = vals[order], vecs[:, order]

    scale = max(np.max(np.abs(vals)), 1.0)
    resid = np.max(np.abs(op.matrix @ vecs - vecs * vals))
    if resid > 1e-9 * scale:
        raise NumericalError("eigenpair residual %.3e too large" % resid)

    invertible = bool(abs(vals[0]) > 1e-10 * scale)
    # on a near-tie at the smallest modulus, report the positive eigenvalue
    lambda1 = vals[0]
    close = np.abs(np.abs(vals) - abs(vals[0])) <= 1e-9 * max(abs(vals[0]), 1.0)
    if np.any(vals[close] > 0):
        lambda1 = float(np.max(vals[close] * (vals[close] > 0)))
    return SpectralData(operator=op, eigenvalues=vals, eigenvectors=vecs,
                        lambda1=float(lambda1), invertible=invertible)


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
    """H^s_D graph norm (sum |a_k|^2 (1 + |lambda_k|^{2s}))^{1/2}."""
    if not 0.0 < s <= 1.0:
        raise ParameterError("s must lie in (0,1], got %r" % (s,))
    if not sd.invertible and s < 1.0:
        raise SingularPowerError(
            "graph norm of order %r needs an invertible operator" % (s,))
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
    op = sd.operator
    if op.spec is None or op.constraint_map is None:
        raise ConfigurationError("estimate_constants needs a grid-backed operator")
    if not sd.invertible:
        raise SingularPowerError("estimate_constants needs an invertible operator")
    grid, r = op.spec.grid, op.spec.rank
    vmap, w, mat = op.constraint_map, op.weights, op.matrix
    m = mat.shape[0]
    eye = np.eye(m)

    # d/dx of the identity's columns is the matrix of grids.derivative;
    # drop it once applied, it is a dense complex N x N array
    dmat = derivative(SpinorField(grid, np.eye(grid.n_points))).values
    dv = (np.kron(dmat, np.eye(r)) if r > 1 else dmat) @ vmap
    del dmat
    num1 = eye + dv.conj().T @ (w[:, None] * dv)
    den1 = eye + mat @ mat
    try:
        c1_emp = float(np.max(scipy.linalg.eigh(num1, den1,
                                                eigvals_only=True)))
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise DegenerateFormError("singular denominator form: %s" % exc) from exc

    q = slobodeckij_form(grid, 0.5)
    if r > 1:
        q = np.kron(q, np.eye(r))
    num_h = eye + vmap.conj().T @ (q @ vmap)
    num_h = 0.5 * (num_h + num_h.conj().T)
    absm = (sd.eigenvectors * np.abs(sd.eigenvalues)) @ sd.eigenvectors.conj().T
    den_h = eye + 0.5 * (absm + absm.conj().T)
    try:
        c_half_emp = float(np.max(scipy.linalg.eigh(num_h, den_h,
                                                    eigvals_only=True)))
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise DegenerateFormError("singular denominator form: %s" % exc) from exc

    return c1_emp, c_half_emp


def random_constrained_field(sd, rng):
    """Random field in the discrete constraint space (unit coefficient scale)."""
    m = sd.size
    c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return sd.operator.embed(c / np.sqrt(2 * m))
