"""Model Dirac operators on 1D domains and their boundary restrictions.

Three models:
  * antiperiodic scalar on an interval: D = -i d/dx with psi(L) = -psi(0),
    discretized exactly in the half-integer Fourier modes exp(i(2k+1)pi x/L)
    (a modulated FFT);
  * periodic scalar on a circle: D = -i d/dx, spectral (FFT), has a zero mode;
  * bag1d 2-spinor on an interval: D = -i sigma_1 d/dx with rank-1 projector
    conditions at each endpoint, 2nd-order summation-by-parts differences
    (_sbp_derivative).

_apply_D_values is the one definition of each model's D; apply_D applies
it to a field.  assemble() applies it to the columns of the constraint map
V, an orthonormal basis of the discrete kernel of the boundary operator P,
and compresses: D_P = sym(V^H W D V), with W the quadrature weights and
sym(M) = (M + M^H)/2, so the constrained matrix is Hermitian by
construction.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, IncompatibleFieldsError
from .grids import CIRCLE, INTERVAL, Grid1D, SpinorField, check_compatible

ANTIPERIODIC = "antiperiodic"
PERIODIC = "periodic"
BAG1D = "bag1d"

SCALAR_DERIVATIVE = "scalar_derivative"
DIRAC_2SPINOR = "dirac_2spinor"

# default bag1d endpoint kernel directions: <sigma_1 v, v> = 0 at both ends,
# which kills the integration-by-parts boundary term
BAG_V_LEFT = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
BAG_V_RIGHT = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)


def _check_projector(proj):
    proj = np.asarray(proj, dtype=complex)
    if proj.shape != (2, 2):
        raise ConfigurationError("bag1d projector must be 2x2")
    if np.max(np.abs(proj - proj.conj().T)) > 1e-12:
        raise ConfigurationError("bag1d projector must be Hermitian")
    if np.max(np.abs(proj @ proj - proj)) > 1e-12:
        raise ConfigurationError("bag1d projector must be idempotent")
    if abs(np.trace(proj).real - 1.0) > 1e-12:
        raise ConfigurationError("bag1d projector must have rank 1")
    return proj


@dataclass
class BoundaryCondition:
    kind: str
    data: Optional[SpinorField] = None  # the datum g when inhomogeneous
    projector_left: Optional[np.ndarray] = None
    projector_right: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in (ANTIPERIODIC, PERIODIC, BAG1D):
            raise ConfigurationError("unknown boundary kind %r" % (self.kind,))
        if self.kind == BAG1D:
            if self.projector_left is None:
                self.projector_left = np.eye(2) - np.outer(BAG_V_LEFT,
                                                           BAG_V_LEFT.conj())
            if self.projector_right is None:
                self.projector_right = np.eye(2) - np.outer(BAG_V_RIGHT,
                                                            BAG_V_RIGHT.conj())
            self.projector_left = _check_projector(self.projector_left)
            self.projector_right = _check_projector(self.projector_right)


@dataclass
class ModelSpec:
    grid: Grid1D
    operator_kind: str
    bc: BoundaryCondition

    def __post_init__(self):
        if self.operator_kind not in (SCALAR_DERIVATIVE, DIRAC_2SPINOR):
            raise ConfigurationError(
                "unknown operator kind %r" % (self.operator_kind,))
        kind = self.bc.kind
        if self.operator_kind == SCALAR_DERIVATIVE:
            if kind not in (ANTIPERIODIC, PERIODIC):
                raise ConfigurationError(
                    "scalar_derivative needs antiperiodic or periodic bc")
        else:
            if kind != BAG1D:
                raise ConfigurationError("dirac_2spinor needs bag1d bc")
        if kind == PERIODIC and self.grid.topology != CIRCLE:
            raise ConfigurationError("periodic bc needs a circle grid")
        if kind in (ANTIPERIODIC, BAG1D) and self.grid.topology != INTERVAL:
            raise ConfigurationError("%s bc needs an interval grid" % kind)

    @property
    def rank(self):
        return 1 if self.operator_kind == SCALAR_DERIVATIVE else 2


def _sbp_derivative(v, h):
    """Summation-by-parts first derivative along axis 0 of equispaced samples.

    Central differences inside, one-sided rows at the ends.  As a matrix D
    with the trapezoid weight matrix W this satisfies W D + D^T W = e_n e_n^T -
    e_0 e_0^T exactly, the discrete integration-by-parts identity, which
    is what makes the compressed bag operator Hermitian to rounding.

    It is not grids.derivative: that closes the ends with 2nd-order
    one-sided rows, which are accurate but break the SBP identity, and the
    norms (w1q_norm, estimate_constants) keep that convention.
    """
    dv = np.empty_like(v)
    dv[1:-1] = (v[2:] - v[:-2]) * (0.5 / h)
    dv[0] = (v[1] - v[0]) * (1.0 / h)
    dv[-1] = (v[-1] - v[-2]) * (1.0 / h)
    return dv


def _antiperiodic_freqs(grid):
    """Frequencies mu_k = (2k+1) pi / L of the antiperiodic modes.

    k runs over the m = N-1 integers -(m//2) .. m - m//2 - 1, listed in FFT
    order (k >= 0 first, then the negative k), so mu[k mod m] belongs to
    bin k of np.fft.fft on m points.
    """
    m = grid.n_points - 1
    ks = np.fft.ifftshift(np.arange(-(m // 2), m - m // 2))
    return (2 * ks + 1) * np.pi / grid.length


def _antiperiodic_modes(grid):
    """Unitary mode matrix U and frequencies mu of the antiperiodic model.

    Columns of U sample exp(i mu_k x)/sqrt(m) at the first m = N-1 grid
    points, in increasing mu; D = -i d/dx acts as U diag(mu) U^H there.
    Dense reference for the tests; the package applies D by FFT.
    """
    m = grid.n_points - 1
    x = grid.points()[:m]
    mu = np.fft.fftshift(_antiperiodic_freqs(grid))
    u = np.exp(1j * np.outer(x, mu)) / np.sqrt(m)
    return u, mu


@dataclass
class AssembledOperator:
    """Hermitian matrix of D restricted to the discrete kernel of P.

    constraint_map V embeds constrained coordinates into full-grid fields
    (flattened point-major, component-minor); its columns are orthonormal
    in the quadrature inner product, i.e. V^H W V = I.
    """
    matrix: np.ndarray = field(repr=False)
    spec: Optional[ModelSpec] = None
    constraint_map: Optional[np.ndarray] = field(default=None, repr=False)
    weights: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        defect = np.max(np.abs(m - m.conj().T))
        scale = max(np.max(np.abs(m)), 1e-300)
        if defect > 1e-12 * scale:
            raise ConfigurationError(
                "matrix is not Hermitian (defect %.3e)" % defect)
        self.matrix = m

    @property
    def n_constrained(self):
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix):
        """Wrap a hand-built Hermitian matrix with no grid attached."""
        return cls(matrix=np.asarray(matrix, dtype=complex))

    def _need_grid(self):
        if self.spec is None or self.constraint_map is None:
            raise ConfigurationError(
                "operation needs a grid-backed operator, not a bare matrix")

    def embed(self, coeffs):
        """Constrained coordinates -> full-grid SpinorField."""
        self._need_grid()
        flat = self.constraint_map @ np.asarray(coeffs, dtype=complex)
        n, r = self.spec.grid.n_points, self.spec.rank
        return SpinorField(self.spec.grid, flat.reshape(n, r))

    def project(self, f):
        """Full-grid field (or raw coefficient vector) -> constrained coords.

        Adjoint of embed in the quadrature inner product; acts as the
        orthogonal projection onto the discrete kernel of P.
        """
        if isinstance(f, np.ndarray):
            return np.asarray(f, dtype=complex)
        self._need_grid()
        flat = f.values.reshape(-1)
        return self.constraint_map.conj().T @ (self.weights * flat)


def assemble(spec):
    """Build the constrained Hermitian operator D_P for a model spec.

    D_P = sym(V^H W D V): D from _apply_D_values on the columns of the
    constraint map V, W the quadrature weights, sym(M) = (M + M^H)/2.
    Only V depends on the boundary condition.
    """
    grid = spec.grid
    n, r = grid.n_points, spec.rank
    w_pt = grid.weights()
    weights = np.repeat(w_pt, r)

    if spec.bc.kind == ANTIPERIODIC:
        m = n - 1
        vmap = np.zeros((n, m), dtype=complex)
        # first constrained dof pairs the two endpoints antiperiodically
        vmap[0, 0] = 1.0
        vmap[n - 1, 0] = -1.0
        for j in range(1, m):
            vmap[j, j] = 1.0
        vmap /= np.sqrt(grid.spacing)
    elif spec.bc.kind == PERIODIC:
        vmap = np.eye(n, dtype=complex) / np.sqrt(grid.spacing)
    else:  # bag1d
        m = 2 * n - 2
        vmap = np.zeros((2 * n, m), dtype=complex)
        vmap[0:2, 0] = BAG_V_LEFT / np.sqrt(w_pt[0])
        for j in range(1, n - 1):
            vmap[2 * j, 2 * j - 1] = 1.0 / np.sqrt(w_pt[j])
            vmap[2 * j + 1, 2 * j] = 1.0 / np.sqrt(w_pt[j])
        vmap[2 * n - 2:2 * n, m - 1] = BAG_V_RIGHT / np.sqrt(w_pt[n - 1])

    # V's rows are point-major, so (N, rank, columns) is a reshape
    dv = _apply_D_values(spec, vmap.reshape(n, r, -1)).reshape(vmap.shape)
    dv *= weights[:, None]
    matrix = vmap.conj().T @ dv
    del dv
    # sym in place: one temporary fewer at the memory peak
    matrix += matrix.conj().T
    matrix *= 0.5
    return AssembledOperator(matrix=matrix, spec=spec,
                             constraint_map=vmap, weights=weights)


def _apply_D_values(spec, v):
    """The model's D along axis 0 of samples v of shape (N, rank, ...).

    No boundary condition is imposed; this is the one definition of each
    model's differential operator.
    """
    grid = spec.grid
    # frequency vectors broadcast along axis 0
    col = (-1,) + (1,) * (v.ndim - 1)
    if spec.bc.kind == PERIODIC:
        xi = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)
        return np.fft.ifft(xi.reshape(col) * np.fft.fft(v, axis=0), axis=0)
    if spec.bc.kind == ANTIPERIODIC:
        # split off the constant offset so the remainder matches the
        # antiperiodic endpoint pairing, then differentiate in modes: the
        # mode matrix of _antiperiodic_modes is diag(phase) times the
        # unitary DFT, phase_j = exp(i pi j/m), so U diag(mu) U^H y is a
        # modulated FFT
        m = grid.n_points - 1
        mu = _antiperiodic_freqs(grid).reshape(col)
        phase = np.exp(1j * np.pi * np.arange(m) / m).reshape(col)
        c = 0.5 * (v[0] + v[-1])
        y = v[:-1] - c
        d = phase * np.fft.ifft(mu * np.fft.fft(phase.conj() * y, axis=0),
                                axis=0)
        return np.concatenate([d, -d[:1]])
    # bag1d: -i sigma_1 d/dx, sigma_1 swaps the two components
    return -1j * _sbp_derivative(v, grid.spacing)[:, ::-1]


def apply_D(spec, f):
    """Apply the unconstrained differential operator (no boundary condition)."""
    if f.grid != spec.grid or f.rank != spec.rank:
        raise IncompatibleFieldsError("field does not match the model spec")
    return SpinorField(f.grid, _apply_D_values(spec, f.values))


def boundary_residual(spec, u, g):
    """Norm of P(u - g) at the boundary; 0 means the condition holds."""
    check_compatible(u, g)
    if u.grid != spec.grid or u.rank != spec.rank:
        raise IncompatibleFieldsError("fields do not match the model spec")
    d = u.values - g.values
    if spec.bc.kind == PERIODIC:
        return 0.0
    if spec.bc.kind == ANTIPERIODIC:
        return float(np.linalg.norm(d[-1] + d[0]))
    res = np.linalg.norm(spec.bc.projector_left @ d[0])
    res += np.linalg.norm(spec.bc.projector_right @ d[-1])
    return float(res)


def dump_matrix(op, path):
    """Row-major little-endian complex128 binary dump of the matrix."""
    np.ascontiguousarray(op.matrix).astype("<c16").tofile(path)
