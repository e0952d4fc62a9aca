"""Model Dirac operators on 1D domains and their boundary restrictions.

Three models:
  * antiperiodic scalar on an interval: D = -i d/dx with psi(L) = -psi(0),
    discretized exactly in the half-integer Fourier modes exp(i(2k+1)pi x/L);
  * periodic scalar on a circle: D = -i d/dx, spectral, has a zero mode;
  * bag1d 2-spinor on an interval: D = -i sigma_1 d/dx with rank-1 projector
    conditions at each endpoint, 2nd-order summation-by-parts differences
    (fd_matrix).

assemble() builds the full-grid operator, compresses it by an orthonormal
basis of the discrete kernel of the boundary operator P, and symmetrizes,
so the constrained matrix is Hermitian by construction.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, IncompatibleFieldsError, ParameterError
from .grids import CIRCLE, INTERVAL, Grid1D, SpinorField, check_compatible

ANTIPERIODIC = "antiperiodic"
PERIODIC = "periodic"
BAG1D = "bag1d"

SCALAR_DERIVATIVE = "scalar_derivative"
DIRAC_2SPINOR = "dirac_2spinor"

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

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


def fd_matrix(n, h):
    """Summation-by-parts first-derivative matrix on n equispaced points.

    Central differences inside, one-sided rows at the ends.  With the
    trapezoid weight matrix W this satisfies W D + D^T W = e_n e_n^T -
    e_0 e_0^T exactly, the discrete integration-by-parts identity, which
    is what makes the compressed bag operator Hermitian to rounding.

    It is not grids.derivative: that closes the ends with 2nd-order
    one-sided rows, which are accurate but break the SBP identity, and the
    norms (w1q_norm, estimate_constants) keep that convention.
    """
    mat = np.zeros((n, n))
    for j in range(1, n - 1):
        mat[j, j - 1], mat[j, j + 1] = -0.5 / h, 0.5 / h
    mat[0, 0], mat[0, 1] = -1.0 / h, 1.0 / h
    mat[-1, -2], mat[-1, -1] = -1.0 / h, 1.0 / h
    return mat


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

    def lift(self, coeffs, g=None):
        """Embed constrained coordinates and add the boundary datum g."""
        u = self.embed(coeffs)
        return u if g is None else u + g


def assemble(spec):
    """Build the constrained Hermitian operator D_P for a model spec."""
    grid = spec.grid
    n = grid.n_points
    w_pt = grid.weights()
    weights = np.repeat(w_pt, spec.rank)

    if spec.bc.kind == ANTIPERIODIC:
        u, mu = _antiperiodic_modes(grid)
        matrix = (u * mu) @ u.conj().T
        matrix = 0.5 * (matrix + matrix.conj().T)
        m = n - 1
        vmap = np.zeros((n, m), dtype=complex)
        # first constrained dof pairs the two endpoints antiperiodically
        vmap[0, 0] = 1.0
        vmap[n - 1, 0] = -1.0
        for j in range(1, m):
            vmap[j, j] = 1.0
        vmap /= np.sqrt(grid.spacing)
    elif spec.bc.kind == PERIODIC:
        xi = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
        dft = np.fft.fft(np.eye(n), axis=0) / np.sqrt(n)  # unitary
        matrix = dft.conj().T @ (xi[:, None] * dft)
        matrix = 0.5 * (matrix + matrix.conj().T)
        vmap = np.eye(n, dtype=complex) / np.sqrt(grid.spacing)
    else:  # bag1d
        dx = fd_matrix(n, grid.spacing)
        dfull = -1j * np.kron(dx, SIGMA1)
        m = 2 * n - 2
        vmap = np.zeros((2 * n, m), dtype=complex)
        vmap[0:2, 0] = BAG_V_LEFT / np.sqrt(w_pt[0])
        for j in range(1, n - 1):
            vmap[2 * j, 2 * j - 1] = 1.0 / np.sqrt(w_pt[j])
            vmap[2 * j + 1, 2 * j] = 1.0 / np.sqrt(w_pt[j])
        vmap[2 * n - 2:2 * n, m - 1] = BAG_V_RIGHT / np.sqrt(w_pt[n - 1])
        compressed = vmap.conj().T @ (weights[:, None] * (dfull @ vmap))
        matrix = 0.5 * (compressed + compressed.conj().T)

    return AssembledOperator(matrix=matrix, spec=spec,
                             constraint_map=vmap, weights=weights)


def apply_D(spec, f):
    """Apply the unconstrained differential operator (no boundary condition)."""
    if f.grid != spec.grid or f.rank != spec.rank:
        raise IncompatibleFieldsError("field does not match the model spec")
    v = f.values
    if spec.bc.kind == PERIODIC:
        xi = 2.0 * np.pi * np.fft.fftfreq(spec.grid.n_points,
                                          d=spec.grid.spacing)
        out = np.fft.ifft(xi[:, None] * np.fft.fft(v, axis=0), axis=0)
    elif spec.bc.kind == ANTIPERIODIC:
        # split off the constant offset so the remainder matches the
        # antiperiodic endpoint pairing, then differentiate in modes: the
        # mode matrix of _antiperiodic_modes is diag(phase) times the
        # unitary DFT, phase_j = exp(i pi j/m), so U diag(mu) U^H y is a
        # modulated FFT
        m = spec.grid.n_points - 1
        mu = _antiperiodic_freqs(spec.grid)[:, None]
        phase = np.exp(1j * np.pi * np.arange(m) / m)[:, None]
        c = 0.5 * (v[0] + v[-1])
        y = v[:-1] - c
        d = phase * np.fft.ifft(mu * np.fft.fft(phase.conj() * y, axis=0),
                                axis=0)
        out = np.vstack([d, -d[:1]])
    else:  # bag1d
        dx = fd_matrix(spec.grid.n_points, spec.grid.spacing)
        out = -1j * (dx @ v) @ SIGMA1.T
    return SpinorField(f.grid, out)


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
