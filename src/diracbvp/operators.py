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
it to a field.  The constraint map V is an orthonormal basis of the
discrete kernel of the boundary operator P, with one nonzero per row;
assemble() keeps it as the index arrays of _constraint_entries, so
embed (V c) and project (V^H W f) cost O(N), and the dense V is built
only for the tests' reference.  The compressed operator is
D_P = sym(V^H W D V), with W the quadrature weights and
sym(M) = (M + M^H)/2.

Every model's D_P is diagonal in modulated Fourier modes, and
fourier_modes gives their frequencies, modulation phase and the
permutation of the constrained coordinates they act on; the Fourier
spectral backend reads nothing else.  The scalar models are diagonal in
Fourier modes by construction.  For bag1d, sigma_1 and the central
differences couple each component at point j only to the other component
at j-1 and j+1: the 2N samples form two chains that meet only at the
endpoints, and V merges the two samples of each endpoint, so D_P has two
nonzeros per row on one cycle of m = 2N-2 nodes, every edge of modulus
1/(2h).  A diagonal unitary gauge along the cycle turns it into the real
symmetric shift, twisted by theta = 0 (N even) or 1/2 (N odd), whose
eigenvalues are cos(2 pi (k + theta)/m)/h, k = 0..m-1.  Each of them is
doubly degenerate, bar +-1/h when theta = 0: this is fermion doubling of
the central-difference stencil (Nielsen-Ninomiya), whereas the continuum
eigenvalues +-(j + 1/2) pi/L are simple.  The smallest positive
eigenvalue, sin(pi/m)/h -> pi/(2L), has multiplicity 2.

The dense matrix D_P is computed from V the first time
AssembledOperator.matrix is read, so it is Hermitian by construction; no
command reads it for a grid-backed model, only dump_matrix and the tests'
dense reference, spectral.decompose_dense.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigurationError, IncompatibleFieldsError, NumericalError
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
            for side, v, text in (("left", BAG_V_LEFT, "(1, i)"),
                                  ("right", BAG_V_RIGHT, "(1, -i)")):
                name = "projector_" + side
                default = np.eye(2) - np.outer(v, v.conj())
                proj = getattr(self, name)
                proj = default if proj is None else _check_projector(proj)
                # assemble builds V from the default kernel directions, so
                # any other projector would be validated and then ignored
                if np.max(np.abs(proj - default)) > 1e-12:
                    raise ConfigurationError(
                        "bag1d %s projector is not the default I - v v^H, "
                        "v = %s/sqrt(2): the constraint map is built for "
                        "the default condition only" % (side, text))
                setattr(self, name, proj)


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

    @cached_property
    def modes(self):
        """fourier_modes(self), computed on the first read and kept.

        Every apply_D on the scalar models and every decompose reads it,
        so a model pays for its frequencies and phase once.  The arrays
        are read-only, as every reader shares them.
        """
        modes = fourier_modes(self)
        for arr in modes:
            arr.flags.writeable = False
        return modes


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


def fourier_modes(spec):
    """Frequencies (FFT order), modulation phase and permutation of D_P.

    D_P acts on constrained coordinates y as
    z = y[perm];  z -> phase * ifft(freqs * fft(conj(phase) * z)),
    scattered back to y[perm]: D_P = P^T U diag(freqs) U^H P with the
    unitary U = diag(phase) F^H / sqrt(m), F the DFT matrix and P the
    permutation.  Periodic: freqs = 2 pi fftfreq, phase = 1; antiperiodic:
    the half-integer frequencies of _antiperiodic_freqs, phase_j =
    exp(i pi j/m); both have perm the identity (y holds the free samples up
    to V's factor 1/sqrt(h)).  bag1d: see _bag_modes.
    """
    grid = spec.grid
    if spec.bc.kind == BAG1D:
        return _bag_modes(spec)
    if spec.bc.kind == PERIODIC:
        m = grid.n_points
        freqs = 2.0 * np.pi * np.fft.fftfreq(m, d=grid.spacing)
        phase = np.ones(m)
    else:
        m = grid.n_points - 1
        freqs = _antiperiodic_freqs(grid)
        phase = np.exp(1j * np.pi * np.arange(m) / m)
    return freqs, phase, np.arange(m)


def _bag_modes(spec):
    """fourier_modes of bag1d: D_P gauged into a twisted symmetric shift.

    The walk starts at the left endpoint's component-1 row, runs along
    chain A (component j mod 2 at point j) to the right endpoint and back
    along chain B; V merges each endpoint's two rows, so the columns met,
    repeats dropped, are the cycle perm: left endpoint, chain A, right
    endpoint, chain B reversed.  The edge values
    e_k = D_P[perm[k+1], perm[k]] are read off _apply_D_values on three
    probes, V's nonzeros at the points j = 0, 1, 2 (mod 3): the stencil
    reaches one point each way, so every row meets one column of each
    probe at most.  With the gauge g_k = prod_{l<k} e_l/|e_l|,
    diag(g)^H D_P diag(g) is s = |e_k| times the symmetric shift closed
    by s g_m, g_m = +1 (theta = 0) or -1 (theta = 1/2); its eigenvalues
    are 2 s cos(2 pi (k + theta)/m), with phase_k = g_k exp(2 pi i theta
    k/m).  NumericalError when the |e_k| differ or g_m is not real.
    """
    n = spec.grid.n_points
    cols, vals = _constraint_entries(spec)
    j = np.arange(n)
    chain_a, chain_b = 2 * j + j % 2, 2 * j + 1 - j % 2
    walk = np.concatenate([chain_b[:1], chain_a, chain_b[:0:-1]])
    col = cols[walk]
    start = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    perm = col[start]
    m = perm.size
    row_in = walk[start]  # node k's row next to node k-1
    row_out = walk[np.r_[start[1:], walk.size] - 1]  # ... next to node k+1
    row_next = np.roll(row_in, -1)

    point = np.arange(2 * n) // 2
    probes = np.zeros((2 * n, 3), dtype=complex)
    probes[np.arange(2 * n), point % 3] = vals
    dq = _apply_D_values(spec, probes.reshape(n, 2, 3)).reshape(2 * n, 3)
    w = np.repeat(spec.grid.weights(), 2)

    def entry(row, other):
        # <V_a, W D V_b>, a the column of `row` and b that of `other`: the
        # probe holding b, after D, is D V_b alone at `row`
        return vals[row].conj() * w[row] * dq[row, point[other] % 3]

    edges = 0.5 * (entry(row_next, row_out) + entry(row_out, row_next).conj())
    moduli = np.abs(edges)
    s = np.mean(moduli)
    spread = np.max(np.abs(moduli - s))
    if spread > 1e-12 * s:
        raise NumericalError("bag1d cycle edges differ in modulus by %.3e"
                             % spread)
    gauge = np.cumprod(edges / moduli)
    closing = gauge[-1]
    if abs(abs(closing.real) - 1.0) > 1e-12 or abs(closing.imag) > 1e-12:
        raise NumericalError("bag1d closing edge is not real (phase %r)"
                             % complex(closing))
    theta = 0.0 if closing.real > 0 else 0.5
    # 2 s cos(2 pi (k + theta)/m) = 2 s sin(2 pi x/m) with the half-integer
    # x = m/4 - k - theta; folding x into [-m/4, m/4] by the symmetries of
    # sin makes each degenerate pair and each +- pair exactly equal
    x = (0.75 * m - np.arange(m) - theta) % m - 0.5 * m  # in [-m/2, m/2)
    x = np.where(x > 0.25 * m, 0.5 * m - x,
                 np.where(x < -0.25 * m, -0.5 * m - x, x))
    freqs = 2.0 * s * np.sin(2.0 * np.pi * x / m)
    phase = np.r_[1.0, gauge[:-1]] \
        * np.exp(2j * np.pi * theta * np.arange(m) / m)
    return freqs, phase, perm


def _check_hermitian(matrix):
    defect = np.max(np.abs(matrix - matrix.conj().T))
    scale = max(np.max(np.abs(matrix)), 1e-300)
    if defect > 1e-12 * scale:
        raise ConfigurationError(
            "matrix is not Hermitian (defect %.3e)" % defect)
    return matrix


@dataclass
class AssembledOperator:
    """D restricted to the discrete kernel of P, as a Hermitian operator.

    The constraint map V embeds constrained coordinates into full-grid
    fields (flattened point-major, component-minor); its columns are
    orthonormal in the quadrature inner product, V^H W V = I.  V has one
    nonzero per row and is kept as the index arrays of
    _constraint_entries, V[i, cols[i]] = vals[i], so embed is a scatter
    and project a gather, both O(N).  constraint_map builds the dense V
    on each read, for the tests' reference only.  The dense matrix
    D_P = sym(V^H W D V) is computed and checked for Hermiticity the
    first time `matrix` is read; decompose_dense (bare matrices, the
    tests' reference) and dump_matrix read it.
    """
    spec: Optional[ModelSpec] = None
    cols: Optional[np.ndarray] = field(default=None, repr=False)
    vals: Optional[np.ndarray] = field(default=None, repr=False)
    weights: Optional[np.ndarray] = field(default=None, repr=False)
    _matrix: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def matrix(self):
        if self._matrix is None:
            self._matrix = _check_hermitian(_compress(self))
        return self._matrix

    @cached_property
    def n_constrained(self):
        if self.cols is None:
            return self.matrix.shape[0]
        return int(self.cols.max()) + 1

    @property
    def constraint_map(self):
        """The dense N*rank x m matrix V, built anew on every read."""
        self._need_grid()
        vmap = np.zeros((self.cols.size, self.n_constrained), dtype=complex)
        vmap[np.arange(self.cols.size), self.cols] = self.vals
        return vmap

    @classmethod
    def from_matrix(cls, matrix):
        """Wrap a hand-built Hermitian matrix with no grid attached."""
        matrix = np.asarray(matrix, dtype=complex)
        return cls(_matrix=_check_hermitian(matrix))

    def _need_grid(self):
        if self.spec is None or self.cols is None:
            raise ConfigurationError(
                "operation needs a grid-backed operator, not a bare matrix")

    def embed(self, coeffs):
        """Constrained coordinates -> full-grid SpinorField."""
        self._need_grid()
        flat = self.vals * np.asarray(coeffs, dtype=complex)[self.cols]
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
        return self.adjoint(self.weights * f.values.reshape(-1))

    def adjoint(self, flat):
        """V^H y for a flattened full-grid vector y: gather and bincount."""
        terms = self.vals.conj() * flat
        m = self.n_constrained
        return np.bincount(self.cols, terms.real, m) \
            + 1j * np.bincount(self.cols, terms.imag, m)


def _constraint_entries(spec):
    """The constraint map V as index arrays: V[i, cols[i]] = vals[i].

    Rows index the flattened field (point-major, component-minor); every
    row of V holds exactly one nonzero and every column at most two.
    Only V depends on the boundary condition.
    """
    grid = spec.grid
    n = grid.n_points
    if spec.bc.kind == PERIODIC:
        return np.arange(n), np.full(n, 1.0 / np.sqrt(grid.spacing),
                                     dtype=complex)
    if spec.bc.kind == ANTIPERIODIC:
        # the first constrained dof pairs the two endpoints antiperiodically
        vals = np.ones(n, dtype=complex)
        vals[-1] = -1.0
        vals /= np.sqrt(grid.spacing)
        return np.r_[np.arange(n - 1), 0], vals
    # bag1d: the endpoints along their kernel directions, one column per
    # interior component
    m = 2 * n - 2
    vals = np.concatenate([BAG_V_LEFT, np.ones(2 * n - 4), BAG_V_RIGHT])
    return np.r_[0, np.arange(m), m - 1], vals / np.sqrt(
        np.repeat(grid.weights(), 2))


def assemble(spec):
    """Build the constrained operator D_P for a model spec.

    Keeps the constraint map V as the index arrays of _constraint_entries,
    with the weights W; the dense matrix D_P = sym(V^H W D V) is left to
    the first read of AssembledOperator.matrix.
    """
    cols, vals = _constraint_entries(spec)
    weights = np.repeat(spec.grid.weights(), spec.rank)
    return AssembledOperator(spec=spec, cols=cols, vals=vals,
                             weights=weights)


def _compress(op):
    """D_P = sym(V^H W D V): D from _apply_D_values on the columns of V."""
    spec, vmap = op.spec, op.constraint_map
    n, r = spec.grid.n_points, spec.rank
    # V's rows are point-major, so (N, rank, columns) is a reshape
    dv = _apply_D_values(spec, vmap.reshape(n, r, -1)).reshape(vmap.shape)
    dv *= op.weights[:, None]
    matrix = vmap.conj().T @ dv
    del dv
    # sym in place: one temporary fewer at the memory peak
    matrix += matrix.conj().T
    matrix *= 0.5
    return matrix


def _apply_D_values(spec, v):
    """The model's D along axis 0 of samples v of shape (N, rank, ...).

    No boundary condition is imposed; this is the one definition of each
    model's differential operator.
    """
    if spec.bc.kind in (PERIODIC, ANTIPERIODIC):
        # frequency and phase vectors broadcast along axis 0
        col = (-1,) + (1,) * (v.ndim - 1)
        freqs, phase, _ = (a.reshape(col) for a in spec.modes)
        y = v
        if spec.bc.kind == ANTIPERIODIC:
            # split off the constant offset so the remainder matches the
            # antiperiodic endpoint pairing; the last sample mirrors the first
            y = v[:-1] - 0.5 * (v[0] + v[-1])
        d = phase * np.fft.ifft(freqs * np.fft.fft(phase.conj() * y, axis=0),
                                axis=0)
        if spec.bc.kind == PERIODIC:
            return d
        return np.concatenate([d, -d[:1]])
    # bag1d: -i sigma_1 d/dx, sigma_1 swaps the two components
    return -1j * _sbp_derivative(v, spec.grid.spacing)[:, ::-1]


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
