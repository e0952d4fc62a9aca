"""Model Dirac operators on 1D domains and their boundary restrictions.

Three models, one per boundary kind; names.MODELS gives each kind's
operator, grid topology and fiber rank, so a ModelSpec is a grid and a
BoundaryCondition:
  * antiperiodic scalar on an interval: D = -i d/dx with psi(L) = -psi(0),
    discretized exactly in the half-integer Fourier modes exp(i(2k+1)pi x/L)
    (a modulated FFT);
  * periodic scalar on a circle: D = -i d/dx, spectral (FFT), has a zero mode;
  * bag1d 2-spinor on an interval: D = -i sigma_1 d/dx with the rank-1
    projector conditions P u = (I - v v^H) u = 0 at each endpoint, v =
    BAG_V_LEFT / BAG_V_RIGHT, 2nd-order summation-by-parts differences
    (_sbp_derivative).

_apply_D_values is the one definition of each model's D, and the
package's one derivative: apply_D applies it to a field, w1q_norm and
derivative_form (the c1 form) measure with it.  model_structure gives
the rest, from one dispatch on the boundary kind: the constraint map V,
an orthonormal basis of the discrete kernel of the boundary operator P
with one nonzero per row, as index arrays, so embed (V c) and project
(V^H W f) cost O(N); and the Fourier modes of D_P = sym(V^H W D V), W
the quadrature weights and sym(M) = (M + M^H)/2, which is never formed
as a matrix.

V's columns are the nodes of the model's cycle, in order, so D_P is
diagonal in modulated Fourier modes of the coordinates as they stand.  The
scalar models are diagonal in Fourier modes by construction.  For bag1d,
sigma_1 and the central differences couple each component at point j
only to the other component at j-1 and j+1: the 2N samples form two
chains that meet only at the endpoints, and V merges the two samples of
each endpoint, so D_P has two nonzeros per row on one cycle of m = 2N-2
nodes, every edge of modulus 1/(2h).  A diagonal unitary gauge along the
cycle turns it into the real symmetric shift, twisted by theta = 0
(N even) or 1/2 (N odd), whose eigenvalues are cos(2 pi (k + theta)/m)/h,
k = 0..m-1.  Each of them is doubly degenerate, bar +-1/h when
theta = 0: this is fermion doubling of the central-difference stencil
(Nielsen-Ninomiya), whereas the continuum eigenvalues +-(j + 1/2) pi/L
are simple.  The smallest positive eigenvalue, sin(pi/m)/h -> pi/(2L),
has multiplicity 2.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError, ParameterError
from .grids import Grid1D, SpinorField, check_compatible, lp_norm, w1q
from .names import ANTIPERIODIC, BAG1D, MODELS, PERIODIC

# bag1d endpoint kernel directions: <sigma_1 v, v> = 0 at both ends, which
# kills the integration-by-parts boundary term; P = I - v v^H projects out v
BAG_V_LEFT = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
BAG_V_RIGHT = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)
BAG_P_LEFT = np.eye(2) - np.outer(BAG_V_LEFT, BAG_V_LEFT.conj())
BAG_P_RIGHT = np.eye(2) - np.outer(BAG_V_RIGHT, BAG_V_RIGHT.conj())

ModelStructure = namedtuple("ModelStructure", "cols vals freqs phase")


@dataclass
class BoundaryCondition:
    kind: str  # a key of names.MODELS

    def __post_init__(self):
        if self.kind not in MODELS:
            raise ParameterError("unknown boundary kind %r" % (self.kind,))


@dataclass
class ModelSpec:
    """A grid and a boundary condition; the boundary kind fixes the
    operator, the grid topology and the fiber rank (names.MODELS)."""
    grid: Grid1D
    bc: BoundaryCondition

    def __post_init__(self):
        topology = MODELS[self.bc.kind][1]
        if self.grid.topology != topology:
            raise ParameterError("%s bc needs a grid of topology %r"
                                 % (self.bc.kind, topology))

    @property
    def rank(self):
        return MODELS[self.bc.kind][2]

    @cached_property
    def structure(self):
        """model_structure(self), computed on the first read and kept,
        read-only: AssembledOperator, decompose and every scalar apply_D
        share it.  Entries that leave the floats (a tiny model.length)
        raise no warning here: decompose refuses them."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            structure = model_structure(self)
        for arr in structure:
            arr.flags.writeable = False
        return structure


def _sbp_derivative(v, h):
    """Summation-by-parts first derivative along axis 0 of equispaced samples.

    Central differences inside, one-sided rows at the ends.  As a matrix D
    with the trapezoid weight matrix W this satisfies W D + D^T W = e_n e_n^T -
    e_0 e_0^T exactly, the discrete integration-by-parts identity, which
    is what makes the compressed bag operator Hermitian to rounding.
    It is bag1d's one derivative: D, w1q_norm and the c1 form all use it.
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


def model_structure(spec):
    """Constraint map V and Fourier modes of D_P, as a ModelStructure.

    V[i, cols[i]] = vals[i], rows indexing the flattened field
    (point-major, component-minor); each row holds one nonzero, each
    column (a node of the model's cycle, in order) at most two.  D_P is
    y -> phase * ifft(freqs * fft(conj(phase) * y)), freqs in FFT order:
    D_P = U diag(freqs) U^H, U = diag(phase) F^H / sqrt(m), F the DFT
    matrix.  Periodic: freqs = 2 pi fftfreq, phase = 1; antiperiodic:
    the frequencies of _antiperiodic_freqs, phase_j = exp(i pi j/m);
    both have y the free samples up to V's factor 1/sqrt(h).  bag1d: see
    _bag_structure.
    """
    if spec.bc.kind == BAG1D:
        return _bag_structure(spec)
    grid, n = spec.grid, spec.grid.n_points
    if spec.bc.kind == PERIODIC:
        vals = np.full(n, 1.0 / np.sqrt(grid.spacing), dtype=complex)
        freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
        return ModelStructure(np.arange(n), vals, freqs, np.ones(n))
    # antiperiodic: the first constrained dof pairs the two endpoints
    m = n - 1
    vals = np.ones(n, dtype=complex)
    vals[-1] = -1.0
    vals /= np.sqrt(grid.spacing)
    phase = np.exp(1j * np.pi * np.arange(m) / m)
    return ModelStructure(np.r_[np.arange(m), 0], vals,
                          _antiperiodic_freqs(grid), phase)


def _bag_cycle(n):
    """Flattened rows of the m = 2N-2 bag1d cycle nodes: (row_in, row_out).

    Row 2j + c is component c at point j.  Node 0 is the left endpoint;
    nodes 1..N-1 run along chain A (component j mod 2 at point j) to the
    right endpoint, and nodes N..m-1 back along chain B, the other
    component.  row_in[k] is node k's row next to node k-1, row_out[k]
    that next to node k+1; they differ only at the merged endpoints.
    """
    j = np.arange(n)
    chain_a, chain_b = 2 * j + j % 2, 2 * j + 1 - j % 2
    row_in = np.r_[chain_b[0], chain_a[1:], chain_b[n - 2:0:-1]]
    row_out = np.r_[chain_a[:n - 1], chain_b[n - 1:0:-1]]
    return row_in, row_out


def _bag_structure(spec):
    """model_structure of bag1d: D_P gauged into a twisted symmetric shift.

    V keeps each endpoint along its kernel direction and each interior
    component as it is, on the cycle nodes of _bag_cycle.  The edges
    e_k = D_P[k+1, k] are read off _apply_D_values on three probes, V's
    nonzeros at the points j = 0, 1, 2 (mod 3): the stencil reaches one
    point each way, so every row meets one column of each probe at most.
    With the gauge g_k = prod_{l<k} e_l/|e_l|, diag(g)^H D_P diag(g) is
    s = |e_k| times the symmetric shift closed by s g_m, g_m = +1
    (theta = 0) or -1 (theta = 1/2); its eigenvalues are
    2 s cos(2 pi (k + theta)/m), with phase_k = g_k exp(2 pi i theta
    k/m).  NumericalError when the |e_k| differ or g_m is not real.
    """
    grid, n = spec.grid, spec.grid.n_points
    m = 2 * n - 2
    row_in, row_out = _bag_cycle(n)
    cols = np.empty(2 * n, dtype=np.intp)
    cols[row_in] = cols[row_out] = np.arange(m)
    w = np.repeat(grid.weights(), 2)
    vals = np.concatenate([BAG_V_LEFT, np.ones(2 * n - 4), BAG_V_RIGHT]) \
        / np.sqrt(w)
    row_next = np.roll(row_in, -1)
    point = np.arange(2 * n) // 2
    probes = np.zeros((2 * n, 3), dtype=complex)
    probes[np.arange(2 * n), point % 3] = vals
    dq = _apply_D_values(spec, probes.reshape(n, 2, 3)).reshape(2 * n, 3)

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
    return ModelStructure(cols, vals, freqs, phase)


@dataclass
class AssembledOperator:
    """D restricted to the discrete kernel of P, as a Hermitian operator.

    A view of spec.structure: the constraint map V embeds constrained
    coordinates into full-grid fields (flattened point-major,
    component-minor); its columns are orthonormal in the quadrature
    inner product, V^H W V = I.  V has one nonzero per row and is kept as
    index arrays, V[i, cols[i]] = vals[i], so embed is a scatter and
    project a gather, both O(N).  weights is W per flattened row.
    """
    spec: ModelSpec

    @cached_property
    def weights(self):
        return np.repeat(self.spec.grid.weights(), self.spec.rank)

    def embed(self, coeffs):
        """Constrained coordinates -> full-grid SpinorField."""
        v = self.spec.structure
        flat = v.vals * np.asarray(coeffs, dtype=complex)[v.cols]
        n, r = self.spec.grid.n_points, self.spec.rank
        return SpinorField(self.spec.grid, flat.reshape(n, r))

    def project(self, f):
        """Full-grid SpinorField -> constrained coordinates.

        Adjoint of embed in the quadrature inner product; acts as the
        orthogonal projection onto the discrete kernel of P.
        """
        return self.adjoint(self.weights * f.values.reshape(-1))

    def adjoint(self, flat):
        """V^H y for a flattened full-grid vector y: gather and bincount."""
        v = self.spec.structure
        terms = v.vals.conj() * flat
        m = v.freqs.size
        return np.bincount(v.cols, terms.real, m) \
            + 1j * np.bincount(v.cols, terms.imag, m)


def assemble(spec):
    """Build the constrained operator D_P for a model spec.

    An AssembledOperator, a view of ModelSpec.structure that copies no
    array; D_P itself is applied through spectral.decompose.
    """
    return AssembledOperator(spec=spec)


def _apply_D_values(spec, v):
    """The model's D along axis 0 of samples v of shape (N, rank, ...).

    No boundary condition is imposed; this is the one definition of each
    model's differential operator.
    """
    if spec.bc.kind in (PERIODIC, ANTIPERIODIC):
        # frequency and phase vectors broadcast along axis 0
        col = (-1,) + (1,) * (v.ndim - 1)
        freqs = spec.structure.freqs.reshape(col)
        phase = spec.structure.phase.reshape(col)
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
        raise ParameterError("field does not match the model spec")
    return SpinorField(f.grid, _apply_D_values(spec, f.values))


def w1q_norm(spec, f, q):
    """(||f||_Lq^q + ||D f||_Lq^q)^(1/q), D the model's operator.

    sigma_1 is unitary, so |D f| = |df/dx| pointwise on every model: this
    is grids.w1q of ||f||_Lq and ||D f||_Lq, D's own derivative.
    """
    return w1q(lp_norm(f, q), lp_norm(apply_D(spec, f), q), q)


def derivative_form(spec, v):
    """D^H W D v for samples v = V y of shape (N, rank), W the weights.

    The form of ||D f||_L2^2, c1_emp's numerator.  D^H W x is W D x plus,
    on bag1d, i sigma_1 B x with B = diag(-1, 0, ..., 0, 1) over the
    points, by _sbp_derivative's identity W S + S^T W = B.  On the scalar
    models D V = V D_P, so W D x equals D^H W x after V^H for x = D V y:
    exact once V^H is applied, as the c1 form does.
    """
    dv = _apply_D_values(spec, v)
    out = _apply_D_values(spec, dv) * spec.grid.weights()[:, None]
    if spec.bc.kind == BAG1D:
        out[0] -= 1j * dv[0, ::-1]
        out[-1] += 1j * dv[-1, ::-1]
    return out


def boundary_residual(spec, u, g):
    """Norm of P(u - g) at the boundary; 0 means the condition holds."""
    check_compatible(u, g)
    if u.grid != spec.grid or u.rank != spec.rank:
        raise ParameterError("fields do not match the model spec")
    d = u.values - g.values
    if spec.bc.kind == PERIODIC:
        return 0.0
    if spec.bc.kind == ANTIPERIODIC:
        return float(np.linalg.norm(d[-1] + d[0]))
    res = np.linalg.norm(BAG_P_LEFT @ d[0])
    res += np.linalg.norm(BAG_P_RIGHT @ d[-1])
    return float(res)
