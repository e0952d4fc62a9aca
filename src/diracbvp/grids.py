"""Discrete 1D domains, spinor-valued fields and the norm family.

A Grid1D is either an interval [0, L] sampled at N points including both
endpoints (trapezoidal quadrature) or a circle of circumference L sampled
at N equispaced points (uniform quadrature).  A SpinorField holds complex
samples of shape (N, r) for fiber rank r.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidFieldError, ParameterError
from .names import CIRCLE, INTERVAL


@dataclass(frozen=True)
class Grid1D:
    length: float
    n_points: int
    topology: str = INTERVAL

    def __post_init__(self):
        if self.topology not in (INTERVAL, CIRCLE):
            raise ParameterError("unknown topology %r" % (self.topology,))
        if self.length <= 0:
            raise ParameterError("length must be positive, got %r"
                                 % (self.length,))
        if self.n_points < 8:
            raise ParameterError("need n_points >= 8, got %d" % self.n_points)
        if self.spacing == 0.0:  # each model's D divides by it
            raise ParameterError("the grid spacing underflows to 0 at "
                                 "model.length = %r, model.n_points = %d"
                                 % (self.length, self.n_points))

    @property
    def spacing(self):
        if self.topology == CIRCLE:
            return self.length / self.n_points
        return self.length / (self.n_points - 1)

    def points(self):
        if self.topology == CIRCLE:
            return self.spacing * np.arange(self.n_points)
        return np.linspace(0.0, self.length, self.n_points)

    def weights(self):
        """Quadrature weights: uniform on circles, trapezoidal on intervals."""
        h = self.spacing
        w = np.full(self.n_points, h)
        if self.topology == INTERVAL:
            w[0] = w[-1] = h / 2.0
        return w


@dataclass
class SpinorField:
    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.n_points:
            raise InvalidFieldError(
                "values shape %s incompatible with grid of %d points"
                % (v.shape, self.grid.n_points))
        if not np.all(np.isfinite(v)):
            raise InvalidFieldError("field contains non-finite entries")
        self.values = v

    @property
    def rank(self):
        return self.values.shape[1]

    @classmethod
    def zero(cls, grid, rank=1):
        return cls(grid, np.zeros((grid.n_points, rank), dtype=complex))

    def copy(self):
        return SpinorField(self.grid, self.values.copy())

    def modulus(self):
        """Pointwise fiberwise Euclidean modulus, shape (N,)."""
        return np.sqrt(np.sum(np.abs(self.values) ** 2, axis=1))

    def __add__(self, other):
        check_compatible(self, other)
        return SpinorField(self.grid, self.values + other.values)

    def __sub__(self, other):
        check_compatible(self, other)
        return SpinorField(self.grid, self.values - other.values)

    def __mul__(self, c):
        return SpinorField(self.grid, self.values * c)

    __rmul__ = __mul__


def check_compatible(f, g):
    if f.grid != g.grid:
        raise ParameterError("fields live on different grids")
    if f.rank != g.rank:
        raise ParameterError(
            "fields have ranks %d and %d" % (f.rank, g.rank))


def lp_norm(f, p):
    """(sum_x w_x |f(x)|^p)^(1/p) with the fiberwise Euclidean modulus."""
    if not np.isfinite(p) or p <= 1.0:
        raise ParameterError("exponent must exceed 1, got %r" % (p,))
    w = f.grid.weights()
    return float(np.sum(w * f.modulus() ** p) ** (1.0 / p))


def w1q(f_norm, df_norm, q):
    """(f_norm^q + df_norm^q)^(1/q): the W^{1,q} norm of f from its caller's
    f_norm = ||f||_Lq and df_norm = ||df||_Lq, df the derivative of f."""
    return float((f_norm ** q + df_norm ** q) ** (1.0 / q))


def _fft_size(n):
    """The smallest 5-smooth integer >= n: a length pocketfft does fast."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def slobodeckij_operator(grid, s):
    """The map f -> Q f of the Slobodeckij form, in O(N log N).

    seminorm^2 = sum_c f_c^H Q f_c for the double integral of
    |f(x)-f(y)|^2 / d(x,y)^(1+2s), diagonal excluded: Q = 2 (diag(K 1) - K)
    with K_xy = w_x w_y / d(x,y)^(1+2s), d the distance on intervals and
    the arc distance on circles.  K = W T W with T_xy = 1/(h k)^(1+2s),
    k the index distance, so T is circulant on circles and Toeplitz on
    intervals, applied by FFT through its circulant embedding of
    _fft_size(2N - 1) points.  The returned function acts on values of
    shape (N, r), each component on its own.
    """
    n, h = grid.n_points, grid.spacing
    w = grid.weights()[:, None]
    size = n if grid.topology == CIRCLE else _fft_size(2 * n - 1)
    k = np.arange(size)
    dist = np.minimum(k, size - k)
    dist[dist >= n] = 0  # the free entries of an interval's embedding
    kern = np.zeros(dist.size)
    kern[dist > 0] = (h * dist[dist > 0]) ** -(1.0 + 2.0 * s)
    kern_hat = np.fft.fft(kern).real  # a symmetric kernel: real spectrum

    def toeplitz(v):
        vh = np.fft.fft(v, n=dist.size, axis=0)
        return np.fft.ifft(kern_hat[:, None] * vh, axis=0)[:n]

    diag = w * toeplitz(w).real

    def apply(v):
        return 2.0 * (diag * v - w * toeplitz(w * v))

    return apply


def slobodeckij_norm(f, s):
    """Fractional Sobolev norm (||f||_L2^2 + double-integral seminorm^2)^(1/2)."""
    if not 0.0 < s < 1.0:
        raise ParameterError("s must lie in (0,1), got %r" % (s,))
    qf = slobodeckij_operator(f.grid, s)(f.values)
    semi2 = float(np.vdot(f.values, qf).real)
    return float(np.sqrt(lp_norm(f, 2) ** 2 + max(semi2, 0.0)))


def _modulus_power(f, e):
    """Pointwise |f|^e f, with 0 where f = 0 (for every real e)."""
    m = f.modulus()
    fac = np.zeros_like(m)
    nz = m > 0
    fac[nz] = m[nz] ** e
    return SpinorField(f.grid, fac[:, None] * f.values)


def nonlinearity(f, p):
    """Pointwise |f|^(p-2) f, with |0|^(p-2)*0 := 0 for p > 2."""
    if p < 2:
        raise ParameterError("nonlinearity needs p >= 2, got %r" % (p,))
    if p == 2:
        return f.copy()
    return _modulus_power(f, p - 2.0)


def save_field_csv(f, path):
    """Write `x,re_0,im_0,...` rows, one per grid point."""
    x = f.grid.points()
    header = ["x"]
    for c in range(f.rank):
        header += ["re_%d" % c, "im_%d" % c]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j in range(f.grid.n_points):
            row = [repr(float(x[j]))]
            for c in range(f.rank):
                row += [repr(float(f.values[j, c].real)),
                        repr(float(f.values[j, c].imag))]
            writer.writerow(row)


def load_field_csv(grid, path):
    """Read a field written by save_field_csv; grid must match row count."""
    return SpinorField(grid, read_field_csv(path, grid.n_points))


def read_field_csv(path, n_points):
    """Values (n_points, rank) of a save_field_csv file.

    Raises InvalidFieldError naming the path (and line) when the file is
    not UTF-8 text, is empty, has value columns that are not re_c, im_c
    pairs, another row count, a short or long row, a non-numeric cell or
    a non-finite value; whether the rank fits a model is left to the
    caller.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise InvalidFieldError("%s: not UTF-8: %s" % (path, exc)) from exc
    if not rows:
        raise InvalidFieldError("%s is empty" % (path,))
    header, body = rows[0], rows[1:]
    rank = (len(header) - 1) // 2
    if header[1:] != [part % c for c in range(rank)
                      for part in ("re_%d", "im_%d")]:
        raise InvalidFieldError("%s: value columns %s are not re_c, im_c "
                                "pairs" % (path, ",".join(header[1:])))
    if len(body) != n_points:
        raise InvalidFieldError(
            "%s has %d rows, grid expects %d" % (path, len(body), n_points))
    vals = np.zeros((n_points, rank), dtype=complex)
    for j, row in enumerate(body):
        # line numbers count the header as line 1
        if len(row) != len(header):
            raise InvalidFieldError("%s line %d has %d cells, header has %d"
                                    % (path, j + 2, len(row), len(header)))
        try:
            nums = [float(t) for t in row[1:]]
        except ValueError as exc:
            raise InvalidFieldError("%s line %d: %s"
                                    % (path, j + 2, exc)) from exc
        vals[j] = [nums[2 * c] + 1j * nums[2 * c + 1] for c in range(rank)]
    bad = np.flatnonzero(~np.all(np.isfinite(vals), axis=1))
    if bad.size:
        raise InvalidFieldError("%s line %d: non-finite value"
                                % (path, bad[0] + 2))
    return vals
