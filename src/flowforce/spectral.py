"""Fourier series on the circle and harmonic operators on a periodic strip.

Everything here works with real trigonometric polynomials

    f(x) = a_0 + sum_n a_n cos(nx) + b_n sin(nx)

sampled on uniform grids over [0, 2pi).  The strip operators (Hilbert
transform, Dirichlet-Neumann map, harmonic/conjugate extensions) act
through their Fourier multipliers on the strip -d < y < 0 with data on
the top boundary and a homogeneous Dirichlet bottom.  All hyperbolic
ratios are evaluated in exponentially scaled form so large n*d never
overflows.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidSamples, MeanNotZero

__all__ = [
    "PeriodicFunction",
    "analyze",
    "collocation_size",
    "derivative",
    "hilbert_strip",
    "dirichlet_neumann",
    "harmonic_extension",
    "conjugate_extension",
    "grid_nodes",
    "strip_nodes",
    "strip_rows",
    "chebyshev_rows",
    "chebyshev_matrix",
    "chebyshev_coefficients",
    "scaled_coth",
    "sinh_ratio",
    "cosh_ratio",
]

_PARITY_TOL = 1e-12
_TAYLOR_DEGREE = 8  # degree M of the node expansions (_node_taylor)


def collocation_size(n_modes):
    """Nodes of the collocation grid for n_modes modes: four per mode, at least 8."""
    return max(4 * n_modes, 8)


def grid_nodes(m):
    """Uniform collocation nodes x_j = 2 pi j / m, j = 0..m-1."""
    return 2.0 * np.pi * np.arange(m) / m


def strip_rows(n_y):
    """Depth fractions m / n_y, m = 0..n_y, of the uniform strip rows: row 0
    is the bed, exactly 0, and the last row the surface, exactly 1."""
    if n_y < 2:
        raise ValueError("need at least two vertical intervals")
    return np.arange(n_y + 1) / n_y


def strip_nodes(n_y, d):
    """Uniform strip rows y_m = -d + d m / n_y, m = 0..n_y: row 0 is the bed,
    exactly -d, and the last row the surface, exactly 0."""
    return d * (strip_rows(n_y) - 1.0)


def chebyshev_rows(n):
    """Chebyshev-Lobatto depth fractions sin^2(pi j / 2n), j = 0..n: the rows
    y_j = -(d/2)(1 + cos(pi j / n)) of a strip of depth d, as fractions of d
    from the bed, exactly 0, to the surface, exactly 1."""
    return np.sin(0.5 * np.pi * np.arange(n + 1) / n) ** 2


def chebyshev_matrix(n):
    """Differentiation matrix in the depth fraction on chebyshev_rows(n)
    (Trefethen 2000, cheb): (c_i / c_j) / (t_i - t_j) off the diagonal, c the
    alternating signs doubled at both ends and t_i - t_j a product of sines;
    each diagonal entry makes its row sum zero."""
    j = np.arange(n + 1)
    c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
    a = 0.5 * np.pi * j / n
    gaps = np.sin(a[:, None] + a) * np.sin(a[:, None] - a) + np.eye(n + 1)
    mat = np.outer(c, 1.0 / c) / gaps
    return mat - np.diag(np.sum(mat, axis=1))


def chebyshev_coefficients(values):
    """Chebyshev coefficients along axis 0 of values on chebyshev_rows(n),
    coefficient k of each column in row k (a DCT-I by one real FFT)."""
    n = values.shape[0] - 1
    coeffs = np.fft.rfft(np.concatenate((values, values[-2:0:-1])), axis=0).real / n
    coeffs[[0, n]] /= 2.0
    return coeffs


def _aligned(shape):
    """An empty float64 array of this shape whose data start on a 64-byte boundary."""
    size = math.prod(shape)
    buf = np.empty(size + 7)
    start = -(buf.ctypes.data // 8) % 8  # float64 steps to the boundary
    return buf[start : start + size].reshape(shape)


@lru_cache(maxsize=64)
def _trig_matrices(m, n_modes):
    """Cached read-only cos/sin evaluation matrices, shape (n_modes, m),
    computed straight into 64-byte-aligned buffers (see _synthesize)."""
    x = grid_nodes(m)
    n = np.arange(1, n_modes + 1)
    arg = np.outer(n, x)
    cos_mat = np.cos(arg, out=_aligned(arg.shape))
    sin_mat = np.sin(arg, out=_aligned(arg.shape))
    cos_mat.flags.writeable = False
    sin_mat.flags.writeable = False
    return cos_mat, sin_mat


def _synthesize(coeffs, mat):
    """Grid values of every row of coefficients against a (modes, m) table.

    The stacked product makes one BLAS gemv per row, so a row's values do
    not depend on the rows beside it; a single (rows, modes) @ (modes, m)
    gemm would not give that.  On a table that starts off a 64-byte boundary
    OpenBLAS's gemv gives the same bits but runs up to 1.8x slower.
    """
    return (coeffs[:, None, :] @ mat)[:, 0]


def _node_taylor(f, m):
    """Taylor coefficients f^(q)(x_j)/q!, q = 0..M, of f about the nodes
    x_j = 2 pi j / m, j = 0..m//2, shape (M + 1, m//2 + 1).

    Differentiating maps (a_n, b_n) to (n b_n, -n a_n); the M + 1 rows of
    scaled derivative coefficients take one _synthesize product against
    the grid's cosine and sine tables, stacked in an aligned buffer.
    """
    half = m // 2 + 1
    out = np.zeros((_TAYLOR_DEGREE + 1, half))
    out[0] = f.cos_coeffs[0]
    n = f.n_modes
    if n:
        modes = np.arange(1, n + 1)
        rows = np.empty((_TAYLOR_DEGREE + 1, 2 * n))
        a, b = f.cos_coeffs[1:], f.sin_coeffs
        for q in range(_TAYLOR_DEGREE + 1):
            rows[q, :n], rows[q, n:] = a, b
            a, b = modes * b / (q + 1), -modes * a / (q + 1)
        tables = [t[:, :half] for t in _trig_matrices(m, n)]
        out += _synthesize(rows, np.concatenate(tables, out=_aligned((2 * n, half))))
    return out


def _taylor_fits(f, reach):
    """Whether the node expansions of f are exact to rounding within reach
    of their nodes: the Lagrange remainder, at most
    sum_n n^(M+1) (|a_n| + |b_n|) reach^(M+1) / (M+1)!, is at most
    2^-53 (|a_0| + sum_n (|a_n| + |b_n|))."""
    size = np.abs(f.cos_coeffs[1:]) + np.abs(f.sin_coeffs)
    modes = np.arange(1, f.n_modes + 1, dtype=float)
    top = float(np.sum(modes ** (_TAYLOR_DEGREE + 1) * size))
    remainder = top * reach ** (_TAYLOR_DEGREE + 1) / math.factorial(_TAYLOR_DEGREE + 1)
    return remainder <= 2.0**-53 * (abs(f.cos_coeffs[0]) + float(np.sum(size)))


def _spectrum(values, cosines=True, sines=True):
    """Interpolation coefficients of every row of uniform grid samples.

    Returns cosines a_0..a_K and sines b_1..b_K, K = (m-1)//2 (the
    Nyquist mode of an even-length grid is dropped); a half not asked
    for is None and costs nothing.  Parity is left to the caller: solver
    fields have it by construction, and analyze decides it from samples.
    """
    if not np.isfinite(values).all():
        raise InvalidSamples("non-finite sample values")
    m = values.shape[1]
    top = (m - 1) // 2
    spec = np.fft.rfft(values, axis=-1)
    a = b = None
    if cosines:
        a = np.empty((values.shape[0], top + 1))
        a[:, 0] = spec[:, 0].real / m
        a[:, 1:] = 2.0 * spec[:, 1 : top + 1].real / m
    if sines:
        b = -2.0 * spec[:, 1 : top + 1].imag / m
    return a, b


def _reinsch_recurrence(lam, coeffs):
    """Clenshaw's recurrence for sum_n coeffs[n-1] cos(ny) or sin(ny), cos(y) >= 0.

    Plain Clenshaw, c_k = a_k + 2 cos(y) c_{k+1} - c_{k+2}, gives
    sum_n a_n cos(ny) = c_1 cos(y) - c_2 and sum_n a_n sin(ny) = c_1 sin(y),
    but loses O(N^2 eps) near y = 0, where 2 cos(y) -> 2.  Reinsch's
    form carries d_k = c_k - c_{k+1} instead, with lam = 2 cos(y) - 2 =
    -4 sin^2(y/2) passed in free of cancellation: d_k = a_k + lam c_{k+1}
    + d_{k+1}, c_k = d_k + c_{k+1}.  Returns (c_1, d_1); the cosine sum
    is lam/2 c_1 + d_1.  The error stays O(N eps) while cos(y) >= 0.
    """
    c = np.zeros_like(lam)
    d = np.zeros_like(lam)
    tmp = np.empty_like(lam)
    for coeff in coeffs[::-1]:
        np.multiply(lam, c, out=tmp)
        tmp += coeff
        d += tmp
        c += d
    return c, d


def scaled_coth(z):
    """coth(z) for z > 0 without overflow; exactly 1.0 once z is large."""
    z = np.asarray(z, dtype=float)
    zc = np.minimum(z, 19.0)
    out = 1.0 + 2.0 / np.expm1(2.0 * zc)
    return np.where(z >= 19.0, 1.0, out)


@lru_cache(maxsize=64)
def _coth_table(n_modes, d):
    """Cached read-only scaled_coth(n d), n = 1..n_modes."""
    table = scaled_coth(np.arange(1, n_modes + 1) * d)
    table.flags.writeable = False
    return table


def sinh_ratio(modes, y, d):
    """sinh(n(y+d))/sinh(nd) for y in [-d, 0], exponentially scaled.

    Returns a matrix over (len(y), len(modes)).  Exact 1 at y = 0 and
    exact 0 at y = -d by construction.
    """
    n = np.asarray(modes, dtype=float)
    y = np.asarray(y, dtype=float)
    grow = np.exp(np.outer(y, n))
    top = 1.0 - np.exp(-2.0 * np.outer(y + d, n))
    bot = 1.0 - np.exp(-2.0 * d * n)
    return grow * top / bot


def cosh_ratio(modes, y, d):
    """cosh(n(y+d))/sinh(nd), exponentially scaled; coth(nd) at y = 0."""
    n = np.asarray(modes, dtype=float)
    y = np.asarray(y, dtype=float)
    grow = np.exp(np.outer(y, n))
    top = 1.0 + np.exp(-2.0 * np.outer(y + d, n))
    bot = 1.0 - np.exp(-2.0 * d * n)
    return grow * top / bot


@dataclass(frozen=True, eq=False)
class PeriodicFunction:
    """Real trigonometric polynomial stored by cosine/sine coefficients.

    cos_coeffs holds a_0..a_N, sin_coeffs holds b_1..b_N.  The series is
    even (is_even) exactly when its sine block is all zero; analyze zeros
    a sine block that is rounding noise.
    """

    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.cos_coeffs, dtype=float)).copy()
        b = np.atleast_1d(np.asarray(self.sin_coeffs, dtype=float)).copy()
        if a.ndim != 1 or b.ndim != 1 or b.size != a.size - 1:
            raise InvalidSamples(
                "coefficient arrays must be 1-D with len(sin) = len(cos) - 1"
            )
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise InvalidSamples("non-finite coefficients")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n_modes):
        return cls(np.zeros(n_modes + 1), np.zeros(n_modes))

    @classmethod
    def constant(cls, value, n_modes=0):
        a = np.zeros(n_modes + 1)
        a[0] = value
        return cls(a, np.zeros(n_modes))

    @classmethod
    def harmonic(cls, mode, amplitude=1.0, n_modes=None, kind="cos"):
        """amplitude * cos(mode x), mode >= 0, or sin(mode x), mode >= 1."""
        if kind not in ("cos", "sin") or mode < (1 if kind == "sin" else 0):
            raise ValueError(f"no {kind!r} harmonic of mode {mode}")
        n = mode if n_modes is None else n_modes
        if n < mode:
            raise ValueError("n_modes too small for requested mode")
        a = np.zeros(n + 1)
        b = np.zeros(n)
        if kind == "cos":
            a[mode] = amplitude
        else:
            b[mode - 1] = amplitude
        return cls(a, b)

    @classmethod
    def from_cosines(cls, cos_coeffs):
        a = np.atleast_1d(np.asarray(cos_coeffs, dtype=float))
        if not a.size:
            raise InvalidSamples("no coefficients")
        return cls(a, np.zeros(a.size - 1))

    # -- basic queries ------------------------------------------------

    @property
    def n_modes(self):
        return self.cos_coeffs.size - 1

    @property
    def is_even(self):
        """Whether the series is even: its sine block is all zero."""
        return not self.sin_coeffs.any()

    def mean(self):
        return float(self.cos_coeffs[0])

    def samples(self, m=None):
        """Values on the uniform m-point grid (exact trig evaluation)."""
        m = collocation_size(self.n_modes) if m is None else int(m)
        if m < 1:
            raise InvalidSamples("grid size must be positive")
        n = self.n_modes
        out = np.full(m, self.cos_coeffs[0])
        if n:
            cos_mat, sin_mat = _trig_matrices(m, n)
            out = out + _synthesize(self.cos_coeffs[None, 1:], cos_mat)[0]
            if not self.is_even:
                out = out + _synthesize(self.sin_coeffs[None, :], sin_mat)[0]
        return out

    def eval_at(self, x):
        """Values at points of any shape (a scalar gives a scalar).

        Clenshaw's recurrence in Reinsch's stable form (_reinsch_recurrence),
        O(points * N) with no (points x N) temporary, after one point setup
        (_eval_points).  An all-zero cosine or sine block is skipped, so an
        even series never runs the sine sums.  Points with cos(x) < 0 are
        summed as x = y + pi, which flips the sign of the odd modes:
        lam = -4 cos^2(x/2) and sin(y) = -sin(x).
        """
        x = np.asarray(x, dtype=float)
        return _eval_sums(self, _eval_points(x), x.shape)

    def sup_norm(self):
        return float(np.max(np.abs(self.samples())))

    # -- structure ----------------------------------------------------

    def truncated(self, n_modes):
        """Keep modes <= n_modes (zero-padding when extending)."""
        n_modes = int(n_modes)
        a = np.zeros(n_modes + 1)
        b = np.zeros(n_modes)
        keep = min(n_modes, self.n_modes)
        a[: keep + 1] = self.cos_coeffs[: keep + 1]
        b[:keep] = self.sin_coeffs[:keep]
        return PeriodicFunction(a, b)

    def tail_energy_fraction(self):
        """Energy fraction carried by the top quarter of mode numbers."""
        n = self.n_modes
        if n == 0:
            return 0.0
        cut = n - max(1, int(np.ceil(0.25 * n)))
        en = self.cos_coeffs[1:] ** 2 + self.sin_coeffs**2
        total = float(np.sum(en))
        return 0.0 if total == 0.0 else float(np.sum(en[cut:])) / total

    # -- arithmetic (coefficient-wise)

    def __add__(self, other):
        if isinstance(other, PeriodicFunction):
            n = max(self.n_modes, other.n_modes)
            f, g = self.truncated(n), other.truncated(n)
            return PeriodicFunction(f.cos_coeffs + g.cos_coeffs, f.sin_coeffs + g.sin_coeffs)
        a = self.cos_coeffs.copy()
        a[0] += float(other)
        return PeriodicFunction(a, self.sin_coeffs)

    __radd__ = __add__

    def __neg__(self):
        return PeriodicFunction(-self.cos_coeffs, -self.sin_coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PeriodicFunction) else -float(other))


def _eval_points(x):
    """The point setup of x, shared by every series summed there (eval_at,
    SurfaceCurve.invert): per nonempty half of the circle, its selector,
    whether it is summed as y = x - pi, and its lam = -4 sin^2(y/2) and sin(y)."""
    half = 0.5 * x.reshape(-1)
    s, c = np.sin(half), np.cos(half)
    near_pi = np.abs(s) > np.abs(c)
    lam = -4.0 * np.where(near_pi, c, s) ** 2
    sin_y = 2.0 * np.where(near_pi, -s, s) * c
    return [
        (sel, flipped, lam[sel], sin_y[sel])
        for sel, flipped in ((~near_pi, False), (near_pi, True))
        if np.any(sel)
    ]


def _eval_sums(f, points, shape):
    """Values of f at the points of _eval_points, in the points' shape."""
    out = np.full(shape, f.cos_coeffs[0])
    flat = out.reshape(-1)
    for coeffs, is_sin in ((f.cos_coeffs[1:], False), (f.sin_coeffs, True)):
        if not np.any(coeffs):
            continue
        flipped_coeffs = coeffs.copy()
        flipped_coeffs[::2] *= -1.0
        for sel, flipped, lam, sin_y in points:
            c_1, d_1 = _reinsch_recurrence(lam, flipped_coeffs if flipped else coeffs)
            flat[sel] += c_1 * sin_y if is_sin else 0.5 * lam * c_1 + d_1
    return out[()]


def analyze(samples):
    """Trigonometric interpolation coefficients of uniform grid samples.

    Modes up to (M-1)//2 are kept (the Nyquist mode of an even-length
    grid is dropped).  Sines all at most _PARITY_TOL * max(1, largest
    coefficient) are zeroed, so samples of an even function give an even
    series.
    """
    vals = np.asarray(samples, dtype=float)
    if vals.ndim != 1 or vals.size < 2:
        raise InvalidSamples("need a 1-D sample array of length >= 2")
    (a,), (b,) = _spectrum(vals[None, :])
    b_max = np.abs(b).max(initial=0.0)
    if b_max <= _PARITY_TOL * max(1.0, np.abs(a).max(), b_max):
        b[:] = 0.0
    return PeriodicFunction(a, b)


def derivative(f):
    """Spectral derivative: (a_n, b_n) -> (n b_n, -n a_n)."""
    n = np.arange(1, f.n_modes + 1)
    a = np.zeros(f.n_modes + 1)
    a[1:] = n * f.sin_coeffs
    b = -n * f.cos_coeffs[1:]
    return PeriodicFunction(a, b)


def _depth_value(d):
    val = float(d)
    if not (val > 0.0) or not np.isfinite(val):
        raise ValueError("strip depth must be positive and finite")
    return val


def hilbert_strip(f, d):
    """Periodic Hilbert transform for the strip of depth d.

    Multiplier action: a_n cos nx -> a_n coth(nd) sin nx and
    b_n sin nx -> -b_n coth(nd) cos nx.  Defined on zero-mean data only.
    """
    dv = _depth_value(d)
    scale = max(1.0, np.abs(f.cos_coeffs).max(), np.abs(f.sin_coeffs).max(initial=0.0))
    if abs(f.mean()) > 1e-12 * scale:
        raise MeanNotZero(f"hilbert_strip needs zero-mean input, mean = {f.mean():.3e}")
    coth = _coth_table(f.n_modes, dv)
    a = np.zeros(f.n_modes + 1)
    a[1:] = -coth * f.sin_coeffs
    b = coth * f.cos_coeffs[1:]
    return PeriodicFunction(a, b)


def dirichlet_neumann(f, d):
    """Dirichlet-Neumann map of the strip: mean/d plus n coth(nd) per mode."""
    dv = _depth_value(d)
    mult = np.arange(1, f.n_modes + 1) * _coth_table(f.n_modes, dv)
    a = np.empty(f.n_modes + 1)
    a[0] = f.cos_coeffs[0] / dv
    a[1:] = mult * f.cos_coeffs[1:]
    b = mult * f.sin_coeffs
    return PeriodicFunction(a, b)


def _extension_grids(f, d, rows, n_x):
    rows = np.asarray(rows, dtype=float)
    n_x = collocation_size(f.n_modes) if n_x is None else int(n_x)
    return n_x, rows, d * (rows - 1.0)


def harmonic_extension(f, d, rows, n_x=None):
    """Harmonic extension into the strip, zero on the bottom, f on top.

    Per mode: sinh(n(y+d))/sinh(nd); the mean extends linearly in y.
    rows are depth fractions t in [0, 1] (strip_rows or chebyshev_rows),
    row t at y = d (t - 1).  Returns a read-only (len(rows), n_x) array,
    row 0 the bed, on the columns grid_nodes(n_x).  An all-zero cosine or
    sine block is skipped, as in eval_at, and so is a zero mean's linear
    part, which would only repeat the mean's signed zero.
    """
    dv = _depth_value(d)
    n_x, rows, y = _extension_grids(f, dv, rows, n_x)
    vals = np.full((len(rows), n_x), f.cos_coeffs[0])
    if f.cos_coeffs[0]:
        vals *= rows[:, None]
    if f.n_modes:
        modes = np.arange(1, f.n_modes + 1)
        ratio = sinh_ratio(modes, y, dv)
        cos_mat, sin_mat = _trig_matrices(n_x, f.n_modes)
        if np.any(f.cos_coeffs[1:]):
            vals += (ratio * f.cos_coeffs[1:]) @ cos_mat
        if np.any(f.sin_coeffs):
            vals += (ratio * f.sin_coeffs) @ sin_mat
    vals.flags.writeable = False
    return vals


def conjugate_extension(f, d, rows, n_x=None):
    """Harmonic conjugate of the extension (oscillatory modes only).

    Sign convention: with W the harmonic extension and Z this field,
    Z_x = W_y and Z_y = -W_x.  Per mode a_n cos nx -> a_n
    [cosh(n(y+d))/sinh(nd)] sin nx and b_n sin nx -> -b_n [...] cos nx,
    so the top trace of zero-mean data is hilbert_strip(f).  The mean
    mode's conjugate is the non-periodic linear part mean/d * x, which
    the caller adds where needed.  Returns a read-only grid on the rows
    and columns of harmonic_extension's; an all-zero cosine or sine block
    is skipped.
    """
    dv = _depth_value(d)
    n_x, rows, y = _extension_grids(f, dv, rows, n_x)
    vals = np.zeros((len(rows), n_x))
    if f.n_modes:
        modes = np.arange(1, f.n_modes + 1)
        ratio = cosh_ratio(modes, y, dv)
        cos_mat, sin_mat = _trig_matrices(n_x, f.n_modes)
        if np.any(f.cos_coeffs[1:]):
            vals = (ratio * f.cos_coeffs[1:]) @ sin_mat
        if np.any(f.sin_coeffs):
            vals -= (ratio * f.sin_coeffs) @ cos_mat
    vals.flags.writeable = False
    return vals
