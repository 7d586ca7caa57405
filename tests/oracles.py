"""Independent, test-only oracles used to cross-check the library.

Every helper here recomputes a quantity the library also produces, but by a
deliberately different route (adaptive quadrature instead of closed-form
rectangle algebra, incomplete-gamma integrals instead of step projections,
permutation resampling instead of parametric statistics). Agreement between
the two routes is what the tests assert. ensemble_matrix is the one
exception: it joins the sampler's own row blocks, for the tests that take
a whole (paths x nodes) matrix.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import integrate, optimize, special

from fracwick.fbm import ensemble_values


def ensemble_matrix(method, grid, h, master_seed, n_paths, min_rows=1) -> np.ndarray:
    """The (paths x nodes) matrix of an ensemble: the sampler's row blocks,
    copied out of its buffers and joined in row order."""
    blocks = ensemble_values(method, grid, h, master_seed, n_paths, keep=lambda lo, b: b.copy(), min_rows=min_rows)
    return np.concatenate(blocks)


def phi_rect_quadrature(
    a: float, b: float, c: float, d: float, h: float, tol: float = 1e-9
) -> float:
    """Adaptive quadrature of H(2H-1)|s-t|^{2H-2} over [a,b] x [c,d].

    The kernel has an integrable singularity on the diagonal s = t. The
    inner integral is split at the diagonal and each piece is handled by
    QUADPACK's algebraic-weight rule (quad with weight='alg'), which is
    built for endpoint power singularities; the outer integral is ordinary
    adaptive quadrature split at the diagonal crossings.
    """
    pref = h * (2.0 * h - 1.0)
    expo = 2.0 * h - 2.0

    def power_piece(lo: float, hi: float, s: float) -> float:
        """Integral of |s-t|^expo over [lo, hi]; s may sit on an endpoint."""
        if hi <= lo:
            return 0.0
        if s == lo:
            # integrand (t - lo)^expo: left-end algebraic weight
            val, _ = integrate.quad(
                lambda t: 1.0, lo, hi, weight="alg", wvar=(expo, 0.0), epsabs=tol
            )
        elif s == hi:
            # integrand (hi - t)^expo: right-end algebraic weight
            val, _ = integrate.quad(
                lambda t: 1.0, lo, hi, weight="alg", wvar=(0.0, expo), epsabs=tol
            )
        else:
            # s strictly outside: smooth integrand
            val, _ = integrate.quad(
                lambda t: abs(s - t) ** expo, lo, hi, limit=200, epsabs=tol
            )
        return val

    def inner(s: float) -> float:
        mid = min(max(s, c), d)
        return pref * (power_piece(c, mid, s) + power_piece(mid, d, s))

    outer_pts = [p for p in (c, d) if a < p < b]
    val, _ = integrate.quad(
        inner, a, b, points=outer_pts or None, limit=200, epsabs=tol, epsrel=tol
    )
    return val


def covariance(s: float, t: float, h: float) -> float:
    """R(s, t) = (t^2H + s^2H - |t - s|^2H) / 2 for one pair of times."""
    if s < 0 or t < 0:
        raise ValueError("covariance is defined for nonnegative times")
    two_h = 2.0 * h
    return 0.5 * (t**two_h + s**two_h - abs(t - s) ** two_h)


def phi_rect_integral(a: float, b: float, c: float, d: float, h: float) -> float:
    """Integral of phi over [a, b] x [c, d] by inclusion-exclusion on the
    scalar R at the four corners; exact for every rectangle in the
    quadrant, including those that straddle the singular diagonal."""
    if not (0 <= a <= b and 0 <= c <= d):
        raise ValueError("need 0 <= a <= b and 0 <= c <= d")
    return covariance(b, d, h) - covariance(a, d, h) - covariance(b, c, h) + covariance(a, c, h)


def phi_inner_product(f, g, h: float) -> float:
    """<f, g>_phi for step functions f, g: the double sum over the cells of
    f and the cells of g, each on its own grid, of level times level times
    the rectangle integral."""
    pf, pg = f.grid.points, g.grid.points
    return math.fsum(
        f.levels[i] * g.levels[j] * phi_rect_integral(pf[i], pf[i + 1], pg[j], pg[j + 1], h)
        for i in range(f.levels.size)
        for j in range(g.levels.size)
    )


def phi_operator(g, t, h: float):
    """(Phi g)(t) = integral of phi(t, u) g(u) du for a step g, as the
    differences sum_j g_j (K(t, u_{j+1}) - K(t, u_j)) of the closed form
    K(t, v) = H (t^(2H-1) - sign(t - v) |t - v|^(2H-1)) = dR(t, v)/dt."""
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0):
        raise ValueError("phi_operator is defined for nonnegative times")
    e = 2.0 * h - 1.0
    u = g.grid.points
    k = h * (tt[..., None] ** e - np.sign(tt[..., None] - u) * np.abs(tt[..., None] - u) ** e)
    out = (np.diff(k, axis=-1) * g.levels).sum(axis=-1)
    return float(out) if np.isscalar(t) else out


def phi_weighted_covariance_integral(horizon: float, h: float) -> float:
    """Closed form of int int R_H(s,t) phi(s,t) ds dt over [0,T]^2.

    This is E of the phi-norm-squared of the frozen integrand s -> W_s, the
    first term of the corrected second-moment identity. Termwise with
    R_H = (t^{2H} + s^{2H} - |t-s|^{2H})/2 and int_0^T phi(s,t) ds =
    H(t^{2H-1} + (T-t)^{2H-1}):
      power terms  -> T^{4H}/4 + H T^{4H} B(2H+1, 2H)   (Beta integral)
      |t-s| term   -> -H(2H-1) T^{4H} / ((4H-1) 4H)
    """
    t4h = horizon ** (4.0 * h)
    return t4h * (
        0.25
        + h * special.beta(2.0 * h + 1.0, 2.0 * h)
        - h * (2.0 * h - 1.0) / ((4.0 * h - 1.0) * 4.0 * h)
    )


def cross_kernel_integral(horizon: float, h: float) -> float:
    """Closed form of int int K(s,t) K(t,s) ds dt over [0,T]^2.

    For the integrand s -> W_s the corrected second-moment identity must
    total E[ (W_T^2 - T^{2H})^2 / 4 ] = T^{4H}/2, so the cross term is
    T^{4H}/2 minus the phi-weighted covariance integral.
    """
    return 0.5 * horizon ** (4.0 * h) - phi_weighted_covariance_integral(horizon, h)


def wick_square_isserlis(points: np.ndarray, h: float) -> float:
    """E[S^2] for the discrete Wick integral S = sum_i (W_i dW_i - E[W_i dW_i])
    of h(x) = x, with W_i = W_{t_i} and dW_i = W_{t_{i+1}} - W_{t_i}.

    S is a centred sum, so E[S^2] = sum_ij Cov(W_i dW_i, W_j dW_j), and
    Isserlis' theorem gives each covariance of two Gaussian products as
    E[W_i W_j] E[dW_i dW_j] + E[W_i dW_j] E[dW_i W_j]. Every expectation is a
    difference of the covariance R, evaluated pointwise and summed with fsum.
    """
    t = [float(v) for v in points]
    n = len(t) - 1

    def cov(a: float, b: float) -> float:
        return 0.5 * (a ** (2 * h) + b ** (2 * h) - abs(a - b) ** (2 * h))

    def w_dw(i: int, j: int) -> float:
        return cov(t[i], t[j + 1]) - cov(t[i], t[j])

    def dw_dw(i: int, j: int) -> float:
        return w_dw(i + 1, j) - w_dw(i, j)

    return math.fsum(
        cov(t[i], t[j]) * dw_dw(i, j) + w_dw(i, j) * w_dw(j, i)
        for i in range(n)
        for j in range(n)
    )


def isometry_rhs_dense(fn, w: np.ndarray, points: np.ndarray, h: float) -> np.ndarray:
    """Per-path right side f.Gamma.f + d.(A o A^T).d of the cylinder
    isometry for the integrand fn, from whole matrices: every path at once,
    and both forms dense whatever fn is.

    f = h(W_left), d = h'(W_left), Gamma_ij = Cov(dW_i, dW_j) and
    A_ij = R(t_i, t_{j+1}) - R(t_i, t_j) = Cov(W_i, dW_j), both taken from
    the covariance matrix R of the grid points.
    """
    from fracwick import HurstParameter, covariance_grid

    r = covariance_grid(points, HurstParameter(h))
    gamma = r[1:, 1:] - r[:-1, 1:]
    gamma -= r[1:, :-1]
    gamma += r[:-1, :-1]
    a = r[:-1, 1:] - r[:-1, :-1]
    frozen = fn.value(w[:, :-1])
    deriv = fn.deriv(w[:, :-1])
    return np.einsum("pi,pi->p", frozen @ gamma, frozen) + np.einsum(
        "pi,pi->p", deriv @ (a * a.T), deriv
    )


def fou_variance_gammainc(
    lam: float, sigma: float, t: float, h: float, n_quad: int = 20000
) -> float:
    """Variance of the mean-reverting solution via incomplete-gamma integrals.

    With pref = H(2H-1) and a = 2H-1, symmetry of the double integral gives
    Var X_t = 2 pref sigma^2 e^{-2 lam t} int_0^t e^{2 lam u} J(u) du where
    J(u) = int_0^u e^{-lam w} w^{a-1} dw = lam^{-a} Gamma(a) P(a, lam u)
    and P is the regularized lower incomplete gamma function. The outer
    integral is done by high-resolution Simpson quadrature; everything else
    is closed form, so this shares no code path with the step-projection
    oracle it cross-checks. Requires lam > 0.
    """
    if t == 0.0:
        return 0.0
    pref = h * (2.0 * h - 1.0)
    a = 2.0 * h - 1.0
    u = np.linspace(0.0, t, n_quad + 1)
    inner = lam ** (-a) * special.gamma(a) * special.gammainc(a, lam * u)
    outer = integrate.simpson(np.exp(2.0 * lam * u) * inner, x=u)
    return 2.0 * pref * sigma * sigma * np.exp(-2.0 * lam * t) * outer


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample energy distance for 1-d samples."""
    xy = np.abs(x[:, None] - y[None, :]).mean()
    xx = np.abs(x[:, None] - x[None, :]).mean()
    yy = np.abs(y[:, None] - y[None, :]).mean()
    return 2.0 * xy - xx - yy


def energy_permutation_pvalue(
    x: np.ndarray, y: np.ndarray, n_perm: int = 499, seed: int = 0
) -> float:
    """Permutation p-value for the two-sample energy distance.

    The pooled pairwise-distance matrix is computed once. With label vector
    b (1 on the x side) the pair sums reduce to quadratic forms in D, so a
    permutation costs one matrix-vector product instead of a re-slice:
      S_xb = b' D b,  S_yb = (1-b)' D (1-b),  S_xy = b' D (1-b).
    """
    nx, ny = x.size, y.size
    pooled = np.concatenate([x, y])
    m = pooled.size
    dist = np.abs(pooled[:, None] - pooled[None, :])
    row_sums = dist.sum(axis=1)
    total = float(row_sums.sum())

    def stat(mask: np.ndarray) -> float:
        db = dist @ mask
        s_xx = float(mask @ db)
        s_x_all = float(row_sums @ mask)
        s_xy = s_x_all - s_xx
        s_yy = total - 2.0 * s_x_all + s_xx
        return 2.0 * s_xy / (nx * ny) - s_xx / (nx * nx) - s_yy / (ny * ny)

    base = np.zeros(m)
    base[:nx] = 1.0
    observed = stat(base)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_perm):
        if stat(rng.permutation(base)) >= observed:
            hits += 1
    return (hits + 1.0) / (n_perm + 1.0)


def empirical_likelihood_z(d: np.ndarray) -> float:
    """Signed root of -2 log R for a zero mean of d, from the weights.

    Brent's method on the raw differences, where the library bisects on
    standardized ones; R is then the product of m w_i over the weights
    themselves, which are checked to be a distribution with mean 0.
    """
    m = d.size
    lam = optimize.brentq(
        lambda t: math.fsum(d / (1.0 + t * d)),
        (1.0 / m - 1.0) / d.max(),
        (1.0 / m - 1.0) / d.min(),
        xtol=1e-300,
        rtol=4 * np.finfo(float).eps,
    )
    w = 1.0 / (m * (1.0 + lam * d))
    assert math.isclose(math.fsum(w), 1.0, rel_tol=1e-9)
    assert abs(math.fsum(w * d)) <= 1e-9 * math.fsum(w * np.abs(d))
    return math.copysign(math.sqrt(-2.0 * math.fsum(np.log(m * w))), d.mean())


def jackknife_delete_one(values: np.ndarray) -> float:
    """Literal delete-one jackknife stderr of the sample mean (O(m^2) loop)."""
    m = values.size
    leave_out = np.array(
        [np.mean(np.delete(values, i)) for i in range(m)], dtype=float
    )
    center = leave_out.mean()
    return float(np.sqrt((m - 1.0) / m * np.sum((leave_out - center) ** 2)))


def circulant_fgn_full_spectrum(lam: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Circulant-embedding fGn rows from the full Hermitian spectrum.

    The direct route of Wood & Chan (1994): build all 2m complex Fourier
    coefficients, mirroring the m-1 interior ones as conjugates, and take
    the real part of a complex forward FFT. Draw layout per row of 2m
    normals: z[0] feeds frequency 0, z[2k-1] + i z[2k] frequency k for
    1 <= k <= m-1, z[2m-1] frequency m. Returns the first m noise values.
    """
    big_m = lam.size
    m = big_m // 2
    a = np.zeros((z.shape[0], big_m), dtype=complex)
    a[:, 0] = np.sqrt(lam[0] / big_m) * z[:, 0]
    a[:, m] = np.sqrt(lam[m] / big_m) * z[:, 2 * m - 1]
    k = np.arange(1, m)
    scale = np.sqrt(lam[k] / (2.0 * big_m))
    a[:, k] = scale * (z[:, 2 * k - 1] + 1j * z[:, 2 * k])
    a[:, big_m - k] = np.conj(a[:, k])
    return np.fft.fft(a, axis=1).real[:, :m]


def trapezoid_linear_drift(
    lam: float, c: float, sigma: float, x0: float, t: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Implicit-trapezoid solution X of dX = (-lam X + c cos t) dt + sigma dW.

    On the noise-free part Y = X - sigma W the trapezoid step is linear in
    Y_{k+1}, so it is solved in closed form, node by node, with no
    iteration: the fixed point that Picard's slab iteration converges to.
    """
    y = np.empty_like(w)
    y[:, 0] = x0
    for k in range(t.size - 1):
        half = 0.5 * (t[k + 1] - t[k])
        forcing = -lam * sigma * (w[:, k] + w[:, k + 1]) + c * (np.cos(t[k]) + np.cos(t[k + 1]))
        y[:, k + 1] = (y[:, k] * (1.0 - lam * half) + half * forcing) / (1.0 + lam * half)
    return y + sigma * w


def flow_euler_row_major(spec, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Y = X - sigma W of the flow Euler scheme, stepping the strided
    columns of a (paths x nodes) noise matrix."""
    y = np.empty_like(w)
    y[:, 0] = spec.x0
    for k in range(t.size - 1):
        dt = t[k + 1] - t[k]
        rate = spec.drift(t[k], y[:, k] + spec.sigma * w[:, k])
        y[:, k + 1] = y[:, k] + dt * np.asarray(rate)
    return y


def flow_rk4_row_major(spec, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Y of classic RK4 on the random ODE, W at half-nodes by linear
    interpolation, on a (paths x nodes) noise matrix."""
    y = np.empty_like(w)
    y[:, 0] = spec.x0
    s = spec.sigma
    b = spec.drift
    for k in range(t.size - 1):
        dt = t[k + 1] - t[k]
        tk, tm, tn = t[k], t[k] + 0.5 * dt, t[k + 1]
        wk = w[:, k]
        wn = w[:, k + 1]
        wm = 0.5 * (wk + wn)
        yk = y[:, k]
        k1 = np.asarray(b(tk, yk + s * wk))
        k2 = np.asarray(b(tm, yk + 0.5 * dt * k1 + s * wm))
        k3 = np.asarray(b(tm, yk + 0.5 * dt * k2 + s * wm))
        k4 = np.asarray(b(tn, yk + dt * k3 + s * wn))
        y[:, k + 1] = yk + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def direct_euler_row_major(spec, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X of the Euler scheme on the equation itself, on a (paths x nodes)
    noise matrix: the independent oracle of flow-euler, which steps the
    random ODE of Y = X - sigma W instead."""
    x = np.empty_like(w)
    x[:, 0] = spec.x0
    dw = np.diff(w, axis=1)
    for k in range(t.size - 1):
        dt = t[k + 1] - t[k]
        rate = np.asarray(spec.drift(t[k], x[:, k]))
        x[:, k + 1] = x[:, k] + dt * rate + spec.sigma * dw[:, k]
    return x


def linear_drift_piecewise_linear_noise(
    lam: float, sigma: float, x0: float, knots: np.ndarray, w_knots: np.ndarray
) -> np.ndarray:
    """Exact X at the knots for dX = -lam X dt + sigma dW, W linear between knots.

    Per piece W = a + b s, Y = X - sigma W solves Y' = -lam (Y + sigma W):
    Y(s) = A - sigma b s + (Y_0 - A) exp(-lam s) with A = sigma (b / lam - a).
    """
    y = np.empty_like(w_knots)
    y[:, 0] = x0
    for k in range(knots.size - 1):
        s = knots[k + 1] - knots[k]
        a = w_knots[:, k]
        b = (w_knots[:, k + 1] - a) / s
        big_a = sigma * (b / lam - a)
        y[:, k + 1] = big_a - sigma * b * s + (y[:, k] - big_a) * np.exp(-lam * s)
    return y + sigma * w_knots


def write_ensemble_csv_per_cell(points: np.ndarray, values: np.ndarray, out_path: str) -> None:
    """Long-format ensemble CSV written one csv.writer row per cell.

    The straightforward form of `grids.write_ensemble_csv`: every time and
    every value is formatted where it is written (17 significant digits),
    and the csv module does the quoting and line endings.
    """
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["replication", "t", "value"])
        for k, row in enumerate(values):
            for t, v in zip(points, row):
                writer.writerow([k, format(float(t), ".17g"), format(float(v), ".17g")])


def _diagonal_cell_integrals(points: np.ndarray, h: float) -> np.ndarray:
    """Per-cell integral of K(s, s) = H s^(2H-1): half the increment of t^2H."""
    t = points ** (2.0 * h)
    return 0.5 * (t[1:] - t[:-1])


def _drive_values(x0, a, b, dt, dw):
    incr = a * dt + b * dw
    return x0 + np.concatenate([np.zeros((dw.shape[0], 1)), np.cumsum(incr, axis=1)], axis=1)


def _drive_values_polyval(x0, a, b, dt, dw):
    """The drive as the residual functions formed it before they skipped
    zero terms: cumulative sums of a dt + b dW, then x0 added."""
    incr = a * dt + b * dw
    out = np.empty((dw.shape[0], dw.shape[1] + 1))
    out[:, 0] = x0
    np.cumsum(incr, axis=1, out=out[:, 1:])
    out[:, 1:] += x0
    return out


def _field_value(case, t, w_t, x):
    """F_t(x) = f0(x) + g(x) t + h(x) W_t of a Wentzell case, by its
    polynomials' own callables."""
    return case.f0.value(x) + case.g.value(x) * t + case.h.value(x) * w_t


def _field_dx(case, t, w_t, x):
    return case.f0.deriv(x) + case.g.deriv(x) * t + case.h.deriv(x) * w_t


def _field_dxx(case, t, w_t, x):
    return case.f0.deriv2(x) + case.g.deriv2(x) * t + case.h.deriv2(x) * w_t


def _dt_cell_integral(f, t0, t1, x):
    """Integral of df/ds over [t0, t1] with x frozen: f(t1, x) - f(t0, x)."""
    return f.value(t1, x) - f.value(t0, x)


def _cell_levels(coef, grid):
    if hasattr(coef, "levels"):
        return np.asarray(coef(grid.points[:-1]), dtype=float)
    return np.full(grid.n_intervals, float(coef))


def ito_residuals_reference(case, w, ctx, grid):
    """Change-of-variable residual with every term written out: the noise
    sum less its Wick correction sum f_xx a G, the exact drift, and the
    curvature sum f_xx a (G + a dt^2H / 2), with G the lower kernel."""
    from fracwick import verify

    f, t = case.f, grid.points
    a = np.ones(grid.n_intervals) if case.a is None else _cell_levels(case.a, grid)
    g = verify._lower_kernel(a, t, ctx)
    half_cell = 0.5 * grid.spacings ** (2.0 * ctx.h)
    dw = np.diff(w, axis=1)
    eta = np.concatenate([np.zeros((w.shape[0], 1)), np.cumsum(a * dw, axis=1)], axis=1)
    x = eta[:, :-1]
    fx, fxx = f.dx(t[:-1], x), f.dxx(t[:-1], x)
    lhs = f.value(t[-1], eta[:, -1]) - f.value(0.0, 0.0)
    noise = (fx * a * dw).sum(axis=1)
    wick_corr = (fxx * a * g).sum(axis=1)
    drift = _dt_cell_integral(f, t[:-1], t[1:], x).sum(axis=1)
    curvature = (fxx * a * (g + a * half_cell)).sum(axis=1)
    return lhs - (noise - wick_corr + drift + curvature)


def product_rule_residuals_reference(x_case, y_case, w, ctx, grid):
    """Product-rule residual with every term written out: X dY and Y dX
    less their Wick corrections sum b_y G_x and sum b_x G_y, and the cross
    term sum b_x (G_y + b_y dt^2H / 2) + b_y (G_x + b_x dt^2H / 2)."""
    from fracwick import verify

    t, dt = grid.points, grid.spacings
    ax, bx = _cell_levels(x_case.drift, grid), _cell_levels(x_case.diffusion, grid)
    ay, by = _cell_levels(y_case.drift, grid), _cell_levels(y_case.diffusion, grid)
    gx, gy = verify._lower_kernel(bx, t, ctx), verify._lower_kernel(by, t, ctx)
    half_cell = 0.5 * dt ** (2.0 * ctx.h)
    dw = np.diff(w, axis=1)
    x = _drive_values(x_case.x0, ax, bx, dt, dw)
    y = _drive_values(y_case.x0, ay, by, dt, dw)
    xm, ym = 0.5 * (x[:, :-1] + x[:, 1:]), 0.5 * (y[:, :-1] + y[:, 1:])
    x_dy = (xm * ay * dt).sum(axis=1) + (x[:, :-1] * by * dw).sum(axis=1) - (by * gx).sum()
    y_dx = (ym * ax * dt).sum(axis=1) + (y[:, :-1] * bx * dw).sum(axis=1) - (bx * gy).sum()
    cross = (bx * (gy + by * half_cell) + by * (gx + bx * half_cell)).sum()
    return x[:, -1] * y[:, -1] - x_case.x0 * y_case.x0 - (x_dy + y_dx + cross)


def wentzell_residuals_reference(case, w, ctx, grid):
    """Composition residual with all eight right-hand terms written out:
    drift, noise less its correction sum b (h'(X) lc + F_xx G), curvature
    sum F_xx b (G + b dt^2H / 2), field drift, field noise less its
    correction sum h'(X) G, and the cross terms sum h'(X) b diag and
    sum h'(X) (G + b dt^2H / 2), with lc the left corrections and diag the
    diagonal cell integrals."""
    from fracwick import verify, wick

    t, dt = grid.points, grid.spacings
    a = _cell_levels(case.drive.drift, grid)
    b = _cell_levels(case.drive.diffusion, grid)
    g = verify._lower_kernel(b, t, ctx)
    half_cell = 0.5 * dt ** (2.0 * ctx.h)
    lc = wick.left_corrections(grid, ctx)
    diag = _diagonal_cell_integrals(t, ctx.h)
    dw = np.diff(w, axis=1)
    x = _drive_values(case.drive.x0, a, b, dt, dw)
    tl, wl, xl = t[:-1], w[:, :-1], x[:, :-1]
    f_dx, f_dxx = _field_dx(case, tl, wl, xl), _field_dxx(case, tl, wl, xl)
    h_deriv = case.h.deriv(xl)
    lhs = _field_value(case, t[-1], w[:, -1], x[:, -1]) - _field_value(case, 0.0, 0.0, case.drive.x0)
    drift = (0.5 * (f_dx + _field_dx(case, t[1:], w[:, 1:], x[:, 1:])) * a * dt).sum(axis=1)
    noise = (f_dx * b * dw).sum(axis=1) - (b * (h_deriv * lc + f_dxx * g)).sum(axis=1)
    curvature = (f_dxx * b * (g + b * half_cell)).sum(axis=1)
    field_drift = (0.5 * (case.g.value(xl) + case.g.value(x[:, 1:])) * dt).sum(axis=1)
    field_noise = (case.h.value(xl) * dw).sum(axis=1) - (h_deriv * g).sum(axis=1)
    cross_field = (h_deriv * b * diag).sum(axis=1)
    cross_process = (h_deriv * (g + b * half_cell)).sum(axis=1)
    rhs = drift + noise + curvature + field_drift + field_noise + cross_field + cross_process
    return lhs - rhs


# The residuals by generic polyval arithmetic: every partial of every
# field is evaluated by its callables over whole path matrices, zero and
# constant ones included, and every surviving term is formed, whatever its
# weight. These are the residual functions as they stood before they
# skipped identically zero factors, on all rows at once.


def ito_residuals_polyval(case, w, ctx, grid):
    f = case.f
    t = grid.points
    a_lv = np.ones(grid.n_intervals) if case.a is None else _cell_levels(case.a, grid)
    curvature_weights = a_lv * a_lv * (0.5 * grid.spacings ** (2.0 * ctx.h))
    left_t = t[:-1]
    dw = np.diff(w, axis=1)
    if case.a is None:
        eta = w
    else:
        eta = np.empty_like(w)
        eta[:, 0] = 0.0
        np.cumsum(a_lv * dw, axis=1, out=eta[:, 1:])
    left_x = eta[:, :-1]
    fx = f.dx(left_t, left_x)
    fxx = f.dxx(left_t, left_x)
    lhs = f.value(t[-1], eta[:, -1]) - f.value(0.0, 0.0)
    noise_term = (fx * (a_lv * dw)).sum(axis=1)
    drift_term = (
        _dt_cell_integral(f, left_t, t[1:], left_x).sum(axis=1) if f.time_dependent else 0.0
    )
    curvature_term = (fxx * curvature_weights).sum(axis=1)
    return lhs - (noise_term + drift_term + curvature_term)


def product_rule_residuals_polyval(x_case, y_case, w, ctx, grid):
    dt = grid.spacings
    ax, bx = _cell_levels(x_case.drift, grid), _cell_levels(x_case.diffusion, grid)
    ay, by = _cell_levels(y_case.drift, grid), _cell_levels(y_case.diffusion, grid)
    cross = math.fsum(bx * by * dt ** (2.0 * ctx.h))
    dw = np.diff(w, axis=1)
    x = _drive_values_polyval(x_case.x0, ax, bx, dt, dw)
    y = _drive_values_polyval(y_case.x0, ay, by, dt, dw)
    xl, yl = x[:, :-1], y[:, :-1]
    xm = 0.5 * (x[:, :-1] + x[:, 1:])
    ym = 0.5 * (y[:, :-1] + y[:, 1:])
    x_dy = (xm * (ay * dt)).sum(axis=1) + (xl * (by * dw)).sum(axis=1)
    y_dx = (ym * (ax * dt)).sum(axis=1) + (yl * (bx * dw)).sum(axis=1)
    lhs = x[:, -1] * y[:, -1] - x_case.x0 * y_case.x0
    return lhs - (x_dy + y_dx + cross)


def wentzell_residuals_polyval(case, w, ctx, grid):
    t = grid.points
    dt = grid.spacings
    drive = case.drive
    a_lv = _cell_levels(drive.drift, grid)
    b_lv = _cell_levels(drive.diffusion, grid)
    half_cell = 0.5 * dt ** (2.0 * ctx.h)
    a_dt = a_lv * dt
    tl, tr = t[:-1], t[1:]
    dw = np.diff(w, axis=1)
    x = _drive_values_polyval(drive.x0, a_lv, b_lv, dt, dw)
    wl, xl = w[:, :-1], x[:, :-1]
    f_dx = _field_dx(case, tl, wl, xl)
    f_dxx = _field_dxx(case, tl, wl, xl)
    lhs = _field_value(case, t[-1], w[:, -1], x[:, -1]) - _field_value(case, 0.0, 0.0, drive.x0)
    f_dx_right = _field_dx(case, tr, w[:, 1:], x[:, 1:])
    drift_term = (0.5 * (f_dx + f_dx_right) * a_dt).sum(axis=1)
    noise_term = (f_dx * (b_lv * dw)).sum(axis=1)
    curvature_term = (f_dxx * (b_lv * b_lv * half_cell)).sum(axis=1)
    field_drift_term = (0.5 * (case.g.value(xl) + case.g.value(x[:, 1:])) * dt).sum(axis=1)
    field_noise_term = (case.h.value(xl) * dw).sum(axis=1)
    cross_term = (case.h.deriv(xl) * (2.0 * b_lv * half_cell)).sum(axis=1)
    rhs = drift_term + noise_term + curvature_term + field_drift_term + field_noise_term + cross_term
    return lhs - rhs
