"""Bounded nonlinear least squares: the trust-region reflective method of
Branch, Coleman & Li (SIAM J. Sci. Comput. 21(1), 1999).

:func:`least_squares` is an operation-for-operation port of scipy 1.17's
``least_squares`` for the one call shape the fit makes: ``method='trf'``
with a finite lower and upper bound on every variable, the linear loss,
``x_scale`` 1 (its multiplications by 1.0 are dropped, as they change no
bit), the dense ``'exact'`` trust-region solver and the ``'2-point'``
forward-difference Jacobian with scipy's bound-aware steps.  It returns the
bits scipy returns, without loading ``scipy.optimize`` or ``scipy.sparse``.

Each trust-region step needs ``scipy.linalg.svd``, imported by the first
call: ``numpy.linalg.svd`` returns other bits, and the fit's result moves
with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign

import numpy as np
from numpy.linalg import norm

from .errors import ParameterError

__all__ = ["LeastSquaresResult", "TERMINATION_MESSAGES", "least_squares"]

EPS = np.finfo(float).eps

TERMINATION_MESSAGES = {
    0: "The maximum number of function evaluations is exceeded.",
    1: "`gtol` termination condition is satisfied.",
    2: "`ftol` termination condition is satisfied.",
    3: "`xtol` termination condition is satisfied.",
    4: "Both `ftol` and `xtol` termination conditions are satisfied.",
}


@dataclass(frozen=True)
class LeastSquaresResult:
    """The solution ``x``, its ``cost`` (half the squared residual norm),
    residuals ``fun`` and Jacobian ``jac``; the residual evaluations outside
    the Jacobian's (``nfev``); the termination ``status``; and per variable
    -1 or 1 when it ends on its lower or upper bound, to ``xtol``, else 0
    (``active_mask``)."""

    x: np.ndarray
    cost: float
    fun: np.ndarray
    jac: np.ndarray
    nfev: int
    status: int
    active_mask: np.ndarray

    @property
    def success(self) -> bool:
        return self.status > 0

    @property
    def message(self) -> str:
        return TERMINATION_MESSAGES[self.status]


def least_squares(fun, x0, bounds, ftol=1e-8, xtol=1e-8, gtol=1e-8,
                  diff_step=None, max_nfev=None) -> LeastSquaresResult:
    """Minimise ``0.5 * sum(fun(x)**2)`` subject to ``bounds[0] <= x <= bounds[1]``.

    ``fun`` takes a float array of shape (n,) and returns the m residuals.
    ``diff_step`` is the Jacobian's relative step (None: the square root of
    machine epsilon, times max(1, |x|)); ``max_nfev`` defaults to 100 n.

    Raises:
        ParameterError: the bounds are not finite arrays of x0's shape with
            lower < upper, x0 lies outside them, every tolerance is below
            machine epsilon, ``max_nfev`` is not positive, or the residuals
            at the start or at a step of the Jacobian are not finite.
    """
    from scipy.linalg import svd  # numpy.linalg.svd is not bit-equal to it

    x0 = np.atleast_1d(x0).astype(float)
    lb, ub = (np.asarray(b, dtype=float) for b in bounds)
    if x0.ndim != 1 or lb.shape != x0.shape or ub.shape != x0.shape:
        raise ParameterError("x0 must be 1-D and each bound an array of its shape")
    if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub)) and np.all(lb < ub)):
        raise ParameterError("each bound must be finite, and each lower bound below its upper")
    if not _in_bounds(x0, lb, ub):
        raise ParameterError("Initial guess is outside of provided bounds")
    if ftol < EPS and xtol < EPS and gtol < EPS:
        raise ParameterError(
            f"At least one of the tolerances must be higher than machine epsilon ({EPS:.2e})."
        )
    if max_nfev is not None and max_nfev <= 0:
        raise ParameterError("`max_nfev` must be None or positive integer.")

    def residuals(x):
        return np.atleast_1d(fun(x.copy()))

    x = _make_strictly_feasible(x0, lb, ub, 1e-10)
    f = residuals(x)
    if not np.all(np.isfinite(f)):
        raise ParameterError("Residuals are not finite in the initial point.")
    J = _forward_difference(fun, x, f, diff_step, lb, ub)
    nfev = 1
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)

    v, dv = _cl_scaling_vector(x, g, lb, ub)
    Delta = norm(x / v**0.5)
    if Delta == 0:
        Delta = 1.0

    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    if max_nfev is None:
        max_nfev = n * 100
    alpha = 0.0  # the Levenberg-Marquardt parameter
    termination_status = None

    while True:
        v, dv = _cl_scaling_vector(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < gtol:
            termination_status = 1
        if termination_status is not None or nfev == max_nfev:
            break

        # the Coleman-Li scaling: the "hat" variables are x / d
        d = v**0.5
        diag_h = g * dv
        g_h = d * g

        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]  # a view
        J_augmented[m:] = np.diag(diag_h**0.5)
        if not np.all(np.isfinite(J_augmented)):  # scipy's svd refuses it
            raise ParameterError("the finite-difference Jacobian is not finite")
        U, s, V = svd(J_augmented, full_matrices=False, check_finite=False)
        V = V.T
        uf = U.T.dot(f_augmented)

        # the step back from the bounds
        theta = max(0.995, 1 - g_norm)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h  # the trust-region solution in the original variables
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)

            x_new = _make_strictly_feasible(x + step, lb, ub, 0)
            f_new = residuals(x_new)
            nfev += 1

            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * Delta)

            termination_status = _check_termination(
                actual_reduction, cost, norm(step), norm(x), ratio, ftol, xtol)
            if termination_status is not None:
                break

            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x = x_new
            f = f_new
            cost = cost_new
            J = _forward_difference(fun, x, f, diff_step, lb, ub)
            g = J.T.dot(f)

    return LeastSquaresResult(
        x=x, cost=cost, fun=f, jac=J, nfev=nfev,
        status=0 if termination_status is None else termination_status,
        active_mask=_find_active_constraints(x, lb, ub, xtol),
    )


def _forward_difference(fun, x0, f0, rel_step, lb, ub) -> np.ndarray:
    """scipy's ``approx_derivative(method='2-point')`` Jacobian at ``x0``:
    each step is ``rel_step * |x|`` (or ``sqrt(EPS) * max(1, |x|)``),
    signed as x, flipped or shortened to stay inside the bounds."""
    sign_x0 = (x0 >= 0).astype(float) * 2 - 1
    rstep = EPS**0.5
    if rel_step is None:
        h = rstep * sign_x0 * np.maximum(1.0, np.abs(x0))
    else:
        h = rel_step * sign_x0 * np.abs(x0)
        dx = (x0 + h) - x0
        h = np.where(dx == 0, rstep * sign_x0 * np.maximum(1.0, np.abs(x0)), h)
    # scipy's _adjust_scheme_to_bounds, one-sided, one step
    lower_dist = x0 - lb
    upper_dist = ub - x0
    x = x0 + h
    violated = (x < lb) | (x > ub)
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h[violated & fitting] *= -1
    forward = (upper_dist >= lower_dist) & ~fitting
    h[forward] = upper_dist[forward]
    backward = (upper_dist < lower_dist) & ~fitting
    h[backward] = -lower_dist[backward]

    J_transposed = np.empty((x0.size, f0.size))
    for i in range(x0.size):
        x1 = np.copy(x0)
        x1[i] = x0[i] + h[i]
        J_transposed[i] = (np.atleast_1d(fun(x1)) - f0) / ((x0[i] + h[i]) - x0[i])
    # scipy's Jacobian is this transpose, column-major: the gradient's
    # matrix-vector product then rounds as scipy's does
    return J_transposed.T


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the trust-region step (stepped back from the bound it
    crosses), its reflection off that bound and the scaled anti-gradient:
    (step, step in hat variables, predicted cost reduction)."""
    if _in_bounds(x + p, lb, ub):
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p, lb, ub)

    # the reflected direction
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    # restrict the trust-region step to reach the bound
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    # the reflected direction leaves first the feasible box or the trust region
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb, ub)

    # the reflected step's length range, strictly feasible
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # step the trust-region step back inside
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb, ub)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr

    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride, 0)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


# scipy's _lsq/common.py helpers, for finite bounds

def _intersect_trust_region(x, s, Delta):
    """(negative, positive) roots t of ``||x + s*t|| = Delta``.

    Raises:
        ParameterError: ``s`` is zero or ``x`` lies outside the region.
    """
    a = np.dot(s, s)
    if a == 0:
        raise ParameterError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ParameterError("`x` is not within the trust region.")
    d = np.sqrt(b*b - a*c)  # the root of a quarter of the discriminant
    # without cancellation ("Numerical Recipes")
    q = -(b + copysign(d, b))
    t1 = q / a
    t2 = c / q
    if t1 < t2:
        return t1, t2
    else:
        return t2, t1


def _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha):
    """More's (1977) trust-region step from one SVD ``U, s, V.T`` of the
    scaled Jacobian, with ``uf = U.T f``, starting the Levenberg-Marquardt
    search at the previous ``alpha``: (step, alpha)."""
    def phi_and_derivative(alpha, suf, s, Delta):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -np.sum(suf ** 2 / denom**3) / p_norm
        return phi, phi_prime

    suf = s * uf

    # the Gauss-Newton step, when the Jacobian has full rank
    if m >= n:
        threshold = EPS * m * s[0]
        full_rank = s[-1] > threshold
    else:
        full_rank = False

    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0

    alpha_upper = norm(suf) / Delta

    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0, suf, s, Delta)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0

    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)

    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)

        phi, phi_prime = phi_and_derivative(alpha, suf, s, Delta)

        if phi < 0:
            alpha_upper = alpha

        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta

        if np.abs(phi) < 0.01 * Delta:
            break

    p = -V.dot(suf / (s**2 + alpha))
    # the norm of p becomes Delta, so p does not leave the region
    p *= Delta / norm(p)
    return p, alpha


def _update_tr_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    """The next radius from the step's reduction ratio: (radius, ratio)."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0

    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0

    return Delta, ratio


def _check_termination(dF, F, dx_norm, x_norm, ratio, ftol, xtol):
    """The status (2, 3 or 4) of a met ``ftol`` or ``xtol`` test, else None."""
    ftol_satisfied = dF < ftol * F and ratio > 0.25
    xtol_satisfied = dx_norm < xtol * (xtol + x_norm)

    if ftol_satisfied and xtol_satisfied:
        return 4
    elif ftol_satisfied:
        return 2
    elif xtol_satisfied:
        return 3
    else:
        return None


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of ``0.5 ||J (s0 + s t)||^2 + g.(s0 + s t)`` plus the
    ``diag`` term, as a polynomial in t: (a, b), or (a, b, c) with ``s0``."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5

    b = np.dot(g, s)

    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c):
    """(t, value) minimising ``a t^2 + b t + c`` on ``[lb, ub]``."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _evaluate_quadratic(J, g, s, diag):
    """``0.5 s.(J^T J + diag) s + g.s``."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    l = np.dot(s, g)
    return 0.5 * q + l


def _in_bounds(x, lb, ub):
    return np.all((x >= lb) & (x <= ub))


def _step_size_to_bound(x, s, lb, ub):
    """The smallest t >= 0 at which ``x + s t`` reaches a bound, and per
    variable -1 or 1 where the lower or upper bound is reached, else 0."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over='ignore'):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _find_active_constraints(x, lb, ub, rtol):
    """Per variable -1 or 1 when it lies within ``rtol`` (relative to the
    bound's size, at least 1) of its lower or upper bound, else 0."""
    active = np.zeros_like(x, dtype=int)
    if rtol == 0:
        active[x <= lb] = -1
        active[x >= ub] = 1
        return active

    lower_dist = x - lb
    upper_dist = ub - x
    lower_threshold = rtol * np.maximum(1, np.abs(lb))
    upper_threshold = rtol * np.maximum(1, np.abs(ub))
    active[lower_dist <= np.minimum(upper_dist, lower_threshold)] = -1
    active[upper_dist <= np.minimum(lower_dist, upper_threshold)] = 1
    return active


def _make_strictly_feasible(x, lb, ub, rstep):
    """``x`` moved at least ``rstep`` (relative) off each bound; with
    ``rstep`` 0, to the next float inside."""
    x_new = x.copy()
    active = _find_active_constraints(x, lb, ub, rstep)
    lower_mask = np.equal(active, -1)
    upper_mask = np.equal(active, 1)
    if rstep == 0:
        x_new[lower_mask] = np.nextafter(lb[lower_mask], ub[lower_mask])
        x_new[upper_mask] = np.nextafter(ub[upper_mask], lb[upper_mask])
    else:
        x_new[lower_mask] = (lb[lower_mask] +
                             rstep * np.maximum(1, np.abs(lb[lower_mask])))
        x_new[upper_mask] = (ub[upper_mask] -
                             rstep * np.maximum(1, np.abs(ub[upper_mask])))
    tight_bounds = (x_new < lb) | (x_new > ub)
    x_new[tight_bounds] = 0.5 * (lb[tight_bounds] + ub[tight_bounds])
    return x_new


def _cl_scaling_vector(x, g, lb, ub):
    """The Coleman-Li scaling vector v (the distance to the bound the
    anti-gradient points at, else 1) and its derivative dv (-1, 1 or 0)."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = g < 0
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1
    mask = g > 0
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv
