"""Special functions and quadrature primitives used by every other module.

Everything here is pure and deterministic: Gauss-Laguerre rules, log-Gamma,
the overflow-safe scaled exponential integral e^x*E_p(x), and an adaptive
Gauss-Kronrod integrator for finite and semi-infinite intervals. Integrands
take a 1-D array of abscissae and return an (n,) array, or an (n, K) array of
K integrands on one shared mesh; the integrators return (value, error bound),
as floats or as (K,) arrays. The semi-infinite integrator maps (0, inf) from
u in (0, 1) by z = (u/(1-u))^25: the kernels it serves depend on z through
ln z, and its panels are near-uniform in ln z over 1e-14 .. 1e14, while its
end panels reach z = 0 and z = inf (a variable substitution in the spirit of
Takahasi and Mori, Publ. RIMS 9, 1974).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "IntegrationError",
    "QuadratureRule",
    "gauss_laguerre",
    "exp_en_scaled",
    "integrate_interval_with_error",
    "integrate_semi_infinite_with_error",
]

EULER_GAMMA = 0.5772156649015328606


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


class ConvergenceError(RuntimeError):
    """An iterative construction failed to converge."""


class IntegrationError(RuntimeError):
    """Adaptive integration exhausted its budget.

    Carries the best available estimate and the achieved relative error so
    callers can decide whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate: float, achieved_rel_error: float):
        super().__init__(message)
        self.estimate = estimate
        self.achieved_rel_error = achieved_rel_error


# ---------------------------------------------------------------------------
# Gauss-Laguerre rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights turning integral(0,inf) f(t) t^a e^{-t}/Gamma(a+1) dt into sum w_i f(t_i).

    Nodes are the zeros of the generalized Laguerre polynomial of the given
    order, strictly increasing and positive; weights are positive and sum to 1.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def _laguerre_pair(order: int, alpha: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (L^alpha_order(x), L^alpha_{order-1}(x)) by the three-term recurrence."""
    lk_minus = np.ones_like(x)
    lk = 1.0 + alpha - x
    for k in range(1, order):
        lk, lk_minus = ((2.0 * k + 1.0 + alpha - x) * lk - (k + alpha) * lk_minus) / (k + 1.0), lk
    return lk, lk_minus


@lru_cache(maxsize=None)
def gauss_laguerre(order: int, alpha: float = 0.0) -> QuadratureRule:
    """The Gauss rule of the given order (1..64) for the weight t^alpha e^-t/Gamma(alpha+1).

    Its weights sum to 1 and sum_i w_i t_i = alpha + 1; alpha = 0 is plain
    Gauss-Laguerre. Node guesses are the eigenvalues of the Jacobi matrix
    (Golub-Welsch: diagonal 2k+1+alpha, off-diagonal sqrt(k(k+alpha))),
    polished by Newton on the recurrence; weights are
    Gamma(n+alpha+1)/(n! Gamma(alpha+1)) t_i/((n+1) L^alpha_{n+1}(t_i))^2.

    Raises
    ------
    DomainError
        If order is outside [1, 64] or alpha is not a finite number > -1.
    ConvergenceError
        If Newton fails on some node; the message names the node index.
    """
    if not isinstance(order, (int, np.integer)) or order < 1 or order > 64:
        raise DomainError(f"order must be an integer in [1, 64], got {order!r}")
    if not -1.0 < alpha < math.inf:
        raise DomainError(f"alpha must be a finite number > -1, got {alpha!r}")
    n = int(order)

    k = np.arange(1, n)
    off = np.sqrt(k * (k + alpha))
    jacobi = np.diag(2.0 * np.arange(n) + 1.0 + alpha) + np.diag(off, 1) + np.diag(off, -1)
    nodes = np.linalg.eigvalsh(jacobi)

    # Newton polish; the eigenvalue guesses are already accurate to ~1e-12.
    for _ in range(64):
        ln, ln_minus = _laguerre_pair(n, alpha, nodes)
        # x L_n'(x) = n L_n(x) - (n + alpha) L_{n-1}(x)
        deriv = (n * (ln - ln_minus) - alpha * ln_minus) / nodes
        step = ln / deriv
        nodes = nodes - step
        if np.all(np.abs(step) <= 1e-15 * nodes):
            break

    ln, ln_minus = _laguerre_pair(n, alpha, nodes)
    scale = np.maximum(1.0, np.abs(ln_minus))
    bad = np.abs(ln) > 1e-13 * scale * n
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise ConvergenceError(f"node {idx} of Gauss-Laguerre order {n} did not converge")

    lnp1, _ = _laguerre_pair(n + 1, alpha, nodes)
    weights = nodes / ((n + 1.0) * lnp1) ** 2
    weights *= math.exp(math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0)
                        - math.lgamma(alpha + 1.0))

    if np.any(np.diff(nodes) <= 0) or np.any(nodes <= 0) or np.any(weights <= 0):
        raise ConvergenceError(f"Gauss-Laguerre order {n} produced an invalid rule")
    return QuadratureRule(order=n, nodes=nodes, weights=weights)


# ---------------------------------------------------------------------------
# Scalar special functions
# ---------------------------------------------------------------------------


# zeta(k) - 1 for k = 2..27, the coefficients of the ln Gamma(1+a) series.
_ZETA_MINUS_ONE = np.array([
    0.6449340668482264, 0.2020569031595943, 0.08232323371113819,
    0.03692775514336993, 0.01734306198444914, 0.008349277381922827,
    0.00407735619794434, 0.0020083928260822143, 0.0009945751278180853,
    0.0004941886041194645, 0.0002460865533080483, 0.00012271334757848915,
    6.124813505870483e-05, 3.058823630702049e-05, 1.528225940865187e-05,
    7.637197637899763e-06, 3.81729326499984e-06, 1.908212716553939e-06,
    9.539620338727962e-07, 4.769329867878064e-07, 2.38450502727733e-07,
    1.1921992596531106e-07, 5.960818905125948e-08, 2.980350351465228e-08,
    1.4901554828365043e-08, 7.45071178983543e-09,
])


def _lgamma1p_over_a(a: float) -> float:
    """ln Gamma(1+a) / a for |a| <= 1/2, without ever forming 1 + a.

    A&S 6.1.41: ln Gamma(1+a) = -ln(1+a) + a(1-gamma)
    + sum_{k>=2} (-1)^k (zeta(k)-1) a^k / k. Rounding 1 + a would cost
    ~1e-16/|a| relative, i.e. 1e-9 at a = 1e-7.
    """
    if a == 0.0:
        return -EULER_GAMMA
    k = np.arange(2.0, 2.0 + _ZETA_MINUS_ONE.size)
    tail = float(np.sum(_ZETA_MINUS_ONE * (-a) ** (k - 1.0) / k))
    return -math.log1p(a) / a + (1.0 - EULER_GAMMA) - tail


def _exp_en_series(p0: float, x: np.ndarray) -> np.ndarray:
    """e^x E_p0(x) for 0 < x <= 1 and p0 in [1/2, 3/2) by the power series.

    E_p0(x) = Gamma(a) x^-a - sum_{k>=0} (-x)^k / (k! (k+a)) with a = 1 - p0
    (DLMF 8.19). The k = 0 term and Gamma(a) x^-a both have a pole at
    a = 0; their sum is evaluated as expm1(a (ln Gamma(1+a)/a - ln x)) / a,
    which is the E1 series' -gamma - ln x at a = 0.
    """
    a = 1.0 - p0
    h = _lgamma1p_over_a(a) - np.log(x)
    total = h if a == 0.0 else np.expm1(a * h) / a
    term = np.ones_like(x)
    for k in range(1, 30):
        term = term * (-x) / k
        total = total - term / (k + a)
    return np.exp(x) * total


def _exp_en_cf(p: float, x: np.ndarray) -> np.ndarray:
    """e^x E_p(x) for x > 1 via the modified Lentz continued fraction."""
    tiny = 1e-300
    b = x + p
    f = b.copy()
    c = f.copy()
    d = np.zeros_like(x)
    converged = np.zeros(x.shape, dtype=bool)
    for k in range(1, 200):
        a = -k * (k + (p - 1.0))
        b = x + 2.0 * k + p
        d = b + a * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + a / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = c * d
        f = np.where(converged, f, f * delta)
        converged |= np.abs(delta - 1.0) < 1e-16
        if converged.all():
            break
    return 1.0 / f


def exp_en_scaled(p: float, x):
    """Overflow-safe e^x * E_p(x) for real order p >= 1/2 and x > 0.

    E_p is the generalized exponential integral (DLMF 8.19), so this is
    integral_0^inf e^(-x u) (1+u)^-p du. Accepts a scalar or ndarray x.
    Above x = 1 a continued fraction; at or below it the series for the
    order p0 = p - n in [1/2, 3/2), then the upward recurrence
    psi_(q+1) = (1 - x psi_q) / q, which damps errors for x <= 1. Relative
    error ~1e-14, near-integer orders included.
    """
    if not p >= 0.5:
        raise DomainError(f"exp_en_scaled requires p >= 1/2, got {p!r}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
        raise DomainError("exp_en_scaled requires x > 0")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    small = arr <= 1.0
    if small.any():
        xs = arr[small]
        n = math.floor(p - 0.5)
        psi = _exp_en_series(p - n, xs)
        for q in (p - n) + np.arange(n):
            psi = (1.0 - xs * psi) / q
        out[small] = psi
    if (~small).any():
        out[~small] = _exp_en_cf(p, arr[~small])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod integration
# ---------------------------------------------------------------------------

# 15-point Kronrod extension of 7-point Gauss, positive half written out.
_KRONROD_NODES = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_GAUSS_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_GK_X = np.concatenate([-_KRONROD_NODES[:-1], _KRONROD_NODES[::-1]])  # 15 ascending
# (2, 15): the K15 weights, then the G7 weights on the Kronrod abscissae
_GK_W = np.stack([np.concatenate([_KRONROD_WEIGHTS[:-1], _KRONROD_WEIGHTS[::-1]]),
                  np.zeros(15)])
_GK_W[1, 1:-1:2] = np.concatenate([_GAUSS_WEIGHTS[:-1], _GAUSS_WEIGHTS[::-1]])
_MAX_PASSES = 200


def _adaptive_core(
    f: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
    rel_tol: float,
    max_panels: int,
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None,
):
    """Adaptive G7/K15 bisection of the sorted initial mesh `grid`.

    Returns (estimate, error bound) of the integral over [grid[0], grid[-1]].

    f returns an (n,) array, or an (n, K) array of K integrands sharing the
    abscissae; `jacobian`, if given, maps the (panels, 15) abscissae to
    factors folded into the panel weights, so f's array is only read.
    Column k is held to rel_tol * |total_k|. After each pass the panels are
    ranked by their largest Kronrod-vs-Gauss error relative to an
    unconverged column's tolerance; the longest prefix that keeps every
    unconverged column's accepted error within a quarter of its tolerance is
    accepted and the rest is bisected (in vectorized batches).
    Returns floats for an (n,) integrand and (K,) arrays otherwise; an
    IntegrationError then carries (K,) estimates and achieved errors.
    Deterministic: the final sums run over panels sorted by left endpoint.
    """
    lefts = grid[:-1].copy()
    rights = grid[1:].copy()

    # Per-panel values and errors are (panels, K); the accepted panels'
    # running sums add up in acceptance order.
    done_lefts: list[np.ndarray] = []
    done_vals: list[np.ndarray] = []
    done_errs: list[np.ndarray] = []
    done_total = 0.0
    done_err = 0.0
    n_panels = lefts.size
    columns = False

    def result(est, err):
        return (est, err) if columns else (float(est[0]), float(err[0]))

    for _ in range(_MAX_PASSES):
        mid = 0.5 * (lefts + rights)
        half = 0.5 * (rights - lefts)
        x = mid[:, None] + half[:, None] * _GK_X
        y = np.asarray(f(x.ravel()), dtype=float)
        columns = y.ndim == 2
        scale = half[:, None] if jacobian is None else half[:, None] * jacobian(x)
        # (panels, 2, 15) @ (panels, 15, K): both rules' sums in one read of y
        sums = np.matmul(scale[:, None, :] * _GK_W, y.reshape(*x.shape, -1))
        del y  # freed before the next pass's integrand call allocates its values
        i15 = sums[:, 0]
        err = np.abs(i15 - sums[:, 1])

        total = i15.sum(axis=0) + done_total
        err_all = err.sum(axis=0) + done_err
        tol = rel_tol * np.maximum(np.abs(total), 1e-300)
        converged = err_all <= tol
        if converged.all():
            done_lefts.append(lefts)
            done_vals.append(i15)
            done_errs.append(err)
            break

        # Rank the panels by their worst error against an unconverged
        # column's tolerance; accept the longest prefix that keeps each such
        # column's accepted error within a quarter of its tolerance.
        open_err, open_tol = err[:, ~converged], tol[~converged]
        rank = np.argsort((open_err / open_tol).max(axis=1), kind="stable")
        room = (0.25 * tol - done_err)[~converged]
        fits = (np.cumsum(open_err[rank], axis=0) <= room).all(axis=1)
        keep = np.zeros(lefts.size, dtype=bool)
        keep[rank[:np.count_nonzero(fits)]] = True
        # Bisection below float resolution: accept to avoid infinite loops.
        keep |= (mid - lefts) < np.abs(mid) * 1e-15
        done_lefts.append(lefts[keep])
        done_vals.append(i15[keep])
        done_errs.append(err[keep])
        done_total = done_total + done_vals[-1].sum(axis=0)
        done_err = done_err + done_errs[-1].sum(axis=0)

        split_l, split_r, split_m = lefts[~keep], rights[~keep], mid[~keep]
        n_panels += split_l.size
        if n_panels > max_panels:
            est, ach = result(total, err_all / np.maximum(np.abs(total), 1e-300))
            raise IntegrationError(
                f"integration budget exceeded ({n_panels} panels)", est, ach
            )
        lefts = np.concatenate([split_l, split_m])
        rights = np.concatenate([split_m, split_r])
        if lefts.size == 0:
            break
    else:
        # depth budget exhausted with panels still pending: their mass was
        # never accumulated, so the estimate cannot be trusted
        est, ach = result(np.zeros(total.shape) + done_total, np.full(total.shape, math.inf))
        raise IntegrationError(
            f"integration depth budget exhausted ({_MAX_PASSES} passes, {n_panels} panels)",
            est, ach)

    order = np.argsort(np.concatenate(done_lefts), kind="stable")
    estimate = np.concatenate(done_vals)[order].sum(axis=0)
    err_bound = np.concatenate(done_errs).sum(axis=0)
    achieved = err_bound / np.maximum(np.abs(estimate), 1e-300)
    if np.any(achieved > rel_tol):
        est, ach = result(estimate, achieved)
        raise IntegrationError(
            f"tolerance {rel_tol} not met (achieved {np.max(achieved):.2e})", est, ach
        )
    return result(estimate, err_bound)


def integrate_interval_with_error(f: Callable[[np.ndarray], np.ndarray], a: float,
                                  b: float, rel_tol: float = 1e-10,
                                  max_panels: int = 4096, points=()) -> tuple[float, float]:
    """Adaptive integral of f over the finite interval [a, b].

    Returns (value, error bound). f maps a 1-D array of n abscissae to the
    (n,) array of integrand values, or to an (n, K) array of K integrands
    integrated together to K relative tolerances; values and bounds are then
    (K,) arrays. `points` strictly inside (a, b), such as kinks of f, join the
    initial mesh as breakpoints, so no panel straddles them; others are ignored.
    """
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise DomainError(f"invalid interval [{a}, {b}]")
    inner = sorted({p for p in points if a < p < b})
    return _adaptive_core(f, np.array([a, *inner, b], dtype=float), rel_tol, max_panels)


# z = (u/(1-u))^K: 28 equal panels in u span z = 1e-14 .. 1e14 and are 2.0
# wide in ln z at z = 1 (a decade, 2.3, leaves 1/(1+z)^2 short of 1e-10 in one
# pass) and 3.0 at the outer ones
_K = 25.0
_U_14 = 1.0 / (1.0 + 10.0 ** (-14.0 / _K))  # z(_U_14) = 1e14
_U_GRID = np.concatenate([[0.0], np.linspace(1.0 - _U_14, _U_14, 29), [1.0]])
_LN_Z_MAX = -math.log(np.finfo(float).tiny)  # f sees z where z and 1/z are normal floats


def _log_z(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ln z at u, whether z and 1/z are normal floats there)."""
    with np.errstate(divide="ignore"):
        t = _K * (np.log(u) - np.log1p(-u))
    return t, np.abs(t) < _LN_Z_MAX


def integrate_semi_infinite_with_error(f: Callable[[np.ndarray], np.ndarray],
                                       rel_tol: float = 1e-10,
                                       max_panels: int = 4096) -> tuple[float, float]:
    """Adaptive integral of f over (0, inf) for absolutely integrable f.

    Returns (value, error bound). f maps a 1-D array of n abscissae to the
    (n,) array of integrand values, or to an (n, K) array of K integrands
    integrated together, each to its own relative tolerance; values and
    bounds are then (K,) arrays. The kernels here depend on z through ln z,
    so the half line is mapped from u in (0, 1) by z = (u/(1-u))^25, whose
    Jacobian 25 z/(u(1-u)) goes into the panel weights. Its initial mesh is
    28 panels of equal width in u, near-uniform in ln z over the decades
    1e-14 .. 1e14, plus the two end panels, where z ~ u^25 and (1-u)^-25
    reach 0 and inf. Adaptive Gauss-Kronrod bisection of that mesh resolves
    exponential decay, power-law tails, kernels concentrated at any scale
    and integrable singularities at z -> 0. f is only evaluated where z and
    1/z are normal floats; it counts as 0 beyond.
    Deterministic: identical inputs give identical outputs.

    Raises
    ------
    IntegrationError
        If the panel or pass budget is exhausted before the tolerance is
        met; the exception carries the best estimate and the achieved
        relative error.
    """

    def mapped(u: np.ndarray) -> np.ndarray:
        t, inside = _log_z(u)
        if inside.all():
            return f(np.exp(t))
        vals = np.asarray(f(np.exp(t[inside])), dtype=float)
        out = np.zeros(u.shape + vals.shape[1:])
        out[inside] = vals
        return out

    def jacobian(u: np.ndarray) -> np.ndarray:
        # dz/du = K z/(u (1-u)); 0 where f is not evaluated
        t, inside = _log_z(u)
        return np.divide(_K * np.exp(np.where(inside, t, 0.0)), u * (1.0 - u),
                         out=np.zeros_like(u), where=inside)

    return _adaptive_core(mapped, _U_GRID, rel_tol, max_panels, jacobian)
