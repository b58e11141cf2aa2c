"""Doubly-penalized logistic likelihood solver.

Newton-Raphson on the local quadratic approximation (LQA) of the L1
sparsity penalty, with probability clamping, step-halving against the
exact penalized objective, coefficient thresholding, and null-interval
detection.

Note on penalty scaling: the iteration uses the gradient/Hessian forms
-U'(y-c) + V*b + W~*b and U'DU + V* + W~* with V* = gamma*V and
W~* = (lambda/2)*sqrt(T/M)*sum_j ||beta_[j]||^-1 W_j. The exact function
this iteration descends is therefore

    -loglik + (gamma/2) * b'Vb + (lambda/2) * integral |beta|,

which is what step-halving monitors (``objective_trace``) and what
``final_objective`` reports at the thresholded coefficients.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .basis import BSplineBasis, eval_basis_many
from .design import DesignMatrices

_DESCENT_SLACK = 1e-12
_COND_LIMIT = 1e12
_L1_NODES = 20


@dataclass
class SolverConfig:
    """Tuning weights and numerical guards for one fit."""

    lam: float = 1.0
    gamma: float = 1.0
    m: int = 2
    prob_clamp_delta: float = 1e-5
    coef_threshold_epsilon: float = 1e-4
    norm_floor: float = 1e-8
    max_iterations: int = 100
    tolerance: float = 1e-6
    step_halving_max: int = 20

    def __post_init__(self):
        if self.lam < 0 or self.gamma < 0:
            raise ValueError("penalty weights must be nonnegative")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not 0 < self.prob_clamp_delta < 0.5:
            raise ValueError("prob_clamp_delta must be in (0, 0.5)")


@dataclass
class FitResult:
    """Converged coefficients plus diagnostics."""

    b: np.ndarray
    alpha: float
    null_mask: np.ndarray
    iterations: int = 0
    converged: bool = False
    final_objective: float = np.nan
    loglik: float = np.nan
    df: float = np.nan
    lam: float = 0.0
    gamma: float = 0.0
    objective_trace: list[float] = field(default_factory=list, repr=False)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # tanh form is overflow-safe for any eta
    return 0.5 * (1.0 + np.tanh(0.5 * eta))


def clamped_probs(eta: np.ndarray, clamp: float) -> np.ndarray:
    return np.clip(_sigmoid(eta), clamp, 1.0 - clamp)


def log_likelihood(b: np.ndarray, alpha: float, U: np.ndarray, y: np.ndarray,
                   clamp: float) -> float:
    """Bernoulli log-likelihood with probabilities clamped to [clamp, 1-clamp]."""
    b = np.asarray(b, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if U.shape[1] != b.size or U.shape[0] != y.size:
        raise ValueError(f"dimension mismatch: U {U.shape}, b {b.size}, y {y.size}")
    p = clamped_probs(alpha + U @ b, clamp)
    return float(np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def interval_norms(b: np.ndarray, W_blocks: list[np.ndarray]) -> np.ndarray:
    """L2 norm of the coefficient function restricted to each subinterval."""
    return np.sqrt(np.maximum([b @ W @ b for W in W_blocks], 0.0))


def lqa_weight_matrix(b_current: np.ndarray, W_blocks: list[np.ndarray],
                      lam: float, T: float, M: int,
                      norm_floor: float) -> np.ndarray:
    """Scaled LQA penalty matrix (lambda/2)*sqrt(T/M) * sum_j W_j / ||beta_[j]||.

    Subinterval norms are floored at ``norm_floor`` so null intervals
    give a large finite weight instead of a division by zero.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    L = W_blocks[0].shape[0]
    if lam == 0.0:
        return np.zeros((L, L))
    coef = 1.0 / np.maximum(interval_norms(b_current, W_blocks), norm_floor)
    Wt = np.zeros((L, L))
    for c, W in zip(coef, W_blocks):
        Wt += c * W
    return 0.5 * lam * np.sqrt(T / M) * Wt


def _pad_penalty(P: np.ndarray) -> np.ndarray:
    """Augment a penalty matrix with a zero row/column for the intercept slot."""
    L = P.shape[0]
    out = np.zeros((L + 1, L + 1))
    out[1:, 1:] = P
    return out


def newton_step(theta: np.ndarray, U_aug: np.ndarray, y: np.ndarray,
                V_star: np.ndarray, W_tilde_star: np.ndarray,
                clamp: float) -> np.ndarray:
    """One Newton-Raphson update of (alpha, b) on the LQA objective.

    ``V_star`` and ``W_tilde_star`` must already be intercept-augmented;
    solves the symmetric system instead of inverting, falling back to a
    pseudo-solve when the condition estimate blows up.
    """
    theta = np.asarray(theta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if U_aug.shape[1] != theta.size or U_aug.shape[0] != y.size:
        raise ValueError(f"dimension mismatch: U_aug {U_aug.shape}, "
                         f"theta {theta.size}, y {y.size}")
    p = clamped_probs(U_aug @ theta, clamp)
    d = p * (1.0 - p)
    H = U_aug.T @ (d[:, None] * U_aug) + V_star + W_tilde_star
    rhs = U_aug.T @ (y - p) - V_star @ theta - W_tilde_star @ theta
    if not np.all(np.isfinite(H)):
        raise np.linalg.LinAlgError("non-finite Newton system")
    cond = np.linalg.cond(H)
    if cond > _COND_LIMIT:
        warnings.warn(f"ill-conditioned Newton system (cond~{cond:.2e}); "
                      "using pseudo-solve", RuntimeWarning, stacklevel=2)
        step = np.linalg.lstsq(H, rhs, rcond=None)[0]
    else:
        step = np.linalg.solve(H, rhs)
    return theta + step


def _relative_step(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.max(np.abs(new - old)) / max(1.0, np.max(np.abs(old))))


class _ExactObjective:
    """Exact penalized objective used for step acceptance.

    -loglik + (gamma/2) b'Vb + (lambda/2) * integral |beta|, the Lyapunov
    function of the LQA Newton iteration. The L1 integral uses 20-node
    Gauss-Legendre per subinterval.
    """

    def __init__(self, basis: BSplineBasis, U_aug, y, V, gamma, lam, clamp):
        self.U_aug, self.y = U_aug, np.asarray(y, dtype=np.float64)
        self.V, self.gamma, self.lam, self.clamp = V, gamma, lam, clamp
        breaks = basis.breakpoints
        x, w = np.polynomial.legendre.leggauss(_L1_NODES)
        half = 0.5 * np.diff(breaks)
        nodes = (breaks[:-1, None] + half[:, None] * (x + 1.0)).ravel()
        self._l1_w = (half[:, None] * w).ravel()
        self._l1_E = eval_basis_many(basis, nodes)

    def l1(self, b: np.ndarray) -> float:
        return float(self._l1_w @ np.abs(self._l1_E @ b))

    def __call__(self, theta: np.ndarray) -> float:
        alpha, b = theta[0], theta[1:]
        ll = log_likelihood(b, alpha, self.U_aug[:, 1:], self.y, self.clamp)
        return (-ll + 0.5 * self.gamma * (b @ self.V @ b)
                + 0.5 * self.lam * self.l1(b))


def _descend(theta, U_aug, y, V_star_aug, penalty, objective, config,
             trace=None):
    """Newton iterations with step-halving; returns (theta, converged, iters).

    ``penalty(theta)`` gives the intercept-augmented W~* of each step.
    """
    obj = objective(theta)
    if trace is not None:
        trace.append(obj)
    for it in range(1, config.max_iterations + 1):
        proposal = newton_step(theta, U_aug, y, V_star_aug, penalty(theta),
                               config.prob_clamp_delta)
        step = proposal - theta
        scale, accepted = 1.0, False
        for _ in range(config.step_halving_max + 1):
            cand = theta + scale * step
            obj_c = objective(cand)
            if obj_c <= obj + _DESCENT_SLACK:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            # no descent along the Newton direction: stationary up to
            # line-search resolution
            return theta, True, it
        rel = _relative_step(cand, theta)
        theta, obj = cand, obj_c
        if trace is not None:
            trace.append(obj)
        if rel < config.tolerance:
            return theta, True, it
    return theta, False, config.max_iterations


def fit_initial(U: np.ndarray, y: np.ndarray, V_star: np.ndarray,
                config: SolverConfig) -> tuple[np.ndarray, bool, int]:
    """Roughness-penalized logistic fit (sparsity penalty off).

    ``V_star`` is the intercept-augmented gamma*V. Returns the stacked
    (alpha, b) vector, a convergence flag, and the iteration count.
    """
    N = U.shape[0]
    U_aug = np.column_stack([np.ones(N), U])
    zero_W = np.zeros_like(V_star)

    def objective(theta):
        ll = log_likelihood(theta[1:], theta[0], U, y, config.prob_clamp_delta)
        return -ll + 0.5 * theta @ V_star @ theta

    theta0 = np.zeros(U_aug.shape[1])
    return _descend(theta0, U_aug, y, V_star, lambda theta: zero_W,
                    objective, config)


def fit(U: np.ndarray, y: np.ndarray, basis: BSplineBasis,
        design: DesignMatrices, config: SolverConfig) -> FitResult:
    """Full SFLR fit: initialization, LQA Newton loop, thresholding, null mask."""
    y = np.asarray(y, dtype=np.float64)
    N = U.shape[0]
    if N < 2:
        raise ValueError("need at least 2 samples")
    degenerate = bool(y.min() == y.max())
    if degenerate:
        warnings.warn("all labels identical; the intercept is unbounded",
                      RuntimeWarning, stacklevel=2)

    T = basis.domain_end
    M = basis.interior_interval_count
    V = design.V
    W_blocks = design.W_blocks
    U_aug = np.column_stack([np.ones(N), U])
    V_star_aug = _pad_penalty(config.gamma * V)

    theta, conv0, it0 = fit_initial(U, y, V_star_aug, config)

    objective = _ExactObjective(basis, U_aug, y, V, config.gamma, config.lam,
                                config.prob_clamp_delta)
    trace: list[float] = []
    if config.lam > 0.0:
        def lqa_penalty(theta):
            return _pad_penalty(lqa_weight_matrix(
                theta[1:], W_blocks, config.lam, T, M, config.norm_floor))

        theta, converged, iters = _descend(theta, U_aug, y, V_star_aug,
                                           lqa_penalty, objective, config,
                                           trace)
    else:
        # no sparsity penalty: the initialization already solved the problem
        converged, iters = conv0, it0
        trace.append(objective(theta))

    if degenerate:
        converged = False

    alpha, b = float(theta[0]), theta[1:].copy()

    # threshold raw coefficients, then declare null subintervals by scaled
    # norm and zero every coefficient touching one (iterated to a fixpoint
    # so the mask and the coefficients stay consistent)
    eps = config.coef_threshold_epsilon
    b[np.abs(b) < eps] = 0.0
    h = T / M
    while True:
        norms = interval_norms(b, W_blocks)
        null_mask = norms / np.sqrt(h) < eps
        touched = [l for l in range(b.size)
                   if b[l] != 0.0 and any(null_mask[j]
                                          for j in basis.support_intervals(l))]
        if not touched:
            break
        b[touched] = 0.0

    theta_final = np.concatenate([[alpha], b])
    p = clamped_probs(U_aug @ theta_final, config.prob_clamp_delta)
    d = p * (1.0 - p)
    UDU = U_aug.T @ (d[:, None] * U_aug)
    Wt_aug = _pad_penalty(lqa_weight_matrix(b, W_blocks, config.lam, T, M,
                                            config.norm_floor))
    H = UDU + V_star_aug + Wt_aug
    try:
        df = float(np.trace(np.linalg.solve(H, UDU)))
    except np.linalg.LinAlgError:
        df = float(np.trace(np.linalg.lstsq(H, UDU, rcond=None)[0]))

    ll = log_likelihood(b, alpha, U, y, config.prob_clamp_delta)
    return FitResult(b=b, alpha=alpha, null_mask=null_mask,
                     iterations=iters, converged=converged,
                     final_objective=objective(theta_final),
                     loglik=ll, df=df, lam=config.lam, gamma=config.gamma,
                     objective_trace=trace)
