"""Doubly-penalized logistic likelihood solver.

Newton-Raphson on the local quadratic approximation (LQA) of the L1
sparsity penalty, with probability clamping, step-halving against the
exact penalized objective, coefficient thresholding, and null-interval
detection.

Penalty scaling, stated here once: each LQA Newton step uses the
gradient -U'(y-c) + (V* + W~*)b and the Hessian U'DU + V* + W~*, with
V* = gamma*V and W~* = (lambda/2)*sqrt(T/M)*sum_j W_j / ||beta_[j]||, the
subinterval norms floored at ``_NORM_FLOOR``. The exact function this
iteration descends is therefore

    -loglik + (gamma/2) * b'Vb + (lambda/2) * integral |beta|,

which is what step-halving monitors (``objective_trace``) and what
``final_objective`` reports at the thresholded coefficients. The integral
is 20-node Gauss-Legendre per subinterval, exact only where beta keeps one
sign there; ROADMAP's one-objective item replaces it by the subinterval
penalty sqrt(T/M) sum_j ||beta_[j]||. One ``_Objective`` owns each fit's
penalized problem: the [1, U] design, V* and W~* padded with a zero
intercept row and column, the value, and each Newton step's P = V* + W~*.
The initial lambda = 0 fit descends the same function with its L1 term
off, and its P is V*.

Each iterate is evaluated once: the linear predictor, sigmoid and clamp
that give its objective value also give the probabilities of its Newton
step. ``_sigmoid``, ``clamped_probs`` and ``_log_likelihood`` are the one
spelling of those formulas; each works in place on buffers it allocates
and leaves its inputs alone. The likelihood Hessian U'DU is built from the
transposed design [1, U]' (C-contiguous, made once per objective): the
weights sqrt(p(1-p)) scale its contiguous rows, and the products of
fixed 256-column blocks are summed in a fixed order. The descent keeps
the U'DU it last built and reuses it while the weights w = p(1-p) stay
close to the weights w0 it was built from: it rebuilds when
max|w - w0| > ``_HESSIAN_DRIFT`` * max(w0), and always at a descent's
first step. A reused U'DU makes the step a modified Newton step; P, the
gradient, the Cholesky guard and the solve are still fresh at every
iterate, and step-halving against the exact objective keeps the descent
monotone. ``fit``'s ``df`` builds a fresh U'DU at the final coefficients.
The linear predictor and the gradient stay on the untransposed [1, U]:
BLAS sums a matrix-vector product in another order when the layout
flips, so their bits would change. Results are identical bytes at 1 and 2 OpenBLAS threads (checked
with OpenBLAS 0.3.31 only) for problems of at most 96 unknowns: 95 basis
functions plus the intercept. Above that, the LAPACK LU solve's bits
change with the thread count, and so do the Hessian's except at multiples
of 8 columns.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basis import (BSplineBasis, _subinterval_gauss, _support_windows,
                    eval_basis_many)
from .design import DesignMatrices, assemble_blocks

# fitted probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP]
PROB_CLAMP = 1e-5
# coefficients and scaled subinterval norms below this are zero
_COEF_THRESHOLD = 1e-4
_NORM_FLOOR = 1e-8
_STEP_HALVING_MAX = 20
_DESCENT_SLACK = 1e-12
_PIVOT_RATIO_LIMIT = 1e6
_L1_NODES = 20
# rows per block of the likelihood Hessian, built at a descent's first
# step and when its weights drift: with 34 columns, a 256-row block takes
# about 27 us at 1 and at 2 OpenBLAS threads alike, while a 500-row block
# takes 85 us at 2 threads against 39 us at 1 (OpenBLAS 0.3.31 on a
# 2-core Xeon VM)
_HESSIAN_BLOCK_ROWS = 256
# the descent rebuilds U'DU when a weight p(1-p) has moved by more than
# this share of the largest weight it was built from. Against rebuilding
# at every step, on 48 seeded one_null fits (N=1000, M=30, default grid),
# 1e-2 moves b by at most 2.3e-5 of its largest entry and one fit's
# iteration count by one; 1e-1 builds half as often but moves b by 1e-3
# and changes 8 fits' null mask, convergence or iteration count
_HESSIAN_DRIFT = 1e-2
# the most unknowns whose results are thread-count invariant (see above)
THREAD_INVARIANT_UNKNOWNS = 96


@dataclass
class SolverConfig:
    """Tuning weights and iteration limits for one fit."""

    lam: float = 1.0
    gamma: float = 1.0
    m: int = 2
    max_iterations: int = 100
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.lam < 0 or self.gamma < 0:
            raise ValueError("penalty weights must be nonnegative")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


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
    """0.5 * (1 + tanh(eta / 2)), overflow-safe for any eta, in a new
    array."""
    p = np.multiply(eta, 0.5, out=np.empty(np.shape(eta)))
    np.tanh(p, out=p)
    p += 1.0
    p *= 0.5
    return p


def clamped_probs(eta: np.ndarray) -> np.ndarray:
    """The sigmoid of eta clamped to [PROB_CLAMP, 1 - PROB_CLAMP]."""
    p = _sigmoid(eta)
    return p.clip(PROB_CLAMP, 1.0 - PROB_CLAMP, out=p)


def _log_likelihood(p: np.ndarray, y: np.ndarray) -> float:
    """Bernoulli log-likelihood sum(y log p + (1 - y) log(1 - p))."""
    terms = np.log(p)
    terms *= y
    log_q = np.negative(p)
    np.log1p(log_q, out=log_q)
    log_q *= 1.0 - y
    terms += log_q
    return float(terms.sum())


def interval_norms(b: np.ndarray, W_blocks: np.ndarray) -> np.ndarray:
    """L2 norm of the coefficient function restricted to each subinterval.

    Block j of the (M, d+1, d+1) stack acts on row j of ``_support_windows``.
    """
    window = b[_support_windows(*W_blocks.shape[:2])]
    return np.sqrt(np.maximum(
        np.einsum("ja,jab,jb->j", window, W_blocks, window), 0.0))


def _near_singular(H: np.ndarray) -> bool:
    """True when the Cholesky factorization H = R'R of the symmetric PSD H
    fails, or when the ratio of R's largest to smallest pivot exceeds
    ``_PIVOT_RATIO_LIMIT``.

    The squared pivot ratio is a lower bound on cond(H), so the check
    never fires where cond(H) <= 1e12, and it costs a fraction of an SVD.
    """
    try:
        pivots = np.linalg.cholesky(H).diagonal()
    except np.linalg.LinAlgError:
        return True
    return bool(pivots.max() > _PIVOT_RATIO_LIMIT * pivots.min())


def _likelihood_hessian(p: np.ndarray, U_augT: np.ndarray) -> np.ndarray:
    """U_aug' diag(p(1-p)) U_aug, from the transposed design U_augT, as
    the sum of S_i S_i' over the fixed column blocks S_i of
    S = U_augT sqrt(p(1-p)), added in block order.

    NumPy sends each S_i S_i' to BLAS as one symmetric rank-k update, so
    the result is exactly symmetric; with OpenBLAS 0.3.31 its bits are
    those of S_i'S_i on the same blocks taken as rows of the untransposed
    S. A whole-N product's bits change with the OpenBLAS thread count at
    N = 1000; a 256-column block's do not while U_aug has at most 96
    columns.
    """
    S = U_augT * np.sqrt(p * (1.0 - p))
    block = S[:, :_HESSIAN_BLOCK_ROWS]
    H = block @ block.T
    for start in range(_HESSIAN_BLOCK_ROWS, S.shape[1], _HESSIAN_BLOCK_ROWS):
        block = S[:, start:start + _HESSIAN_BLOCK_ROWS]
        H += block @ block.T
    return H


def _newton_solve(theta: np.ndarray, p: np.ndarray, UDU: np.ndarray,
                  U_aug: np.ndarray, y: np.ndarray,
                  P: np.ndarray) -> np.ndarray:
    """The Newton step at theta, whose clamped probabilities are p, with
    the likelihood Hessian UDU, built at p or at nearby weights, and the
    intercept-augmented penalty matrix P; it only reads UDU and P.

    The system is solved directly unless H is near-singular; then a
    least-squares pseudo-solve gives the minimum-norm step, where a direct
    solve would add an arbitrary component along H's near-null space that
    step-halving cannot catch (the objective is flat, or nearly, along it).
    """
    H = UDU + P
    if not np.isfinite(H).all():
        raise np.linalg.LinAlgError("non-finite Newton system")
    rhs = U_aug.T @ (y - p)
    rhs -= P @ theta
    if _near_singular(H):
        warnings.warn("ill-conditioned Newton system (Cholesky pivots "
                      "collapse); using pseudo-solve", RuntimeWarning,
                      stacklevel=2)
        return np.linalg.lstsq(H, rhs, rcond=None)[0]
    return np.linalg.solve(H, rhs)


def _relative_step(new: np.ndarray, old: np.ndarray) -> float:
    change = new - old
    np.abs(change, out=change)
    return float(change.max() / max(1.0, np.abs(old).max()))


@lru_cache(maxsize=4)
def _l1_quadrature(basis: BSplineBasis) -> tuple[np.ndarray, np.ndarray]:
    """Weights and basis rows of the 20-node Gauss-Legendre rule on each
    subinterval of ``basis``, read-only."""
    nodes, weights = _subinterval_gauss(basis, _L1_NODES)
    weights = weights.ravel()
    E = eval_basis_many(basis, nodes.ravel())
    weights.flags.writeable = E.flags.writeable = False
    return weights, E


class _Objective:
    """One fit's penalized problem (see the module docstring): its value,
    and the arrays and penalty matrix of each Newton step.

    ``U_aug`` is [1, U] and ``U_augT`` its C-contiguous transpose, from
    which the likelihood Hessian is built. At lambda > 0, ``basis`` and
    ``W_blocks`` give the L1 integral and W~*; at lambda = 0 both are left out.
    """

    def __init__(self, U, y, V, gamma, lam=0.0,
                 basis: BSplineBasis | None = None,
                 W_blocks: np.ndarray | None = None):
        self.y = np.asarray(y, dtype=np.float64)
        self.U_aug = np.column_stack([np.ones(U.shape[0]), U])
        self.U_augT = np.ascontiguousarray(self.U_aug.T)
        self.V_star = np.zeros((V.shape[0] + 1,) * 2)
        self.V_star[1:, 1:] = gamma * V
        self.lam = lam
        self._half_lam = 0.5 * lam
        if lam > 0.0:
            T, M = basis.domain_end, basis.interior_interval_count
            self._l1_w, self._l1_E = _l1_quadrature(basis)
            self._W_blocks = W_blocks
            self._lqa_scale = self._half_lam * np.sqrt(T / M)

    def l1(self, b: np.ndarray) -> float:
        values = self._l1_E @ b
        np.abs(values, out=values)
        return float(self._l1_w @ values)

    def evaluate(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """The objective at theta and its clamped probabilities."""
        p = clamped_probs(self.U_aug @ theta)
        value = -_log_likelihood(p, self.y) + 0.5 * theta @ self.V_star @ theta
        if self.lam > 0.0:
            value += self._half_lam * self.l1(theta[1:])
        return value, p

    def lqa_matrix(self, b: np.ndarray) -> np.ndarray:
        """W~* at b, in a new array (lambda > 0 only)."""
        coef = 1.0 / np.maximum(interval_norms(b, self._W_blocks),
                                _NORM_FLOOR)
        W = assemble_blocks(self._W_blocks, coef, pad=1)
        W *= self._lqa_scale
        return W

    def newton_penalty(self, theta: np.ndarray) -> np.ndarray:
        """P = V* + W~* of the Newton step at theta: a new array at
        lambda > 0, and V* itself at lambda = 0."""
        if self.lam > 0.0:
            P = self.lqa_matrix(theta[1:])
            P += self.V_star
            return P
        return self.V_star


def _descend(theta, objective, config, trace=None):
    """Newton iterations with step-halving on ``objective``; returns
    (theta, converged, iters).

    Each iterate is evaluated once: the probabilities of the accepted
    candidate are those its Newton step is built from. The likelihood
    Hessian is rebuilt only when its weights drift (see the module
    docstring).
    """
    U_aug, U_augT, y = objective.U_aug, objective.U_augT, objective.y
    obj, p = objective.evaluate(theta)
    if trace is not None:
        trace.append(obj)
    w0 = None
    for it in range(1, config.max_iterations + 1):
        w = p * (1.0 - p)
        if w0 is None or (np.abs(w - w0).max()
                          > _HESSIAN_DRIFT * w0.max()):
            UDU, w0 = _likelihood_hessian(p, U_augT), w
        step = _newton_solve(theta, p, UDU, U_aug, y,
                             objective.newton_penalty(theta))
        scale, accepted = 1.0, False
        for _ in range(_STEP_HALVING_MAX + 1):
            cand = theta + scale * step
            obj_c, p_c = objective.evaluate(cand)
            if obj_c <= obj + _DESCENT_SLACK:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            # no descent along the Newton direction: stationary up to
            # line-search resolution
            return theta, True, it
        rel = _relative_step(cand, theta)
        theta, obj, p = cand, obj_c, p_c
        if trace is not None:
            trace.append(obj)
        if rel < config.tolerance:
            return theta, True, it
    return theta, False, config.max_iterations


def fit_initial(U: np.ndarray, y: np.ndarray, V: np.ndarray,
                config: SolverConfig) -> tuple[np.ndarray, bool, int]:
    """Roughness-penalized logistic fit (sparsity penalty off).

    ``V`` is the roughness Gram matrix, weighted by ``config.gamma``.
    Returns the stacked (alpha, b) vector, a convergence flag, and the
    iteration count.
    """
    objective = _Objective(U, y, V, config.gamma)
    return _descend(np.zeros(objective.U_aug.shape[1]), objective, config)


def fit(U: np.ndarray, y: np.ndarray, basis: BSplineBasis,
        design: DesignMatrices, config: SolverConfig,
        initial: tuple[np.ndarray, bool, int] | None = None) -> FitResult:
    """Full SFLR fit: initialization, LQA Newton loop, thresholding, null mask.

    ``initial`` is a ``fit_initial`` result for the same U, y, V and
    ``config.gamma``. It does not depend on lambda, so ``tune`` computes
    it once per gamma and hands it to the fit of every lambda; without
    it, ``fit`` computes it.
    """
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

    if initial is None:
        initial = fit_initial(U, y, V, config)
    theta, conv0, it0 = initial

    objective = _Objective(U, y, V, config.gamma, config.lam, basis,
                           W_blocks)
    trace: list[float] = []
    if config.lam > 0.0:
        theta, converged, iters = _descend(theta, objective, config, trace)
    else:
        # no sparsity penalty: the initialization already solved the problem
        converged, iters = conv0, it0
        trace.append(objective.evaluate(theta)[0])

    if degenerate:
        converged = False

    alpha, b = float(theta[0]), theta[1:].copy()

    # threshold raw coefficients, then declare null subintervals by scaled
    # norm and zero every coefficient touching one (iterated to a fixpoint
    # so the mask and the coefficients stay consistent)
    b[np.abs(b) < _COEF_THRESHOLD] = 0.0
    h, windows = T / M, _support_windows(M, basis.degree + 1)
    while True:
        norms = interval_norms(b, W_blocks)
        null_mask = norms / np.sqrt(h) < _COEF_THRESHOLD
        touched = (b != 0.0) & np.isin(np.arange(b.size), windows[null_mask])
        if not touched.any():
            break
        b[touched] = 0.0

    theta_final = np.concatenate([[alpha], b])
    final_objective, p = objective.evaluate(theta_final)
    UDU = _likelihood_hessian(p, objective.U_augT)
    H = UDU + objective.V_star
    if config.lam > 0.0:
        H += objective.lqa_matrix(b)
    try:
        df = float(np.trace(np.linalg.solve(H, UDU)))
    except np.linalg.LinAlgError:
        df = float(np.trace(np.linalg.lstsq(H, UDU, rcond=None)[0]))

    return FitResult(b=b, alpha=alpha, null_mask=null_mask,
                     iterations=iters, converged=converged,
                     final_objective=final_objective,
                     loglik=_log_likelihood(p, y), df=df, lam=config.lam,
                     gamma=config.gamma, objective_trace=trace)
