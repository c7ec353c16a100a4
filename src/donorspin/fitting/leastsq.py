"""Damped least-squares with box bounds, standard errors and conditioning.

The solver is a Levenberg-style loop with Marquardt scaling: the normal
equations are damped by lambda * diag(J^T J), lambda shrinking tenfold on
every accepted step and growing tenfold on every rejection. Bounds are an
active set: each iteration holds every parameter that sits on a bound
while its descent direction -gradient points out of the box, and solves
the damped system over the free parameters only. The step is clipped onto
the box and accepted only if it does not increase the cost, so the
accepted-cost history is monotone by construction.

A parameter held fixed is a zero-width box, lo = hi. Its Jacobian column
is 0, so it never moves and is never identifiable. Identifiability is one
rule, at each parameter's own scale: a parameter whose residual change
over its difference step, ||J_i|| max(1e-6 |x_i|, 1e-8), is below
NULL_COLUMN_REL of the largest is unidentifiable. standard_errors and
condition_number leave it out and work on unit-norm columns.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

MAX_ITERATIONS = 500
STEP_TOL = 1e-10          # relative parameter step
COST_TOL = 1e-12          # relative cost decrease
LAMBDA_LIMIT = 1e12       # no descent below this damping: stationary point
NULL_COLUMN_REL = 1e-10   # residual change per step below this is unidentifiable


@dataclasses.dataclass(frozen=True)
class FitResult:
    """Named parameters with standard errors for the identifiable ones.

    std_errors is populated only for converged fits, and omits the
    unidentifiable parameters and those held fixed. fitted is the model
    function at the reported params, at the samples in the order given;
    it takes no part in ==.
    """

    params: dict[str, float]
    std_errors: dict[str, float]
    residual_norm: float
    converged: bool
    n_iterations: int
    cost_history: tuple[float, ...]
    fitted: np.ndarray = dataclasses.field(compare=False, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.residual_norm):
            raise ValueError("residual norm must be finite")


@dataclasses.dataclass(frozen=True)
class _Solution:
    x: np.ndarray
    converged: bool
    n_iterations: int
    cost_history: tuple[float, ...]
    jacobian: np.ndarray
    residual: np.ndarray


def _difference_steps(x: np.ndarray) -> np.ndarray:
    """Each parameter's finite-difference step; the absolute floor keeps
    it sane for parameters sitting at 0."""
    return np.maximum(1e-6 * np.abs(x), 1e-8)


def _numeric_jacobian(
    residual: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    n_rows: int | None = None,
) -> np.ndarray:
    """Central-difference Jacobian, one-sided against an active bound.

    n_rows is the residual's length; a caller that holds a residual passes
    it and saves one evaluation.
    """
    if n_rows is None:
        n_rows = len(residual(x))
    jac = np.empty((n_rows, len(x)))
    for i, h in enumerate(_difference_steps(x)):
        x_plus = x.copy()
        x_minus = x.copy()
        x_plus[i] = min(x[i] + h, hi[i])
        x_minus[i] = max(x[i] - h, lo[i])
        width = x_plus[i] - x_minus[i]
        if width == 0.0:
            jac[:, i] = 0.0
        else:
            jac[:, i] = (residual(x_plus) - residual(x_minus)) / width
    return jac


def levenberg_fit(
    residual: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> _Solution:
    """Minimize ||residual(x)||^2 over the box [lo, hi] starting at x0."""
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = residual(x)
    cost = float(r @ r)
    history = [cost]
    lam = 1e-3
    converged = False
    iteration = 0
    jac = _numeric_jacobian(residual, x, lo, hi, len(r))

    while iteration < MAX_ITERATIONS and not converged:
        iteration += 1
        gradient = jac.T @ r
        # active set: hold a parameter on a bound that descent would push out
        free = ~(((x <= lo) & (gradient > 0)) | ((x >= hi) & (gradient < 0)))
        normal = jac[:, free].T @ jac[:, free]
        scale = np.diag(normal).copy()
        scale = np.maximum(scale, scale.max(initial=1e-300) * 1e-14)
        step = np.zeros_like(x)

        while True:
            damped = normal + lam * np.diag(scale)
            try:
                step[free] = np.linalg.solve(damped, -gradient[free])
            except np.linalg.LinAlgError:
                step[free] = np.linalg.lstsq(damped, -gradient[free], rcond=None)[0]
            x_new = np.clip(x + step, lo, hi)
            r_new = residual(x_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                step_rel = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-300)
                cost_rel = (cost - cost_new) / max(cost, 1e-300)
                x, r, cost = x_new, r_new, cost_new
                history.append(cost)
                lam = max(lam / 10.0, 1e-12)
                if step_rel < STEP_TOL or cost_rel < COST_TOL:
                    converged = True
                break
            lam *= 10.0
            if lam > LAMBDA_LIMIT:
                # no direction decreases the cost: stationary to precision
                converged = True
                history.append(cost)
                break
        jac = _numeric_jacobian(residual, x, lo, hi, len(r))

    return _Solution(
        x=x,
        converged=converged,
        n_iterations=iteration,
        cost_history=tuple(history),
        jacobian=jac,
        residual=r,
    )


def _unit_normal(solution: _Solution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mask, norms, U^T U) of the identifiable Jacobian columns, U being
    those columns scaled to unit norm."""
    col_norms = np.linalg.norm(solution.jacobian, axis=0)
    change = col_norms * _difference_steps(solution.x)
    identifiable = change > NULL_COLUMN_REL * max(change.max(), 1e-300)
    norms = col_norms[identifiable]
    unit = solution.jacobian[:, identifiable] / norms
    return identifiable, norms, unit.T @ unit


def condition_number(solution: _Solution) -> float:
    """cond(U^T U) over the identifiable columns, each scaled to unit norm.

    Unit columns take the parameters' units out of the number, so it
    measures only how nearly parallel the identifiable directions are.
    """
    return float(np.linalg.cond(_unit_normal(solution)[2]))


def standard_errors(solution: _Solution, names: list[str]) -> dict[str, float]:
    """sigma^2 (J^T J)^-1 errors over the identifiable parameter subset,
    inverted on unit-norm columns: (J^T J)^-1 = D^-1 (U^T U)^-1 D^-1."""
    if not solution.converged:
        return {}
    m = solution.jacobian.shape[0]
    identifiable, norms, normal = _unit_normal(solution)
    k = len(norms)
    if k == 0 or m <= k:
        return {}
    cost = float(solution.residual @ solution.residual)
    sigma_sq = cost / (m - k)
    try:
        variances = sigma_sq * np.diag(np.linalg.inv(normal)) / norms**2
    except np.linalg.LinAlgError:
        return {}
    if np.any(variances < 0):
        return {}
    kept = [name for name, keep in zip(names, identifiable) if keep]
    return {name: float(error) for name, error in zip(kept, np.sqrt(variances))}


def build_result(solution: _Solution, names: list[str], fitted: np.ndarray) -> FitResult:
    """Package a solution with named parameters, standard errors and the
    fitted curve."""
    return FitResult(
        params={name: float(v) for name, v in zip(names, solution.x)},
        std_errors=standard_errors(solution, names),
        residual_norm=float(np.linalg.norm(solution.residual)),
        converged=solution.converged,
        n_iterations=solution.n_iterations,
        cost_history=solution.cost_history,
        fitted=fitted,
    )
