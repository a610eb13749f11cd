"""Finite-dimensional adjoints and invariant discount structures.

A positive linear operator on length-N coordinate truncations is stored as
a nonnegative matrix; its adjoint, acting on discount weightings, is the
transpose.  ``invariant_structure`` finds a normalized eigenvector on the
simplex by iterating the normalized map p -> M p / <1, M p> (the fixed
point satisfies M p = <1, M p> p, so the eigenvalue is read off as
lambda = <1, M p>, which keeps it nonnegative by positivity).  For
operators whose iterates cycle, such as permutations, a Cesaro-averaged
variant converges to the cycle-uniform invariant vector.

Two truncations of the one-period delay ship as builtins.  The absorbing
truncation is the faithful one, p -> (p_1, ..., p_{N-1}, 0); its only
normalized eigenvector is the mass-at-present vector e_0 with eigenvalue 0,
at every N, which documents that the geometric eigenvector family exists
only in the infinite-dimensional limit (see
:func:`geometric_invariance_check` for the closed-form witness).  The
cyclic truncation wraps around instead and is eigen-rich; its uniform
invariant vector is the finite stand-in for a patient, shift-invariant
weighting.

Iteration state is caller-local; callers may parallelize across operators
or starting vectors freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discounting import discounted_value
from .errors import (InvalidDelta, InvalidOperator, InvalidPermutation, NoInvariantFound,
                     NonConvergence)
from .streams import Stream, delay, permutation_mapping


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Nonnegative N x N matrix: the coordinate truncation of a positive
    linear operator."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InvalidOperator(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all() or (m < 0).any():
            raise InvalidOperator("matrix entries must be finite and >= 0")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class DiscountVector:
    """Nonnegative weights over N periods summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise InvalidOperator(f"expected a weight vector, got shape {w.shape}")
        if not np.isfinite(w).all() or (w < 0).any():
            raise InvalidOperator("weights must be finite and >= 0")
        if abs(w.sum() - 1.0) > 1e-12:
            raise InvalidOperator(f"weights must sum to 1, got {w.sum()!r}")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size


def uniform_vector(n: int) -> DiscountVector:
    return DiscountVector(np.full(n, 1.0 / n))


def adjoint(m: OperatorMatrix) -> OperatorMatrix:
    """The unique adjoint: <M x, p> = <x, adjoint(M) p> for all x, p.

    At finite dimension this is the transpose.  It passes the transposed
    view, which :class:`OperatorMatrix` copies once into a matrix of its own.
    """
    return OperatorMatrix(m.entries.T)


def _step(m: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(M p, lambda, ||M p - lambda p||_1) with lambda = <1, M p>, without a
    numpy overflow warning; raises InvalidOperator if lambda overflows."""
    with np.errstate(over="ignore"):
        q = m @ p
        lam = float(q.sum())
        if not np.isfinite(lam):
            raise InvalidOperator("<1, M p> overflows: the matrix entries are too large")
        return q, lam, float(np.abs(q - lam * p).sum())


def verify_eigen(mstar: OperatorMatrix, p: DiscountVector) -> tuple[float, float]:
    """Eigenvalue read-off and L1 residual for a candidate vector.

    Returns (lambda, residual) with lambda = <1, M p> and
    residual = ||M p - lambda p||_1; raises InvalidOperator if the
    dimensions differ or lambda overflows.
    """
    if p.dim != mstar.dim:
        raise InvalidOperator("dimension mismatch between matrix and vector")
    return _step(mstar.entries, p.weights)[1:]


@dataclass(frozen=True)
class EigenResult:
    p: DiscountVector
    eigenvalue: float
    residual: float
    iterations: int


def invariant_structure(mstar: OperatorMatrix, *, tol: float = 1e-10,
                        max_iter: int = 10 ** 5,
                        cesaro_averaging: bool = False,
                        start: DiscountVector | None = None) -> EigenResult:
    """Normalized eigenvector of a nonnegative matrix via fixed-point iteration.

    Iterates p <- M p / <1, M p> from the uniform start (or ``start``).
    With ``cesaro_averaging`` the convergence test is applied to the
    renormalized running mean of the iterates, which converges for periodic
    operators where the plain iteration cycles.  If <1, M p> underflows
    below 1e-14 the routine returns a simplex element of ker M with
    eigenvalue 0: the iterate itself when ``M p`` is within ``tol`` of 0,
    else the vertex of the first all-zero column of M.

    Raises:
        InvalidOperator: if <1, M p> overflows.
        NonConvergence: if the residual never drops below ``tol`` within
            ``max_iter`` iterations (the message carries the last residual).
        NoInvariantFound: if the zero-eigenvalue branch is reached but the
            simplex kernel is empty.
    """
    n = mstar.dim
    if start is None:
        p = np.full(n, 1.0 / n)
    else:
        if start.dim != n:
            raise InvalidOperator("start vector dimension mismatch")
        p = start.weights.copy()
    running_sum = p.copy()
    residual = np.inf
    for it in range(1, max_iter + 1):
        # With averaging on, the running mean is the primary candidate, but
        # the plain iterate stays in play so geometrically convergent cases
        # do not wait on the O(1/k) average.
        candidates = [p]
        if cesaro_averaging:
            candidates.insert(0, running_sum / running_sum.sum())
        for cand in candidates:
            q, lam, residual = _step(mstar.entries, cand)
            if residual <= tol:
                return EigenResult(DiscountVector(cand), lam, residual, it)
        # The last candidate is p itself, so q is the step M p, and
        # lam = <1, M p> is its mass, which is also ||M p||_1 as M p >= 0.
        if lam < 1e-14:
            if lam > tol:
                # For M, v >= 0, M v = 0 exactly when v sits on all-zero
                # columns of M: the kernel vertex is e_j, j the first one.
                zero = np.flatnonzero(~mstar.entries.any(axis=0))
                if zero.size == 0:
                    raise NoInvariantFound("simplex kernel of the operator is empty")
                p = np.zeros(n)
                p[zero[0]] = 1.0
            return EigenResult(DiscountVector(p), 0.0, 0.0, it)
        p = q / lam
        running_sum += p
    raise NonConvergence(
        f"no invariant vector within {max_iter} iterations "
        f"(last residual {residual:.3e})", residual=residual)


# ---------------------------------------------------------------------------
# builtin operator truncations
# ---------------------------------------------------------------------------

#: Largest builtin dimension: a dense float64 matrix of 4096^2 entries is
#: 128 MiB, and the solver holds a few copies of it.
MAX_BUILTIN_DIM = 4096


def builtin_operator(name: str, n: int, *, sigma=None, factor: float | None = None) -> OperatorMatrix:
    """Named truncations acting on streams' leading N coordinates.

    ``cyclic_delay``     (x_0..x_{N-1}) -> (x_{N-1}, x_0, .., x_{N-2})
    ``absorbing_delay``  (x_0..x_{N-1}) -> (0, x_0, .., x_{N-2})
    ``permutation``      x -> (x_{sigma(0)}, .., x_{sigma(N-1)})
    ``scaling``          x -> factor * x

    The matrix is dense, so ``n`` is capped at :data:`MAX_BUILTIN_DIM`.  It
    is built in one n x n array, which :class:`OperatorMatrix` copies: two
    at the peak.
    """
    if not 1 <= n <= MAX_BUILTIN_DIM:
        raise InvalidOperator(f"dimension must lie in [1, {MAX_BUILTIN_DIM}], got {n}")
    m = np.zeros((n, n))
    rows = np.arange(n)
    if name == "cyclic_delay":
        m[rows, rows - 1] = 1.0
    elif name == "absorbing_delay":
        m[rows[1:], rows[:-1]] = 1.0
    elif name == "permutation":
        if sigma is None:
            raise InvalidPermutation("permutation operator needs sigma")
        mapping = permutation_mapping(sigma, bound=n)
        if len(mapping) != n:
            raise InvalidPermutation(
                f"sigma acts on {len(mapping)} indices, operator has {n}")
        m[rows, mapping] = 1.0
    elif name == "scaling":
        if factor is None or not 0 <= factor < np.inf:
            raise InvalidOperator(f"scaling operator needs a finite factor >= 0, got {factor!r}")
        np.fill_diagonal(m, float(factor))
    else:
        raise InvalidOperator(f"unknown builtin operator {name!r}")
    return OperatorMatrix(m)


def geometric_invariance_check(x: Stream, delta: float) -> float:
    """|D_delta((0, x)) - delta * D_delta(x)|, in closed form.

    The identity holds exactly for geometric weightings on the full
    sequence space; no finite truncation of the delay operator can exhibit
    it, which is why the absorbing truncation above is eigen-degenerate.
    """
    if not 0.0 <= delta < 1.0:
        raise InvalidDelta(f"delta must lie in [0, 1), got {delta}")
    return abs(discounted_value(delay(x), delta) - delta * discounted_value(x, delta))
