import tracemalloc

import numpy as np
import pytest

from tempora import (DiscountVector, OperatorMatrix, adjoint,
                     builtin_operator, geometric_invariance_check,
                     invariant_structure, random_stream, uniform_vector,
                     verify_eigen)
from tempora.errors import (InvalidDelta, InvalidOperator, InvalidPermutation,
                            NoInvariantFound, NonConvergence)


def test_operator_validation():
    with pytest.raises(InvalidOperator):
        OperatorMatrix(np.array([[1.0, -0.1], [0.0, 1.0]]))
    with pytest.raises(InvalidOperator):
        OperatorMatrix(np.ones((2, 3)))
    for bad in (np.nan, np.inf, -np.inf, -5e-324):
        with pytest.raises(InvalidOperator, match="finite and >= 0"):
            OperatorMatrix([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(InvalidOperator):
        DiscountVector(np.array([0.5, 0.6]))
    with pytest.raises(InvalidOperator):
        DiscountVector(np.array([1.5, -0.5]))
    with pytest.raises(InvalidOperator, match="weight vector"):
        DiscountVector(np.full((2, 2), 0.25))


@pytest.mark.parametrize("call", [
    verify_eigen,
    lambda m, p: invariant_structure(m, start=p),
], ids=["verify_eigen", "invariant_structure-start"])
def test_a_vector_of_another_dimension_is_rejected(call):
    with pytest.raises(InvalidOperator, match="dimension mismatch"):
        call(OperatorMatrix(np.eye(3)), uniform_vector(2))


# ---------------------------------------------------------------------------
# adjoint
# ---------------------------------------------------------------------------

def test_adjoint_identity_and_cyclic():
    eye = OperatorMatrix(np.eye(4))
    assert np.array_equal(adjoint(eye).entries, np.eye(4))
    cyc = builtin_operator("cyclic_delay", 4)
    # transpose of a permutation matrix is its inverse
    assert np.array_equal(adjoint(cyc).entries @ cyc.entries, np.eye(4))


def test_adjoint_involution(rng):
    m = OperatorMatrix(rng.uniform(0.0, 2.0, (6, 6)))
    assert np.array_equal(adjoint(adjoint(m)).entries, m.entries)


def test_adjoint_inner_product_identity(rng):
    for _ in range(100):
        n = int(rng.integers(1, 8))
        m = OperatorMatrix(rng.uniform(0.0, 3.0, (n, n)))
        x = rng.uniform(-5.0, 5.0, n)
        p = rng.uniform(0.0, 1.0, n)
        lhs = float((m.entries @ x) @ p)
        rhs = float(x @ (adjoint(m).entries @ p))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# builtin truncations
# ---------------------------------------------------------------------------

def test_cyclic_delay_matrix():
    m = builtin_operator("cyclic_delay", 3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(m.entries @ x, [3.0, 1.0, 2.0])


def test_absorbing_delay_matrix():
    m = builtin_operator("absorbing_delay", 3)
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(m.entries @ x, [0.0, 1.0, 2.0])


def test_scaling_matrix():
    m = builtin_operator("scaling", 2, factor=2.0)
    assert np.array_equal(m.entries, 2.0 * np.eye(2))


#: sigma at n = 1, 2 and 5: an explicit mapping, and transposition pairs.
SIGMAS = {1: ([0], [[0, 0]]), 2: ([1, 0], [[0, 1]]),
          5: ([2, 0, 4, 1, 3], [[0, 4], [1, 2], [4, 3]])}


def loop_built(name, n, sigma=None, factor=None):
    """A builtin's matrix, set entry by entry as its docstring defines it;
    transposition pairs in ``sigma`` compose left to right."""
    mapping = sigma
    if sigma and isinstance(sigma[0], list):
        mapping = list(range(n))
        for i, j in sigma:
            mapping[i], mapping[j] = mapping[j], mapping[i]
    m = np.zeros((n, n))
    for i in range(n):
        if name == "cyclic_delay":
            m[i, (i - 1) % n] = 1.0
        elif name == "absorbing_delay" and i > 0:
            m[i, i - 1] = 1.0
        elif name == "permutation":
            m[i, mapping[i]] = 1.0
        elif name == "scaling":
            m[i, i] = factor
    return m


@pytest.mark.parametrize("n", [1, 2, 5])
def test_builtin_entries_equal_a_loop_built_matrix_bit_for_bit(n):
    mapping, pairs = SIGMAS[n]
    for name, kwargs in [("cyclic_delay", {}), ("absorbing_delay", {}),
                         ("scaling", {"factor": 2.5}), ("scaling", {"factor": 0.0}),
                         ("permutation", {"sigma": mapping}), ("permutation", {"sigma": pairs})]:
        got = builtin_operator(name, n, **kwargs).entries
        want = loop_built(name, n, **kwargs)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                         want.tobytes()), (name, kwargs)


def traced_peak(call):
    """Peak bytes traced while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, kwargs", [
    ("cyclic_delay", {}), ("absorbing_delay", {}),
    ("permutation", {"sigma": list(range(1024))[::-1]}), ("scaling", {"factor": 2.5})])
def test_adjoint_allocates_one_matrix_and_a_builtin_two(name, kwargs):
    # adjoint once copied the transpose, and OperatorMatrix copied the copy,
    # as it copied the array it had just converted from a list.
    n = 1024
    array = n * n * 8
    m = builtin_operator(name, n, **kwargs)
    assert traced_peak(lambda: adjoint(m)) <= 1.1 * array
    rows = m.entries.tolist()
    assert traced_peak(lambda: OperatorMatrix(rows)) <= 1.1 * array
    assert traced_peak(lambda: builtin_operator(name, n, **kwargs)) <= 2.1 * array


def test_permutation_matrix_and_validation():
    m = builtin_operator("permutation", 3, sigma=[1, 2, 0])
    x = np.array([10.0, 20.0, 30.0])
    assert np.array_equal(m.entries @ x, [20.0, 30.0, 10.0])
    with pytest.raises(InvalidPermutation):
        builtin_operator("permutation", 3, sigma=[0, 0, 1])
    with pytest.raises(InvalidPermutation):
        builtin_operator("permutation", 3, sigma=None)
    with pytest.raises(InvalidPermutation, match="acts on 2 indices, operator has 3"):
        builtin_operator("permutation", 3, sigma=[1, 0])
    with pytest.raises(InvalidOperator):
        builtin_operator("unknown_thing", 3)


# ---------------------------------------------------------------------------
# invariant_structure
# ---------------------------------------------------------------------------

def test_cyclic_delay_adjoint_gives_uniform():
    mstar = adjoint(builtin_operator("cyclic_delay", 8))
    res = invariant_structure(mstar)
    assert np.allclose(res.p.weights, 1.0 / 8.0, atol=1e-12)
    assert res.eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= 1e-10


def test_absorbing_delay_adjoint_collapses_to_present():
    mstar = adjoint(builtin_operator("absorbing_delay", 8))
    res = invariant_structure(mstar)
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.array_equal(res.p.weights, expected)
    assert res.eigenvalue == 0.0


def test_absorbing_delay_eigen_degenerate_at_every_size():
    # the only normalized eigenvector of the faithful truncation is e_0
    for n in (2, 3, 5, 13):
        mstar = adjoint(builtin_operator("absorbing_delay", n))
        res = invariant_structure(mstar)
        assert res.p.weights[0] == 1.0
        assert res.eigenvalue == 0.0


def test_scaling_operator_returns_start_with_lambda_two():
    mstar = OperatorMatrix(2.0 * np.eye(2))
    res = invariant_structure(mstar)
    assert np.allclose(res.p.weights, 0.5)
    assert res.eigenvalue == pytest.approx(2.0, abs=1e-12)
    # total mass expands: <1, T*(p)> = 2 > 1, the condition that breaks
    # preservation of improvements under T
    assert float(mstar.entries @ res.p.weights @ np.ones(2)) > 1.0


def test_permutation_needs_cesaro_averaging(rng):
    mstar = adjoint(builtin_operator("permutation", 5, sigma=[1, 2, 0, 4, 3]))
    start = DiscountVector(np.array([0.5, 0.3, 0.2, 0.0, 0.0]))
    with pytest.raises(NonConvergence) as err:
        invariant_structure(mstar, start=start, max_iter=500)
    assert err.value.residual is not None
    res = invariant_structure(mstar, start=start, cesaro_averaging=True)
    assert res.residual <= 1e-10
    assert res.eigenvalue == pytest.approx(1.0, abs=1e-12)
    w = res.p.weights
    assert np.allclose(w[:3], w[0], atol=1e-10)   # constant on cycle {0,1,2}
    assert np.allclose(w[3:], w[3], atol=1e-10)   # constant on cycle {3,4}


def test_verify_eigen_examples():
    eye = OperatorMatrix(np.eye(5))
    lam, res = verify_eigen(eye, uniform_vector(5))
    assert (lam, res) == (1.0, 0.0)

    cyc = adjoint(builtin_operator("cyclic_delay", 6))
    lam, res = verify_eigen(cyc, uniform_vector(6))
    assert lam == pytest.approx(1.0, abs=1e-15)
    assert res <= 1e-15

    perm = adjoint(builtin_operator("permutation", 5, sigma=[1, 2, 0, 4, 3]))
    p = DiscountVector(np.array([1 / 6, 1 / 6, 1 / 6, 1 / 4, 1 / 4]))
    lam, res = verify_eigen(perm, p)
    assert lam == pytest.approx(1.0, abs=1e-15)
    assert res <= 1e-15


def test_verify_eigen_rejects_an_overflowing_eigenvalue_quietly():
    # <1, M p> overflows: both the check and the solver raise, with no
    # numpy overflow warning, where the check used to return (inf, inf).
    m = OperatorMatrix(np.full((2, 2), 1e308))
    with pytest.raises(InvalidOperator, match="overflows"):
        verify_eigen(m, uniform_vector(2))
    with pytest.raises(InvalidOperator, match="overflows"):
        invariant_structure(m)
    # Just below the limit the eigenvalue is finite, and so is the residual.
    assert verify_eigen(OperatorMatrix(np.full((2, 2), 8e307)), uniform_vector(2)) == (1.6e308, 0.0)


def test_uniform_sits_in_every_permutation_eigen_set():
    # for a finite family of permutation operators, the intersection of
    # their invariant-vector sets is witnessed by the uniform vector; no
    # general intersection solver is attempted
    sigmas = [[1, 2, 0, 4, 3], [4, 3, 2, 1, 0], [0, 2, 1, 4, 3]]
    p = uniform_vector(5)
    for sigma in sigmas:
        mstar = adjoint(builtin_operator("permutation", 5, sigma=sigma))
        lam, res = verify_eigen(mstar, p)
        assert lam == pytest.approx(1.0, abs=1e-15)
        assert res <= 1e-15


def test_invariant_outputs_live_on_simplex(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        mstar = OperatorMatrix(rng.uniform(0.0, 1.0, (n, n)))
        res = invariant_structure(mstar)
        w = res.p.weights
        assert (w >= 0).all()
        assert abs(w.sum() - 1.0) <= 1e-12
        assert res.residual <= 1e-10
        assert res.eigenvalue >= 0.0


def test_kernel_branch_via_nilpotent_block():
    # strictly upper triangular: iteration dies, kernel element is e_0
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    m[0, 2] = 1.0
    res = invariant_structure(OperatorMatrix(m))
    assert res.eigenvalue == 0.0
    assert float(np.abs(m @ res.p.weights).sum()) <= 1e-10


def test_kernel_branch_returns_the_first_zero_column_exactly():
    # M p = (5e-16, 0) from the uniform start: below the 1e-14 mass guard
    # but above tol, so the kernel vertex e_0 (column 0 is zero) is returned
    # with residual exactly 0.
    res = invariant_structure(OperatorMatrix([[0.0, 1e-15], [0.0, 0.0]]), tol=1e-16)
    assert res.p.weights.tolist() == [1.0, 0.0]
    assert res.eigenvalue == 0.0 and res.residual == 0.0
    assert verify_eigen(OperatorMatrix([[0.0, 1e-15], [0.0, 0.0]]), res.p) == (0.0, 0.0)


def test_kernel_branch_without_a_zero_column_finds_nothing():
    # every column carries mass, so no simplex vector is killed by M; the
    # start is no eigenvector, and its step has mass 1e-15 > tol
    m = OperatorMatrix([[0.0, 1e-15], [1e-15, 0.0]])
    with pytest.raises(NoInvariantFound):
        invariant_structure(m, tol=1e-17, start=DiscountVector(np.array([0.25, 0.75])))


def test_builtin_dimension_is_bounded_before_allocation():
    from tempora.eigen import MAX_BUILTIN_DIM
    for name in ("cyclic_delay", "absorbing_delay", "permutation", "scaling"):
        with pytest.raises(InvalidOperator):
            builtin_operator(name, MAX_BUILTIN_DIM + 1, sigma=[0], factor=1.0)
    with pytest.raises(InvalidOperator):
        builtin_operator("cyclic_delay", 0)


def test_permutation_index_is_bounded_before_allocation():
    # A transposition index of 10^9 once built list(range(10^9 + 1)) before
    # the size check: tens of GB.
    tracemalloc.start()
    try:
        with pytest.raises(InvalidPermutation):
            builtin_operator("permutation", 2, sigma=[[0, 1000000000]])
        with pytest.raises(InvalidPermutation):
            builtin_operator("permutation", 2, sigma=[[0, 2]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    swap = builtin_operator("permutation", 2, sigma=[[0, 1]])
    assert swap.entries.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_no_invariant_in_kernel_branch_is_impossible_for_singular_start():
    # a matrix whose kernel misses the simplex never reaches the kernel
    # branch from the uniform start; it converges to a positive eigenvector
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    res = invariant_structure(OperatorMatrix(m))
    assert res.eigenvalue == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# geometric invariance witness
# ---------------------------------------------------------------------------

def test_geometric_invariance_examples(rng):
    x = random_stream(rng)
    assert geometric_invariance_check(x, 0.5) <= 1e-15
    from tempora import constant_stream
    assert geometric_invariance_check(constant_stream(1.0), 0.9) <= 1e-15
    worst = 0.0
    for _ in range(100):
        y = random_stream(rng)
        d = float(rng.uniform(0.0, 1.0 - 1e-12))
        worst = max(worst, geometric_invariance_check(y, d))
    assert worst <= 1e-12


@pytest.mark.parametrize("delta", [1.0, -0.1, float("nan")])
def test_geometric_invariance_check_rejects_a_factor_outside_the_unit_interval(delta):
    # A factor out of range once raised InvalidOperator.
    with pytest.raises(InvalidDelta, match="delta must lie in"):
        geometric_invariance_check(random_stream(np.random.default_rng(0)), delta)
