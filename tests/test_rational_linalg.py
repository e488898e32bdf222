"""Exact solver checks: the sparse column solver against A x == v."""

import random
from fractions import Fraction

import pytest

from parafock.rational_linalg import build_column_solver, matrix_rank


def apply(columns, x):
    """A x as a sparse dict, zero entries dropped."""
    out = {}
    for col, c in zip(columns, x):
        for k, v in col.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def dense(columns, keys, extra=None):
    """Rows of A (and of [A | extra] when extra is given) over keys."""
    cols = columns + ([extra] if extra is not None else [])
    return [[Fraction(col.get(k, 0)) for col in cols] for k in keys]


def test_dependent_columns_raise():
    cols = [{"a": 1, "b": 2}, {"b": 1, "c": -1}]
    cols.append({"a": 1, "b": 4, "c": -2})  # cols[0] + 2 * cols[1]
    with pytest.raises(ValueError):
        build_column_solver(cols, ["a", "b", "c"])
    with pytest.raises(ValueError):
        build_column_solver([{"a": 1}, {}], ["a"])


def test_vector_outside_span_returns_none():
    solve = build_column_solver([{"a": 1, "b": 1}, {"c": 2}], ["a", "b", "c"])
    assert solve({"a": 1}) is None
    assert solve({"a": 1, "b": 1, "d": 1}) is None
    assert solve({"a": 3, "b": 3, "c": 1}) == [3, Fraction(1, 2)]


def test_solution_is_fraction_with_signs():
    solve = build_column_solver([{"a": 2, "b": 1}, {"b": 3}], ["b", "a"])
    for vec, want in (({"a": -4, "b": 1}, [-2, 1]), ({}, [0, 0])):
        x = solve(vec)
        assert x == want
        assert all(type(c) is Fraction for c in x)


@pytest.mark.parametrize("seed", range(12))
def test_random_sparse_systems(seed):
    rng = random.Random(seed)
    nrows = rng.randint(1, 9)
    ncols = rng.randint(1, nrows)
    keys = [(rng.randint(0, 1), i) for i in range(nrows)]
    rng.shuffle(keys)
    columns = []
    for _ in range(ncols):
        support = rng.sample(keys, rng.randint(1, min(3, nrows)))
        columns.append({k: rng.choice([-3, -2, -1, 1, 2, 5]) for k in support})
    rank = matrix_rank(dense(columns, keys))
    if rank < ncols:
        with pytest.raises(ValueError):
            build_column_solver(columns, keys)
        return
    solve = build_column_solver(columns, keys)
    for _ in range(10):
        # a vector in the span, solved back to its own coefficients
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in columns]
        assert solve(apply(columns, x)) == x
        # an arbitrary sparse vector: either solved exactly or outside the span
        v = {k: rng.randint(-3, 3) for k in rng.sample(keys, rng.randint(1, nrows))}
        got = solve(v)
        if got is None:
            assert matrix_rank(dense(columns, keys, v)) == ncols + 1
        else:
            assert apply(columns, got) == {k: c for k, c in v.items() if c}
