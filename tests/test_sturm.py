"""quantum._sturm on its own: the count and the slope of its pivots at
given points, against numpy.linalg.eigvalsh."""

import numpy as np
import pytest

import correlpoly.quantum as q


@pytest.mark.parametrize("n", range(1, 13))
def test_count_and_slope_match_eigvalsh(n):
    # odd n meets in the middle through the +inf first row of _pivot_rows,
    # even n without it
    rng = np.random.default_rng(n)
    k, w = 3, 40
    d = rng.normal(size=(k, n))
    e = rng.normal(size=(k, n - 1))
    t = np.zeros((k, n, n))
    i = np.arange(n)
    t[:, i, i] = d
    t[:, i[1:], i[:-1]] = t[:, i[:-1], i[1:]] = e
    eig = np.linalg.eigvalsh(t)[:, None, :]
    x = rng.uniform(-4, 4, size=(k, w))
    rows = q._pivot_rows(d, e)
    below = np.sum(eig < x[..., None], axis=-1)
    assert np.array_equal(q._sturm(rows, x), below)
    count, slope = q._sturm(rows, x, newton=True)
    assert np.array_equal(count, below)
    # d/dx log|det(T - xI)| = sum_i 1/(x - eig_i)
    np.testing.assert_allclose(slope, np.sum(1 / (x[..., None] - eig), axis=-1), rtol=1e-9)
