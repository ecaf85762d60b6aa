"""The numpy-only helpers against the scipy routines they replace, bit for bit."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomwall.quadrature import gauss_laguerre, gauss_legendre, pchip


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, atomwall; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("order", [32, 64, 128, 256, 512])
def test_gauss_laguerre_equals_tridiagonal_eigensolve(order):
    eigh_tridiagonal = pytest.importorskip("scipy.linalg").eigh_tridiagonal
    nodes, vectors = eigh_tridiagonal(2.0 * np.arange(order) + 1.0, np.arange(1.0, order))
    got_nodes, got_weights = gauss_laguerre(order)
    assert np.array_equal(got_nodes, nodes)
    assert np.array_equal(got_weights, vectors[0, :] ** 2)


# int t^k e^-t over [0, inf) and int x^k over [-1, 1]
_MOMENTS = {gauss_laguerre: lambda k: float(math.factorial(k)),
            gauss_legendre: lambda k: 2.0 / (k + 1) if k % 2 == 0 else 0.0}


@pytest.mark.parametrize("rule", list(_MOMENTS), ids=lambda r: r.__name__)
@pytest.mark.parametrize("order", [4, 8, 12, 16])
def test_anti_gauss_errs_by_minus_the_gauss_error(rule, order):
    # Laurie (1996): the n + 1 anti-Gauss nodes give 2 I[p] - G_n[p] for degree <= 2n + 1
    (x, w), (x_anti, w_anti) = rule(order), rule(order, True)
    assert x_anti.size == order + 1
    for k in (2 * order - 1, 2 * order, 2 * order + 1):
        exact = _MOMENTS[rule](k)
        gauss, anti = w @ x ** k, w_anti @ x_anti ** k
        scale = max(abs(exact), 1e-300) if exact else 1.0
        assert abs(anti - (2.0 * exact - gauss)) <= 1e-13 * scale, k
    # and Gauss itself misses degree 2n by far more
    assert abs(w @ x ** (2 * order) / _MOMENTS[rule](2 * order) - 1.0) > 1e-10


@pytest.mark.parametrize("order", [8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512])
def test_anti_gauss_nodes_lie_inside_the_interval(order):
    t, _ = gauss_laguerre(order, True)
    x, w = gauss_legendre(order, True)
    assert t.min() > 0.0
    assert -1.0 < x.min() and x.max() < 1.0 and w.min() > 0.0


# flat runs and sign changes come from the few exact values
_Y = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 2.0]), st.floats(-1e3, 1e3))


@pytest.mark.parametrize("fewest,most", [(2, 2), (3, 3), (4, 40)])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), monotone=st.booleans())
def test_pchip_equals_scipy(fewest, most, data, monotone):
    interpolator = pytest.importorskip("scipy.interpolate").PchipInterpolator
    n = data.draw(st.integers(fewest, most))
    start = data.draw(st.floats(-1e3, 1e3))
    x = start + np.cumsum(data.draw(st.lists(st.floats(1e-2, 1e2), min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(_Y, min_size=n, max_size=n)))
    if monotone:
        y = np.sort(y)
    inside = data.draw(st.lists(st.floats(x[0], x[-1]), max_size=20))
    # the knots, both ends, points between them and beyond either end
    q = np.concatenate([x, inside, [x[0] - 1.0, x[-1] + 1.0]])
    with np.errstate(over="ignore"):  # scipy's slopes of subnormal steps
        expected = [float(v).hex() for v in interpolator(x, y)(q)]
    assert [float(v).hex() for v in pchip(x, y)(q)] == expected
