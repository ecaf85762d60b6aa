"""The numpy-only helpers against the scipy routines they replace, bit for bit."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomwall.quadrature import gauss_laguerre, pchip


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
