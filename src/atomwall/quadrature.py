"""Numerical helpers of the dielectric, polarizability and Lifshitz cores.

Cached Gaussian quadrature rules, and ``pchip``, the monotone cubic
interpolant that reads tabulated alpha(i xi).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@lru_cache(maxsize=None)
def gauss_laguerre(order: int):
    """Nodes and weights for ``int_0^inf e^{-t} f(t) dt``.

    Built by Golub-Welsch from the Jacobi matrix of the Laguerre polynomials
    (diagonal 2i+1, off-diagonals i).  The symmetric eigensolve stays stable
    up to the 512 cap, where ``numpy.polynomial.laguerre.laggauss`` returns
    NaN weights from order 256 on.
    """
    i = np.arange(order)
    jacobi = np.zeros((order, order))
    jacobi.flat[::order + 1] = 2.0 * i + 1.0
    jacobi.flat[1::order + 1] = i[1:]
    jacobi.flat[order::order + 1] = i[1:]
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = vectors[0, :] ** 2  # first-moment normalization mu_0 = 1
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """Nodes and weights on [-1, 1]."""
    nodes, weights = leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _end_slope(h0, h1, m0, m1):
    """One-sided three-point end slope, held to the shape of the end segment."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y):
    """Monotone piecewise cubic through (x, y), x strictly increasing.

    Fritsch & Carlson, SIAM J. Numer. Anal. 17, 238 (1980): interior slopes
    are the weighted harmonic mean of the adjacent secants, 0 where those
    differ in sign or one is 0.  The arithmetic is that of
    ``scipy.interpolate.PchipInterpolator``, so the values agree bit for bit.
    Returns a function of an array of points; it extrapolates the end cubics.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        d = np.repeat(m, 2)  # a straight line
    else:
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d = np.concatenate(([_end_slope(h[0], h[1], m[0], m[1])], inner,
                            [_end_slope(h[-1], h[-2], m[-1], m[-2])]))
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    # + 0.0 turns a -0.0 into 0.0, as scipy's sum starting from 0.0 does
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1] + 0.0

    def evaluate(q):
        i = np.clip(np.searchsorted(x, q, side="right") - 1, 0, x.size - 2)
        s = q - x[i]
        s2 = s * s
        return c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s)

    return evaluate
