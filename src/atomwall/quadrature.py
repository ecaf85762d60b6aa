"""Numerical helpers of the dielectric, polarizability and Lifshitz cores.

Cached Gaussian quadrature rules, and ``pchip``, the monotone cubic
interpolant that reads tabulated alpha(i xi).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _golub_welsch(diagonal, off_diagonal, mu0: float, anti: bool):
    """Nodes and weights of the rule of a Jacobi matrix (Golub and Welsch, 1969).

    ``anti`` scales the last off-diagonal by sqrt(2): the anti-Gaussian rule
    of Laurie (Math. Comp. 65, 739 (1996)), whose n + 1 nodes err by minus the
    error of the n-node Gauss rule, to leading order.  The symmetric
    eigensolve stays stable up to the 512 cap.
    """
    if anti:
        off_diagonal[-1] *= math.sqrt(2.0)
    jacobi = np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = mu0 * vectors[0, :] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def gauss_laguerre(order: int, anti: bool = False):
    """Gauss (or anti-Gauss, order + 1 nodes) nodes and weights for ``int_0^inf e^{-t} f(t) dt``.

    The Jacobi matrix has diagonal 2i + 1 and off-diagonals i; numpy's
    ``laggauss`` returns NaN weights from order 256 on.
    """
    i = np.arange(order + anti, dtype=float)
    return _golub_welsch(2.0 * i + 1.0, i[1:], 1.0, anti)


@lru_cache(maxsize=None)
def gauss_legendre(order: int, anti: bool = False):
    """Gauss (or anti-Gauss, order + 1 nodes) nodes and weights on [-1, 1].

    The Jacobi matrix has diagonal 0 and off-diagonals i/sqrt(4i^2 - 1).
    """
    i = np.arange(1.0, order + anti)
    return _golub_welsch(np.zeros(order + anti), i / np.sqrt(4.0 * i * i - 1.0), 2.0, anti)


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
