"""Shared quadrature and smoothing helpers.

Composite Gauss rules are assembled on caller-supplied breakpoints so that
piecewise-smooth integrands (dense integrator output) are integrated segment
by segment.  Endpoint-weighted rules handle integrands with a rho**(lam-1)
factor exactly in the singular part.

The Gauss-Legendre and Gauss-Jacobi rules come from the eigenvalues of the
Jacobi matrix (Golub & Welsch, *Math. Comp.* 23, 1969), polished as
scipy's ``roots_legendre`` / ``roots_jacobi`` do: one Newton step on the
three-term recurrence, weights from P_{n-1} P'_n, normalized to the
weight's integral.  The tests pin them to scipy's rules: the nodes agree
to the bit and the weights to a few ulps.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _legendre(n: int, x: np.ndarray) -> np.ndarray:
    """P_n(x) by the recurrence for P_n - P_{n-1}."""
    if n == 0:
        return np.ones_like(x)
    d, p = x - 1, x.copy()
    for kk in range(n - 1):
        k = kk + 1.0
        d = ((2 * k + 1) / (k + 1)) * (x - 1) * p + (k / (k + 1)) * d
        p = p + d
    return p


def _jacobi(n: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """P_n^(a,b)(x) / binom(n + a, n) by the recurrence for the
    differences of successive terms, for n >= 1."""
    d = (a + b + 2) * (x - 1) / (2 * (a + 1))
    p = d + 1
    for kk in range(n - 1):
        k = kk + 1.0
        t = 2 * k + a + b
        d = ((t * (t + 1) * (t + 2)) * (x - 1) * p
             + 2 * k * (k + b) * (t + 2) * d) \
            / (2 * (k + a + 1) * (k + a + b + 1) * t)
        p = d + p
    return p


def _golub_welsch(n: int, diag, off, f, df, mu0: float, symmetric: bool):
    """Nodes and weights of the n-point rule whose orthonormal recurrence
    has the diagonal ``diag`` and off-diagonal ``off``; f(m, x) is the
    m-th orthogonal polynomial, df(x) the derivative of the n-th, and mu0
    the integral of the weight."""
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jac)
    dy = df(x)
    x -= f(n, x) / dy
    # P_{n-1} and P'_n may be very large or small: scale each by the
    # geometric mean of its extremes before taking the product
    fm = f(n - 1, x)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.)
    w = 1.0 / (fm * dy)
    if symmetric:
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
    w *= mu0 / w.sum()
    return x, w


@lru_cache(maxsize=64)
def _gl_rule(n: int):
    """n-point Gauss-Legendre rule on [-1, 1]."""
    k = np.arange(1, n, dtype=float)
    return _golub_welsch(
        n, np.zeros(n), k * np.sqrt(1.0 / (4 * k * k - 1)),
        _legendre,
        lambda x: (-n * x * _legendre(n, x)
                   + n * _legendre(n - 1, x)) / (1 - x ** 2),
        2.0, True)


def gauss_nodes(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _gl_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def panel_gauss(lo, hi, n: int):
    """n-point Gauss-Legendre rule on each panel [lo[k], hi[k]].

    Returns (nodes, weights), both of shape (len(lo), n).
    """
    x, w = _gl_rule(n)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * x, half[:, None] * w


def composite_gauss(breaks, a: float, b: float, n: int):
    """Composite Gauss-Legendre rule on [a, b] split at interior breakpoints.

    ``breaks`` is an increasing array; pieces of [a, b] between consecutive
    breakpoints each receive an n-point rule.  Returns (nodes, weights).
    """
    breaks = np.asarray(breaks, dtype=float)
    if b <= a:
        return np.empty(0), np.empty(0)
    cuts = np.concatenate(([a], breaks[(breaks > a) & (breaks < b)], [b]))
    keep = cuts[1:] > cuts[:-1]
    nodes, weights = panel_gauss(cuts[:-1][keep], cuts[1:][keep], n)
    return nodes.ravel(), weights.ravel()


@lru_cache(maxsize=256)
def _gj_rule(beta: float):
    """24-point Gauss-Jacobi rule for the weight (1 + x)**beta on [-1, 1],
    beta > -1 (Jacobi parameters alpha = 0, beta)."""
    n = 24
    k = np.arange(n, dtype=float)
    diag = np.where(k == 0, beta / (2 + beta),
                    beta * beta / ((2.0 * k + beta) * (2.0 * k + beta + 2)))
    k = k[1:]
    off = (2.0 / (2.0 * k + beta)
           * np.sqrt(k * (k + beta) / (2 * k + beta + 1))
           * np.where(k == 1, 1.0,
                      np.sqrt(k * (k + beta) / (2.0 * k + beta - 1))))
    # d/dx P_n^(0,b) = (n + b + 1)/2 P_{n-1}^(1,b+1), binom(n, n-1) = n;
    # the weight's integral 2**(b+1) B(1, b+1) is 2**(b+1) / (b+1)
    return _golub_welsch(
        n, diag, off, lambda m, x: _jacobi(m, 0.0, beta, x),
        lambda x: 0.5 * (n + beta + 1)
        * (n * _jacobi(n - 1, 1.0, beta + 1, x)),
        2.0 ** (beta + 1) / (beta + 1), False)


def gauss_jacobi_left(length: float, lam: float):
    """24-point rule for integrals of u**(lam-1) * F(u) over [0, length],
    F smooth.

    Returns (nodes u_i, weights w_i) such that the integral is
    sum_i w_i F(u_i); the singular factor is absorbed exactly.
    """
    x, w = _gj_rule(lam - 1.0)
    half = 0.5 * length
    u = half * (1.0 + x)
    return u, w * half**lam


def smoothstep(t):
    """Quintic C2 step: 0 for t <= 0, 1 for t >= 1.  Takes a float or an
    array."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _bump_base(t):
    """4 t (1 - t) on [0, 1] and 0 outside, for floats or arrays."""
    q = 4.0 * t * (1.0 - t)
    return 0.5 * (q + abs(q))   # max(q, 0), exact, for floats and arrays


def poly_bump(t):
    """C2 bump on [0, 1], vanishing to third order at both ends, peak 1.

    Takes a float or an array.
    """
    return _bump_base(t) ** 3


def poly_bump_jet(t):
    """:func:`poly_bump` and its first and second t-derivatives, from one
    :func:`_bump_base`.  The second derivative is 0 outside [0, 1] and
    continuous, with corners at both ends.  Takes a float or an array."""
    q = _bump_base(t)
    u = 1.0 - 2.0 * t
    return q ** 3, 12.0 * q * q * u, q * (96.0 * u * u - 24.0 * q)
