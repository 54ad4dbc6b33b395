"""Shared quadrature and smoothing helpers.

Composite Gauss rules are assembled on caller-supplied breakpoints so that
piecewise-smooth integrands (dense integrator output) are integrated segment
by segment.  Endpoint-weighted rules handle integrands with a rho**(lam-1)
factor exactly in the singular part.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


@lru_cache(maxsize=64)
def _gl_rule(n: int):
    x, w = roots_legendre(n)
    return x, w


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
def _gj_rule(n: int, beta: float):
    # weight (1+x)**beta on [-1, 1], alpha = 0
    x, w = roots_jacobi(n, 0.0, beta)
    return x, w


def gauss_jacobi_left(length: float, lam: float, n: int = 24):
    """Rule for integrals of u**(lam-1) * F(u) over [0, length], F smooth.

    Returns (nodes u_i, weights w_i) such that the integral is
    sum_i w_i F(u_i); the singular factor is absorbed exactly.
    """
    x, w = _gj_rule(n, lam - 1.0)
    half = 0.5 * length
    u = half * (1.0 + x)
    return u, w * half**lam


def smoothstep(t: float) -> float:
    """Quintic C2 step: 0 for t <= 0, 1 for t >= 1."""
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
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


def poly_bump_dt(t):
    q = _bump_base(t)
    return 12.0 * q * q * (1.0 - 2.0 * t)
