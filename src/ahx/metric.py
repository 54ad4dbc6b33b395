"""Boundary metric families for asymptotically hyperbolic metrics in normal form.

A family describes g = (d rho**2 + h_rho) / rho**2 near (or on all of) a
manifold-with-boundary through the rho-dependent boundary metric h_rho
and its first and second derivatives in rho and y.  Every family is
diagonal, with h_kk a function of (rho, y_k) only, and is given by one
profile per coordinate returning the six entries h_kk, dh_kk/drho,
dh_kk/dy_k, d2h_kk/drho2, d2h_kk/drho dy_k and d2h_kk/dy_k2 in closed form
(:class:`BoundaryMetricFamily`).  Everything downstream consumes only
those: the flow reads the first three, its tangent (the variational
equation behind the scattering Jacobian) all six, and
:func:`gauss_curvature` the first four, from one profile call.  A float
(rho, y) gives floats where a family computes with numpy, since a numpy
scalar costs several times a float per operation.
:func:`eval_metric` gives the matrix view.  Every family has the domain
0 <= rho < rho_max; the flow stops a geodesic that reaches rho_max with
``CollarExitError``.  Its boundary chart (:class:`Chart`) is periodic or
the whole line in each coordinate, with no bounds to leave.

Built-in families:

* ``half-plane``     n=1, h = dy**2 on the whole line, domain unbounded in rho.
* ``disc-normal``    n=1, h = (1 - rho**2/4)**2 dy**2, periodic chart.  This
  is the full hyperbolic disc written globally in normal form; rho_max = 2
  is the coordinate image of the disc centre.
* ``perturbed``      n=1, h = exp(2(rho*a(y) + rho**2*b(y))) dy**2 with trig
  polynomials a, b on a collar.
* ``radial-power``   n=1, h = (1 + amp*rho**p) dy**2 on the whole line, for a
  whole p >= 1.
* ``taylor1d``       n=1, h = h0 + c1*rho + c2*rho**2/2, the forward model
  of jet fitting; the fit evaluates this h itself and takes the lengths
  from a turning-point integral, so it builds no family and traces none.
* ``product``        n=2, h = h1(rho, y1) dy1**2 + h2(rho, y2) dy2**2 from
  two n=1 families.

``perturbed`` accepts an optional multiplicative interior bump, supported
away from the boundary, for gauge-insensitivity experiments.  h_rr has a
corner at the bump's edges, so they are the family's ``breaks``, the rho
levels where it is not smooth; the Jacobi layer cuts its Magnus grid there
(:func:`ahx.jacobi.jacobi_system`).  Every other family has none.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .quadrature import poly_bump_jet

__all__ = [
    "MetricError",
    "Chart",
    "TrigPoly",
    "BoundaryMetricFamily",
    "MetricEval",
    "make_family",
    "halfplane_family",
    "disc_family",
    "perturbed_family",
    "taylor1d_family",
    "product_family",
    "radial_power_family",
    "eval_metric",
    "gauss_curvature",
    "christoffel_symbols",
]

TWO_PI = 2.0 * math.pi


class MetricError(ValueError):
    """Invalid family specification or evaluation outside the stated domain."""


@dataclass(frozen=True, eq=False)
class Chart:
    """Boundary chart: periodic (angles mod 2 pi per coordinate) or affine
    (the whole line in each coordinate)."""

    kind: str  # "periodic" | "affine"

    def __post_init__(self):
        if self.kind not in ("periodic", "affine"):
            raise MetricError(f"unknown chart kind {self.kind!r}")

    def wrap(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "periodic":
            return np.mod(y, TWO_PI)
        return np.asarray(y, dtype=float)

    def wrapped_diff(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Representative of a - b, reduced to (-pi, pi] per periodic coord."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.kind == "periodic":
            d = np.mod(d + math.pi, TWO_PI) - math.pi
            d = np.where(d == -math.pi, math.pi, d)
        return d


@dataclass(frozen=True, eq=False)
class BoundaryMetricFamily:
    """Diagonal h_rho(y) through one profile per boundary coordinate.

    ``profiles[k](rho, y_k)`` returns (h_kk, dh_kk/drho, dh_kk/dy_k,
    d2h_kk/drho2, d2h_kk/drho dy_k, d2h_kk/dy_k2), all exact; h_kk depends
    on rho and y_k only, and the boundary dimension n is the number of
    profiles.  Profiles take floats or arrays, and their outputs broadcast
    against rho and y_k (a constant may come back as a float).  The domain
    is 0 <= rho < rho_max.
    """

    chart: Chart
    profiles: tuple
    rho_max: float
    name: str = ""
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.profiles)

    @property
    def breaks(self) -> tuple:
        """The rho levels where h is not smooth: ``(rho_lo, rho_hi)`` of an
        interior bump, else none."""
        bump = self.params.get("bump")
        return (float(bump["rho_lo"]), float(bump["rho_hi"])) if bump else ()

    def spec(self) -> dict:
        """JSON-serializable document that reconstructs this family."""
        return {"family": self.name, "params": dict(self.params)}

    def diag(self, rho, y) -> np.ndarray:
        """The six profile entries of every h_kk at (rho, y), shape
        (6, ..., n).

        ``y`` has a last axis of length n; rho broadcasts against the other
        axes of y.
        """
        y = np.asarray(y, dtype=float)
        out = np.empty((6,) + np.broadcast(rho, y[..., 0]).shape + (self.n,))
        for k, prof in enumerate(self.profiles):
            for i, v in enumerate(prof(rho, y[..., k])):
                out[i, ..., k] = v
        return out

    def eta_normsq(self, rho: float, y: np.ndarray, eta: np.ndarray) -> float:
        """|eta|^2 with respect to h_rho, i.e. the inverse-metric form."""
        e2 = 0.0
        for k, prof in enumerate(self.profiles):
            e2 += eta[k] * eta[k] / prof(rho, y[k])[0]
        return float(e2)


@dataclass(frozen=True, eq=False)
class MetricEval:
    """Pointwise data of h_rho: value, inverse, radial derivative."""

    rho: float
    y: np.ndarray
    h_mat: np.ndarray
    h_inv: np.ndarray
    dh_drho_mat: np.ndarray


# ---------------------------------------------------------------------------
# trig polynomials


class TrigPoly:
    """c[k]*cos(k y) + s[k]*sin(k y) with finitely many coefficients.

    Takes a float or an array.
    """

    def __init__(self, cos_coeffs=(), sin_coeffs=()):
        self.c = tuple(float(v) for v in cos_coeffs)
        self.s = tuple(float(v) for v in sin_coeffs)
        # nonconstant harmonics (k, c[k], s[k]) with a nonzero coefficient
        self._harmonics = [
            (k, c, s_) for k, (c, s_)
            in enumerate(zip_longest(self.c, self.s, fillvalue=0.0))
            if k and (c or s_)]
        self._c0 = self.c[0] if self.c else 0.0

    def jet(self, y):
        """(value, d/dy, d2/dy2) at y, with one cos and one sin per
        harmonic.  An array y takes numpy's cos and sin; a scalar y (a
        float, an int or a numpy scalar) takes ``math``'s and gives Python
        floats, several times cheaper per operation than numpy scalars.
        The tests pin the two paths to the same bits.  A constant
        polynomial returns its floats at once."""
        val, der, der2 = self._c0, 0.0, 0.0
        if not self._harmonics:
            return val, der, der2
        cos_f, sin_f = (np.cos, np.sin) if isinstance(y, np.ndarray) \
            else (math.cos, math.sin)
        for k, c, s_ in self._harmonics:
            cos, sin = cos_f(k * y), sin_f(k * y)
            val = val + c * cos + s_ * sin
            der = der + k * (s_ * cos - c * sin)
            der2 = der2 - k * k * (c * cos + s_ * sin)
        return val, der, der2


# ---------------------------------------------------------------------------
# family constructors


def _family(profiles, chart: Chart, rho_max: float, name: str,
            params: dict) -> BoundaryMetricFamily:
    fam = BoundaryMetricFamily(chart=chart, profiles=tuple(profiles),
                               rho_max=rho_max, name=name, params=params)
    _validate_family(fam)
    return fam


def _build(what: str, fn, params, *args):
    """fn(*args, **params); a ``params`` that is not a dict, or that names
    a keyword fn does not take or omits one it needs, is a MetricError
    naming ``what`` and the key."""
    if not isinstance(params, dict):
        raise MetricError(f"{what} params must be a dict, got {params!r}")
    try:
        inspect.signature(fn).bind(*args, **params)
    except TypeError as exc:
        raise MetricError(f"{what}: {exc}") from None
    return fn(*args, **params)


def _apply_bump(profile, amplitude: float, rho_lo: float, rho_hi: float):
    """Multiply h by 1 + amplitude * bump(rho), supported in [rho_lo, rho_hi]."""
    if rho_hi <= rho_lo:
        raise MetricError("interior bump needs rho_lo < rho_hi")
    width = rho_hi - rho_lo

    def bumped(rho, y):
        h, dh_r, dh_y, dh_rr, dh_ry, dh_yy = profile(rho, y)
        b, db, d2b = poly_bump_jet((rho - rho_lo) / width)
        f = 1.0 + amplitude * b
        df = amplitude * db / width
        d2f = amplitude * d2b / (width * width)
        return (h * f, dh_r * f + h * df, dh_y * f,
                dh_rr * f + 2.0 * dh_r * df + h * d2f,
                dh_ry * f + dh_y * df, dh_yy * f)

    return bumped


def halfplane_family(rho_max: float = math.inf) -> BoundaryMetricFamily:
    params = {"rho_max": rho_max} if math.isfinite(rho_max) else {}
    return _family([lambda rho, y: (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)],
                   Chart("affine"), rho_max, "half-plane", params)


def disc_family() -> BoundaryMetricFamily:
    # global normal form of the hyperbolic disc; rho = 2 is the centre
    def profile(rho, y):
        r2 = rho * rho
        q = 1.0 - 0.25 * r2
        return q * q, -rho * q, 0.0, 0.75 * r2 - 1.0, 0.0, 0.0

    return _family([profile], Chart("periodic"), 2.0, "disc-normal", {})


def perturbed_family(a_cos=(), a_sin=(), b_cos=(), b_sin=(),
                     rho_max: float = 0.5, bump=None) -> BoundaryMetricFamily:
    """h = exp(2 (rho a(y) + rho**2 b(y))) dy**2 on a collar [0, rho_max),
    times the interior bump that ``bump``, a dict of :func:`_apply_bump`'s
    keywords, describes."""
    a = TrigPoly(a_cos, a_sin)
    b = TrigPoly(b_cos, b_sin)

    def profile(rho, y):
        av, da, d2a = a.jet(y)
        bv, db, d2b = b.jet(y)
        h = np.exp(2.0 * rho * (av + rho * bv))
        if isinstance(h, float):
            h = float(h)    # as in TrigPoly.jet
        # the exponent's rho- and y-derivatives
        g = 2.0 * av + 4.0 * rho * bv
        p = 2.0 * rho * da + 2.0 * rho * rho * db
        return (h, h * g, h * p, h * (g * g + 4.0 * bv),
                h * (g * p + 2.0 * da + 4.0 * rho * db),
                h * (p * p + 2.0 * rho * d2a + 2.0 * rho * rho * d2b))

    params = {"a_cos": list(a.c), "a_sin": list(a.s),
              "b_cos": list(b.c), "b_sin": list(b.s), "rho_max": rho_max}
    if bump is not None:
        profile = _build("bump", _apply_bump, bump, profile)
        params["bump"] = dict(bump)
    return _family([profile], Chart("periodic"), rho_max, "perturbed", params)


def radial_power_family(amp: float, power: int,
                        rho_max: float = math.inf) -> BoundaryMetricFamily:
    """Flat boundary metric with monomial radial profile h = 1 + amp rho^p.

    Used for deformation paths whose metric derivative vanishes to a
    prescribed order at the boundary.  ``power`` is a whole number p >= 1
    (2 and 2.0 alike); a bool or a fraction raises MetricError.
    """
    if isinstance(power, bool) or not isinstance(power, numbers.Real) \
            or not float(power).is_integer() or power < 1:
        raise MetricError(
            f"radial power must be a whole number >= 1, got power={power!r}")
    p = int(power)

    params = {"amp": amp, "power": p}
    if math.isfinite(rho_max):
        params["rho_max"] = rho_max

    def profile(rho, y):
        # p = 1 has h_rr = 0 exactly; rho ** -1 would fail at rho = 0
        h_rr = amp * p * (p - 1) * rho ** (p - 2) if p > 1 else 0.0
        return (1.0 + amp * rho ** p, amp * p * rho ** (p - 1), 0.0, h_rr,
                0.0, 0.0)

    return _family([profile], Chart("affine"), rho_max, "radial-power",
                   params)


def taylor1d_family(h0: float, c1: float = 0.0, c2: float = 0.0,
                    rho_max: float = 0.25) -> BoundaryMetricFamily:
    """Truncated radial Taylor model h = h0 + c1 rho + c2 rho**2 / 2."""
    params = {"h0": h0, "c1": c1, "c2": c2, "rho_max": rho_max}
    return _family(
        [lambda rho, y: (h0 + c1 * rho + 0.5 * c2 * rho * rho, c1 + c2 * rho,
                         0.0, c2, 0.0, 0.0)],
        Chart("periodic"), rho_max, "taylor1d", params)


def product_family(fam1: BoundaryMetricFamily,
                   fam2: BoundaryMetricFamily) -> BoundaryMetricFamily:
    """Diagonal n=2 family from two n=1 factors (shared rho)."""
    if fam1.n != 1 or fam2.n != 1:
        raise MetricError("product factors must have n=1")
    if fam1.chart.kind != fam2.chart.kind:
        raise MetricError("product factors must share chart kind")
    return _family(fam1.profiles + fam2.profiles, Chart(fam1.chart.kind),
                   min(fam1.rho_max, fam2.rho_max), "product",
                   {"factors": [fam1.spec(), fam2.spec()]})


def _product_of_specs(factors) -> BoundaryMetricFamily:
    if not isinstance(factors, list) or len(factors) != 2:
        raise MetricError("product 'factors' must be a list of two metric "
                          f"specs, got {factors!r}")
    return product_family(*map(make_family, factors))


_CONSTRUCTORS = {
    "half-plane": halfplane_family,
    "disc-normal": disc_family,
    "perturbed": perturbed_family,
    "radial-power": radial_power_family,
    "taylor1d": taylor1d_family,
    "product": _product_of_specs,
}


def make_family(spec: dict) -> BoundaryMetricFamily:
    """Build a family from a metric-spec document (parsed JSON).

    ``family`` names a constructor and ``params`` (default empty) are its
    keywords, so the defaults are the constructor's; ``product`` takes
    ``factors``, a list of two specs.  An unknown family or spec key, and a
    parameter the constructor does not take or misses, raise MetricError.
    Every family has the domain 0 <= rho < rho_max.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise MetricError("metric spec must be a dict with a 'family' key")
    extra = sorted(set(spec) - {"family", "params"})
    if extra:
        raise MetricError(f"metric spec has unknown keys {extra}")
    kind = spec["family"]
    if kind not in _CONSTRUCTORS:
        raise MetricError(f"unknown family {kind!r}")
    return _build(f"family {kind!r}", _CONSTRUCTORS[kind],
                  spec.get("params", {}))


# ---------------------------------------------------------------------------
# validation


def _validation_grid(fam: BoundaryMetricFamily):
    rho_cap = min(fam.rho_max, 8.0)
    rhos = np.linspace(0.0, rho_cap, 9)
    if rhos[-1] >= fam.rho_max:
        rhos[-1] = fam.rho_max * (1.0 - 1e-6)
    if fam.chart.kind == "periodic":
        ys = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    else:
        ys = np.linspace(-3.0, 3.0, 8)
    return rhos, ys


def _validate_family(fam: BoundaryMetricFamily) -> None:
    """h positive and the supplied derivatives consistent with h and its
    first derivatives (scaled central differences) on the validation grid,
    every y_k at the grid's y."""
    rhos, ys = _validation_grid(fam)
    step = 1e-6
    rho = rhos[:, None]
    y = np.repeat(ys[None, :, None], fam.n, axis=2)
    h, an_r, an_y, an_rr, an_ry, an_yy = fam.diag(rho, y)  # (rho, y, k)
    bad = np.argwhere(~(h > 0.0))
    if bad.size:
        i, j = bad[0][:2]
        raise MetricError(
            f"h not positive definite at rho={rhos[i]:.4g}, y={ys[j]:.4g}")
    hr = step * np.maximum(1.0, np.abs(rho))
    up, down = fam.diag(rho + hr, y), fam.diag(rho - hr, y)
    fd_r = (up[0] - down[0]) / (2 * hr[..., None])
    if not np.allclose(fd_r, an_r, rtol=2e-6, atol=2e-6):
        raise MetricError("dh_drho inconsistent with h")
    # d2h/drho2 may have corners (the ends of a C2 bump), where the
    # difference is off by about step/4 times the jump of d3h/drho3:
    # 2.4e-3 at rho_hi for amplitude 0.2 on [0.15, 0.35], where |h_rr|
    # reaches 109.  So the absolute tolerance scales with the largest
    # |h_rr| on the grid; an error of 1% there still fails.
    fd_rr = (up[1] - down[1]) / (2 * hr[..., None])
    rr_scale = np.max(np.abs(an_rr), initial=1.0)
    if not np.allclose(fd_rr, an_rr, rtol=2e-6, atol=1e-3 * rr_scale):
        raise MetricError("d2h_drho2 inconsistent with dh_drho")
    # h_kk depends on y_k only, so shifting every y_k at once gives each
    # y_k-derivative; the y-differences of dh_drho and dh_dy are smooth
    # across the bump's corners, which lie at fixed rho
    fd_y = (fam.diag(rho, y + step)[:3] - fam.diag(rho, y - step)[:3]) \
        / (2 * step)
    for fd, an, what in ((fd_y[0], an_y, "dh_dy inconsistent with h"),
                         (fd_y[1], an_ry,
                          "d2h_drho_dy inconsistent with dh_drho"),
                         (fd_y[2], an_yy, "d2h_dy2 inconsistent with dh_dy")):
        if not np.allclose(fd, an, rtol=2e-6, atol=2e-6):
            raise MetricError(what)


# ---------------------------------------------------------------------------
# pointwise operations


def _check_domain(fam: BoundaryMetricFamily, rho: float) -> None:
    if not 0.0 <= rho < fam.rho_max:
        raise MetricError(f"rho={rho} outside [0, {fam.rho_max})")


def eval_metric(fam: BoundaryMetricFamily, rho: float, y) -> MetricEval:
    """Evaluate h_rho, its inverse and its radial derivative at (rho, y)."""
    _check_domain(fam, rho)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    h, dh_r = fam.diag(rho, y)[:2]
    if not h.all():
        raise MetricError(f"singular h at rho={rho}, y={y}")
    return MetricEval(rho=rho, y=y, h_mat=np.diag(h), h_inv=np.diag(1.0 / h),
                      dh_drho_mat=np.diag(dh_r))


def gauss_curvature(fam: BoundaryMetricFamily, rho, y):
    """Gauss curvature of g at interior points (n=1 only).

    ``rho`` is a float or an array, and ``y`` holds one boundary coordinate
    per rho (a float, or an array of rho's size); a float rho gives a float.
    Written as -1 plus correction terms so the constant-curvature part is
    exact and the result stays accurate as rho -> 0.  h and its rho
    derivatives come from one call of the family's profile, in closed form.
    """
    if fam.n != 1:
        raise MetricError("gauss_curvature requires a 1-dimensional boundary")
    rho_a = np.asarray(rho, dtype=float)
    if not rho_a.min(initial=1.0) > 0.0:
        raise MetricError("gauss_curvature needs rho > 0")
    # [()] makes a 0-d y a numpy scalar, on which a profile runs about as
    # fast as on a float, and leaves an array as it is
    h, dh, _, d2h = fam.profiles[0](
        rho, np.asarray(y, dtype=float).reshape(rho_a.shape)[()])[:4]
    k = -1.0 + rho * dh / (2.0 * h) \
        - rho * rho * (d2h / (2.0 * h) - dh * dh / (4.0 * h * h))
    return k if rho_a.ndim else float(k)


def christoffel_symbols(fam: BoundaryMetricFamily, rho, y) -> np.ndarray:
    """Christoffel symbols Gamma[..., c, a, b] of g at (rho, y), rho > 0.

    ``rho`` has a batch shape S and ``y`` the shape S + (n,); the result
    has the shape S + (n+1, n+1, n+1), so a scalar rho gives one table.
    Index 0 is rho, indices 1..n are the y coordinates.  With h diagonal and
    h_kk depending on (rho, y_k) only, the only tangential symbols are
    Gamma^k_kk = d_k h_kk / (2 h_kk).
    """
    rho = np.asarray(rho, dtype=float)
    if not np.all(rho > 0.0):
        raise MetricError("christoffel_symbols needs rho > 0")
    _check_domain(fam, np.max(rho, initial=0.0))
    h, dh_r, dh_y = fam.diag(
        rho, np.atleast_1d(np.asarray(y, dtype=float)))[:3]
    n = fam.n
    k = np.arange(1, n + 1)
    inv_rho = 1.0 / rho
    G = np.zeros(h.shape[:-1] + (n + 1,) * 3)
    G[..., 0, 0, 0] = -inv_rho
    # Gamma^0_kk = -1/2 dh_kk/drho + h_kk / rho
    G[..., 0, k, k] = -0.5 * dh_r + h * inv_rho[..., None]
    # Gamma^k_0k = Gamma^k_k0 = 1/2 dh_kk/drho / h_kk - 1 / rho
    G[..., k, 0, k] = G[..., k, k, 0] = 0.5 * dh_r / h - inv_rho[..., None]
    G[..., k, k, k] = 0.5 * dh_y / h
    return G
