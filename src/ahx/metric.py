"""Boundary metric families for asymptotically hyperbolic metrics in normal form.

A family describes g = (d rho**2 + h_rho) / rho**2 near (or on all of) a
manifold-with-boundary through the rho-dependent boundary metric h_rho and
its first derivatives in rho and y.  Every family is diagonal, with h_kk a
function of (rho, y_k) only, and is given by one profile per coordinate
returning h_kk, dh_kk/drho and dh_kk/dy_k (:class:`BoundaryMetricFamily`).
Everything downstream consumes only those; second derivatives, where
needed, are obtained by central differences of the supplied first
derivatives.  :func:`eval_metric` gives the matrix view.

Built-in families:

* ``half-plane``     n=1, h = dy**2, affine chart, domain unbounded in rho.
* ``disc-normal``    n=1, h = (1 - rho**2/4)**2 dy**2, periodic chart.  This
  is the full hyperbolic disc written globally in normal form; rho = 2 is
  the coordinate image of the disc centre and is excluded from the domain.
* ``perturbed``      n=1, h = exp(2(rho*a(y) + rho**2*b(y))) dy**2 with trig
  polynomials a, b; collar domain [0, rho_max].
* ``taylor1d``       n=1, h = h0 + c1*rho + c2*rho**2/2, the forward model
  of jet fitting, whose lengths the fit takes from a turning-point
  integral rather than from traces.
* ``product``        n=2, h = h1(rho, y1) dy1**2 + h2(rho, y2) dy2**2 from
  two n=1 families.

``perturbed`` accepts an optional multiplicative interior bump, supported
away from the boundary, for gauge-insensitivity experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Optional

import numpy as np

from .quadrature import poly_bump, poly_bump_dt

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

# step for second derivatives of h taken from supplied first derivatives
FD2_STEP = 1e-5


class MetricError(ValueError):
    """Invalid family specification or evaluation outside the stated domain."""


@dataclass(frozen=True, eq=False)
class Chart:
    """Boundary chart: periodic (angles mod 2 pi per coordinate) or affine."""

    kind: str  # "periodic" | "affine"
    y_bounds: Optional[tuple] = None  # affine only: ((lo, hi), ...) or None

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

    def contains(self, y: np.ndarray) -> bool:
        if self.kind == "periodic" or self.y_bounds is None:
            return True
        y = np.atleast_1d(y)
        for yi, (lo, hi) in zip(y, self.y_bounds):
            if yi < lo or yi > hi:
                return False
        return True


@dataclass(frozen=True, eq=False)
class BoundaryMetricFamily:
    """Diagonal h_rho(y) through one profile per boundary coordinate.

    ``profiles[k](rho, y_k)`` returns (h_kk, dh_kk/drho, dh_kk/dy_k); h_kk
    depends on rho and y_k only, and the boundary dimension n is the number
    of profiles.  Profiles take floats or arrays, and their outputs
    broadcast against rho and y_k (a constant may come back as a float).
    """

    chart: Chart
    profiles: tuple
    rho_max: float
    open_at_max: bool = False  # domain is [0, rho_max) when True
    name: str = ""
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.profiles)

    def spec(self) -> dict:
        """JSON-serializable document that reconstructs this family."""
        return {"family": self.name, "params": dict(self.params)}

    def diag(self, rho, y) -> np.ndarray:
        """h_kk, dh_kk/drho and dh_kk/dy_k at (rho, y), shape (3, ..., n).

        ``y`` has a last axis of length n; rho broadcasts against the other
        axes of y.
        """
        y = np.asarray(y, dtype=float)
        out = np.empty((3,) + np.broadcast(rho, y[..., 0]).shape + (self.n,))
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
    """Pointwise data of h_rho: value, inverse, first derivatives."""

    rho: float
    y: np.ndarray
    h_mat: np.ndarray
    h_inv: np.ndarray
    dh_drho_mat: np.ndarray
    dh_dy_mats: np.ndarray  # (n, n, n)

    def eta_normsq(self, eta: np.ndarray) -> float:
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        return float(eta @ self.h_inv @ eta)


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

    def value_and_deriv(self, y):
        """(value, d/dy) at y, with one cos and one sin per harmonic."""
        val = self.c[0] if self.c else 0.0
        der = 0.0
        for k, c, s_ in self._harmonics:
            cos, sin = np.cos(k * y), np.sin(k * y)
            val = val + c * cos + s_ * sin
            der = der + k * (s_ * cos - c * sin)
        return val, der

    def __call__(self, y):
        return self.value_and_deriv(y)[0]

    def deriv(self, y):
        return self.value_and_deriv(y)[1]


# ---------------------------------------------------------------------------
# family constructors


def _family(profiles, chart: Chart, rho_max: float, name: str, params: dict,
            open_at_max: bool = False) -> BoundaryMetricFamily:
    fam = BoundaryMetricFamily(chart=chart, profiles=tuple(profiles),
                               rho_max=rho_max, open_at_max=open_at_max,
                               name=name, params=params)
    _validate_family(fam)
    return fam


def _apply_bump(profile, amplitude: float, rho_lo: float, rho_hi: float):
    """Multiply h by 1 + amplitude * bump(rho), supported in [rho_lo, rho_hi]."""
    if rho_hi <= rho_lo:
        raise MetricError("interior bump needs rho_lo < rho_hi")
    width = rho_hi - rho_lo

    def bumped(rho, y):
        h, dh_r, dh_y = profile(rho, y)
        t = (rho - rho_lo) / width
        f = 1.0 + amplitude * poly_bump(t)
        df = amplitude * poly_bump_dt(t) / width
        return h * f, dh_r * f + h * df, dh_y * f

    return bumped


def halfplane_family(y_bounds=None, rho_max: float = math.inf) -> BoundaryMetricFamily:
    chart = Chart("affine", y_bounds=y_bounds)
    params = {}
    if y_bounds is not None:
        params["y_bounds"] = [list(b) for b in y_bounds]
    if math.isfinite(rho_max):
        params["rho_max"] = rho_max
    return _family([lambda rho, y: (1.0, 0.0, 0.0)], chart, rho_max,
                   "half-plane", params)


def disc_family() -> BoundaryMetricFamily:
    # global normal form of the hyperbolic disc; rho = 2 is the centre
    def profile(rho, y):
        q = 1.0 - 0.25 * rho * rho
        return q * q, -rho * q, 0.0

    return _family([profile], Chart("periodic"), 2.0, "disc-normal", {},
                   open_at_max=True)


def perturbed_family(a_cos=(), a_sin=(), b_cos=(), b_sin=(),
                     rho_max: float = 0.5, bump=None) -> BoundaryMetricFamily:
    """h = exp(2 (rho a(y) + rho**2 b(y))) dy**2 on a collar [0, rho_max]."""
    a = TrigPoly(a_cos, a_sin)
    b = TrigPoly(b_cos, b_sin)

    def profile(rho, y):
        av, da = a.value_and_deriv(y)
        bv, db = b.value_and_deriv(y)
        h = np.exp(2.0 * rho * (av + rho * bv))
        return (h, h * (2.0 * av + 4.0 * rho * bv),
                h * (2.0 * rho * da + 2.0 * rho * rho * db))

    params = {"a_cos": list(a.c), "a_sin": list(a.s),
              "b_cos": list(b.c), "b_sin": list(b.s), "rho_max": rho_max}
    if bump is not None:
        profile = _apply_bump(profile, bump["amplitude"], bump["rho_lo"],
                              bump["rho_hi"])
        params["bump"] = dict(bump)
    return _family([profile], Chart("periodic"), rho_max, "perturbed", params)


def radial_power_family(amp: float, power: int,
                        rho_max: float = math.inf) -> BoundaryMetricFamily:
    """Flat boundary metric with monomial radial profile h = 1 + amp rho^p.

    Used for deformation paths whose metric derivative vanishes to a
    prescribed order at the boundary.
    """
    p = int(power)
    if p < 1:
        raise MetricError("radial power must be a positive integer")

    params = {"amp": amp, "power": p}
    if math.isfinite(rho_max):
        params["rho_max"] = rho_max
    return _family(
        [lambda rho, y: (1.0 + amp * rho ** p, amp * p * rho ** (p - 1), 0.0)],
        Chart("affine"), rho_max, "radial-power", params)


def taylor1d_family(h0: float, c1: float, c2: float,
                    rho_max: float = 0.25) -> BoundaryMetricFamily:
    """Truncated radial Taylor model h = h0 + c1 rho + c2 rho**2 / 2."""
    params = {"h0": h0, "c1": c1, "c2": c2, "rho_max": rho_max}
    return _family(
        [lambda rho, y: (h0 + c1 * rho + 0.5 * c2 * rho * rho, c1 + c2 * rho,
                         0.0)],
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
                   {"factors": [fam1.spec(), fam2.spec()]},
                   open_at_max=fam1.open_at_max or fam2.open_at_max)


def make_family(spec: dict) -> BoundaryMetricFamily:
    """Build a family from a metric-spec document (parsed JSON)."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise MetricError("metric spec must be a dict with a 'family' key")
    kind = spec["family"]
    params = dict(spec.get("params", {}))
    if kind == "half-plane":
        yb = params.get("y_bounds")
        if yb is not None:
            yb = tuple(tuple(float(v) for v in b) for b in yb)
        return halfplane_family(y_bounds=yb,
                                rho_max=float(params.get("rho_max", math.inf)))
    if kind == "disc-normal":
        return disc_family()
    if kind == "perturbed":
        return perturbed_family(
            a_cos=params.get("a_cos", ()), a_sin=params.get("a_sin", ()),
            b_cos=params.get("b_cos", ()), b_sin=params.get("b_sin", ()),
            rho_max=float(params.get("rho_max", 0.5)),
            bump=params.get("bump"))
    if kind == "radial-power":
        return radial_power_family(float(params["amp"]), int(params["power"]),
                                   rho_max=float(params.get("rho_max",
                                                            math.inf)))
    if kind == "taylor1d":
        return taylor1d_family(float(params["h0"]), float(params.get("c1", 0.0)),
                               float(params.get("c2", 0.0)),
                               rho_max=float(params.get("rho_max", 0.25)))
    if kind == "product":
        f1, f2 = (make_family(s) for s in params["factors"])
        return product_family(f1, f2)
    raise MetricError(f"unknown family {kind!r}")


# ---------------------------------------------------------------------------
# validation


def _validation_grid(fam: BoundaryMetricFamily):
    rho_cap = min(fam.rho_max, 8.0)
    rhos = np.linspace(0.0, rho_cap, 9)
    if fam.open_at_max and rhos[-1] >= fam.rho_max:
        rhos[-1] = fam.rho_max * (1.0 - 1e-6)
    if fam.chart.kind == "periodic":
        ys = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    else:
        lo, hi = (-3.0, 3.0)
        if fam.chart.y_bounds is not None:
            lo, hi = fam.chart.y_bounds[0]
        ys = np.linspace(lo, hi, 8)
    return rhos, ys


def _validate_family(fam: BoundaryMetricFamily) -> None:
    """h positive and the supplied first derivatives consistent with h
    (scaled central differences) on the validation grid, every y_k at the
    grid's y."""
    rhos, ys = _validation_grid(fam)
    step = 1e-6
    rho = rhos[:, None]
    y = np.repeat(ys[None, :, None], fam.n, axis=2)
    h, an_r, an_y = fam.diag(rho, y)        # each (rho, y, k)
    bad = np.argwhere(~(h > 0.0))
    if bad.size:
        i, j = bad[0][:2]
        raise MetricError(
            f"h not positive definite at rho={rhos[i]:.4g}, y={ys[j]:.4g}")
    hr = step * np.maximum(1.0, np.abs(rho))
    fd_r = (fam.diag(rho + hr, y)[0] - fam.diag(rho - hr, y)[0]) \
        / (2 * hr[..., None])
    if not np.allclose(fd_r, an_r, rtol=2e-6, atol=2e-6):
        raise MetricError("dh_drho inconsistent with h")
    # h_kk depends on y_k only, so shifting every y_k at once gives each
    # d h_kk / d y_k
    fd_y = (fam.diag(rho, y + step)[0] - fam.diag(rho, y - step)[0]) \
        / (2 * step)
    if not np.allclose(fd_y, an_y, rtol=2e-6, atol=2e-6):
        raise MetricError("dh_dy inconsistent with h")


# ---------------------------------------------------------------------------
# pointwise operations


def _check_domain(fam: BoundaryMetricFamily, rho: float) -> None:
    if rho < 0.0:
        raise MetricError(f"rho={rho} below 0")
    if fam.open_at_max:
        if rho >= fam.rho_max:
            raise MetricError(f"rho={rho} outside [0, {fam.rho_max})")
    elif rho > fam.rho_max:
        raise MetricError(f"rho={rho} outside [0, {fam.rho_max}]")


def eval_metric(fam: BoundaryMetricFamily, rho: float, y) -> MetricEval:
    """Evaluate h_rho, its inverse and first derivatives at (rho, y)."""
    _check_domain(fam, rho)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    h, dh_r, dh_y = fam.diag(rho, y)
    if not h.all():
        raise MetricError(f"singular h at rho={rho}, y={y}")
    k = np.arange(fam.n)
    dh_dy_mats = np.zeros((fam.n,) * 3)
    dh_dy_mats[k, k, k] = dh_y
    return MetricEval(rho=rho, y=y, h_mat=np.diag(h), h_inv=np.diag(1.0 / h),
                      dh_drho_mat=np.diag(dh_r), dh_dy_mats=dh_dy_mats)


def gauss_curvature(fam: BoundaryMetricFamily, rho: float, y) -> float:
    """Gauss curvature of g at an interior point (n=1 only).

    Written as -1 plus correction terms so the constant-curvature part is
    exact and the result stays accurate as rho -> 0.  Only the second
    rho-derivative of h is differenced, with a fixed step; family profiles
    extend real-analytically through rho = 0, so the stencil may cross zero.
    """
    if fam.n != 1:
        raise MetricError("gauss_curvature requires a 1-dimensional boundary")
    if rho <= 0.0:
        raise MetricError("gauss_curvature needs rho > 0")
    prof = fam.profiles[0]
    yv = np.atleast_1d(y)[0]
    h, dh, _ = prof(rho, yv)
    d2h = (prof(rho + FD2_STEP, yv)[1] - prof(rho - FD2_STEP, yv)[1]) \
        / (2.0 * FD2_STEP)
    return float(-1.0 + rho * dh / (2.0 * h)
                 - rho * rho * (d2h / (2.0 * h) - dh * dh / (4.0 * h * h)))


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
    h, dh_r, dh_y = fam.diag(rho, np.atleast_1d(np.asarray(y, dtype=float)))
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
