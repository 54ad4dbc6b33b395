"""Boundary jet recovery from renormalized lengths of short geodesics.

For a family in normal form, the renormalized length of the short geodesic
shot from ``y0`` with covector ``omega0 / delta`` behaves like

    L = 2 log(2 delta) - 2 log |omega0|_{h_0} + O(delta),

so extrapolating ``L - 2 log(2 delta)`` to ``delta = 0`` recovers the
boundary norm of every direction, hence ``h_0`` by polarization.  The next
Taylor coefficient of the remainder determines the first radial derivative
of ``h`` at the boundary.  Its general formula also has two terms in the
tangential derivatives of ``h_0``; in one boundary dimension they cancel,
so each point's jet comes from that point's own table.

Two independent routes are provided: the asymptotic extraction above
(``recover_h0`` / ``recover_first_jet``) and a forward-model least-squares
fit over a truncated radial Taylor family (``recover_jet_fit``), which
imports scipy's ``least_squares`` when it is first called.  The Taylor
model does not depend on y, so its lengths are turning-point integrals
evaluated by a Gauss rule, and the fit traces no geodesic.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .metric import BoundaryMetricFamily, MetricError, taylor1d_family
from .flow import CollarExitError, delta_max, trace_geodesic
from .quadrature import gauss_nodes
from .renorm import renormalized_length

__all__ = [
    "RecoveryError", "LengthSampleSet", "H0Recovery", "JetEstimate",
    "synthesize_samples", "recover_h0", "recover_first_jet",
    "recover_jet_fit", "DELTA_GRID",
]

#: geometric ratio-1/2 grid; small end limited by double-precision fitting
DELTA_GRID = tuple(0.2 / 2 ** k for k in range(7))

#: condition-number ceiling for the polarization solve
POLAR_COND_MAX = 1e8


class RecoveryError(ValueError):
    """Recovery preconditions violated or extraction failed."""


# ---------------------------------------------------------------------------
# sample synthesis (forward model)


@dataclass(frozen=True)
class LengthSampleSet:
    """Renormalized lengths of short geodesics at one boundary point.

    ``lengths[j, k]`` is the renormalized length for direction
    ``directions[j]`` at scale ``deltas[k]`` (covector directions[j] /
    deltas[k]).  ``noise`` records the amplitude of any synthetic additive
    noise baked into the table.
    """

    y0: np.ndarray
    directions: np.ndarray
    deltas: np.ndarray
    lengths: np.ndarray
    noise: float = 0.0

    def validate(self) -> None:
        m, k = self.lengths.shape
        if self.directions.shape[0] != m or self.deltas.shape[0] != k:
            raise RecoveryError("length table shape mismatch")
        if np.any(np.diff(self.deltas) >= 0.0):
            raise RecoveryError("deltas must be strictly decreasing")
        if np.any(self.deltas <= 0.0):
            raise RecoveryError("deltas must be positive")
        if not np.all(np.isfinite(self.lengths)):
            raise RecoveryError("length table incomplete")

    def to_json(self) -> str:
        return json.dumps({
            "y0": self.y0.tolist(),
            "directions": self.directions.tolist(),
            "deltas": self.deltas.tolist(),
            "lengths": self.lengths.tolist(),
            "noise": self.noise,
        })


def synthesize_samples(fam: BoundaryMetricFamily, y0, directions,
                       deltas: Sequence[float] = DELTA_GRID,
                       tol: float = 1e-12, noise: float = 0.0,
                       seed: int = 0) -> LengthSampleSet:
    """Trace the short geodesics and tabulate renormalized lengths.

    Directions are raw covectors; no boundary normalization is applied
    (the recovery side treats the boundary metric as unknown).
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    dd = np.asarray(sorted(set(float(d) for d in deltas), reverse=True))
    if dd.size < 3:
        raise RecoveryError("need at least 3 delta values")
    if np.any(np.all(dirs == 0.0, axis=1)):
        raise RecoveryError("directions must be nonzero covectors")
    table = np.empty((dirs.shape[0], dd.size))
    for j, om in enumerate(dirs):
        cap = delta_max(fam, y0, om)
        if dd[0] > cap:
            raise RecoveryError(
                "largest delta %g exceeds the safe scale %g for direction %s"
                % (dd[0], cap, om))
        for k, d in enumerate(dd):
            traj = trace_geodesic(fam, (y0, om / d), tol=tol)
            table[j, k] = renormalized_length(traj).value
    if noise:
        rng = np.random.default_rng(seed)
        table = table + rng.uniform(-noise, noise, size=table.shape)
    out = LengthSampleSet(y0=y0, directions=dirs, deltas=dd,
                          lengths=table, noise=noise)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# asymptotic route


def _poly_coeffs(deltas: np.ndarray, vals: np.ndarray,
                 order: int) -> tuple:
    """Least-squares coefficients (c_0 .. c_order) of vals ~ sum c_k d^k,
    and the largest absolute residual of the fit."""
    van = np.vander(deltas, order + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(van, vals, rcond=None)
    return coef, float(np.max(np.abs(van @ coef - vals)))


def _sym_basis(n: int):
    """Index pairs (i <= j) enumerating independent symmetric entries."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def _polarize(dirs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Solve M[i,j] from quadratic-form samples M(w, w) = values per row w."""
    n = dirs.shape[1]
    pairs = _sym_basis(n)
    if dirs.shape[0] < len(pairs):
        raise RecoveryError(
            "need at least %d directions for polarization in dimension %d"
            % (len(pairs), n))
    a = np.empty((dirs.shape[0], len(pairs)))
    for r, w in enumerate(dirs):
        for c, (i, j) in enumerate(pairs):
            a[r, c] = w[i] * w[j] * (1.0 if i == j else 2.0)
    if np.linalg.cond(a) > POLAR_COND_MAX:
        raise RecoveryError("polarization ill-conditioned: "
                            "directions too clustered")
    entries, *_ = np.linalg.lstsq(a, values, rcond=None)
    m = np.empty((n, n))
    for c, (i, j) in enumerate(pairs):
        m[i, j] = m[j, i] = entries[c]
    return m


@dataclass(frozen=True)
class H0Recovery:
    """Boundary metric at one point recovered from length asymptotics."""

    y0: np.ndarray
    norms: np.ndarray          # recovered |omega|_{h_0} per direction
    h0: np.ndarray             # boundary metric (covariant components)
    h0_inv: np.ndarray         # inverse boundary metric
    fit_residual: float        # worst per-direction extrapolation residual


def recover_h0(samples: LengthSampleSet) -> H0Recovery:
    """Extrapolate L - 2 log(2 delta) to delta = 0 and polarize.

    Per direction, a quadratic in delta is fitted by least squares: only
    its constant term c0 is used, and the two higher powers absorb the
    O(delta) remainder.  c0 gives |omega|^2_{h_0} = e^{-c0}; the quadratic
    form values over all directions determine the inverse boundary metric,
    whose inverse is h_0.
    """
    samples.validate()
    dd = samples.deltas
    qvals = np.empty(samples.directions.shape[0])
    worst = 0.0
    for j in range(samples.directions.shape[0]):
        f = samples.lengths[j] - 2.0 * np.log(2.0 * dd)
        coef, res = _poly_coeffs(dd, f, 2)
        worst = max(worst, res)
        qvals[j] = math.exp(-coef[0])
    h0_inv = _polarize(samples.directions, qvals)
    eigs = np.linalg.eigvalsh(h0_inv)
    if np.any(eigs <= 0.0):
        raise RecoveryError("recovered quadratic form is not positive "
                            "definite (eigenvalues %s)" % eigs)
    h0 = np.linalg.inv(h0_inv)
    norms = np.array([math.sqrt(float(w @ h0_inv @ w))
                      for w in samples.directions])
    return H0Recovery(y0=samples.y0, norms=norms, h0=h0, h0_inv=h0_inv,
                      fit_residual=worst)


@dataclass(frozen=True)
class JetEstimate:
    """Recovered radial jet of the metric family at boundary points."""

    y0s: np.ndarray            # (m, n) sample points
    h0: np.ndarray             # (m, n, n) boundary metric
    drho_h: np.ndarray         # (m, n, n) first radial derivative
    order: int
    fit_residuals: np.ndarray  # (m,) per-point misfit summary
    d2rho_h: Optional[np.ndarray] = None   # (m, n, n) when order >= 2
    jacobian_sv: Optional[np.ndarray] = None  # fit-route singular values
    unresolved: Optional[np.ndarray] = None   # near-null parameter direction
    fit_nfev: Optional[np.ndarray] = None     # (m,) LM residual evaluations
    fit_status: Optional[np.ndarray] = None   # (m,) LM termination status

    def validate(self) -> None:
        for mat in self.h0:
            if np.any(np.linalg.eigvalsh(mat) <= 0.0):
                raise RecoveryError("h0 estimate not positive definite")

    def to_json(self) -> str:
        payload = {
            "y0s": self.y0s.tolist(),
            "h0": self.h0.tolist(),
            "drho_h": self.drho_h.tolist(),
            "order": self.order,
            "fit_residuals": self.fit_residuals.tolist(),
        }
        if self.d2rho_h is not None:
            payload["d2rho_h"] = self.d2rho_h.tolist()
        if self.jacobian_sv is not None:
            payload["jacobian_sv"] = self.jacobian_sv.tolist()
        if self.unresolved is not None:
            payload["unresolved"] = self.unresolved.tolist()
        if self.fit_nfev is not None:
            payload["fit_nfev"] = self.fit_nfev.tolist()
            payload["fit_status"] = self.fit_status.tolist()
        return json.dumps(payload)


def _require_one_dimension(sample_sets, route: str):
    if any(samp.y0.size != 1 for samp in sample_sets):
        raise NotImplementedError(f"{route} is implemented for one "
                                  "boundary dimension")


def recover_first_jet(sample_sets: Sequence[LengthSampleSet]) -> JetEstimate:
    """First radial derivative of h at each sample point.

    Each sample set is treated on its own.  h_0 at the point comes from
    :func:`recover_h0`.  Normalizing each direction by its recovered
    boundary norm turns the sample table into values of the smooth
    remainder F(d) = L - 2 log(2 d), fitted by a cubic in d (one power more
    than :func:`recover_h0`, since the slope is wanted here); its slope at
    d = 0 equals

        -(w^sharp)^k T_k - h0(w', w) - (pi/2) * drho(h^{ij}) w_i w_j

    where T_k is the tangential derivative of the inverse-form values and
    w' is the linearized direction shift, with components -T_k.  In one
    boundary dimension the first two terms cancel, so
    drho(h^{ij}) w_i w_j = -(2/pi) F'(0).  Polarizing these values yields
    the radial derivative of the inverse metric, converted to the metric
    itself at the end.
    """
    if not sample_sets:
        raise RecoveryError("no sample sets to recover from")
    _require_one_dimension(sample_sets, "first-jet extraction")
    m = len(sample_sets)
    y0s = np.empty((m, 1))
    h0_out = np.empty((m, 1, 1))
    drho_out = np.empty((m, 1, 1))
    resid = np.empty(m)
    for i, samp in enumerate(sample_sets):
        rec = recover_h0(samp)
        y0s[i, 0] = float(samp.y0[0])
        h0_out[i] = rec.h0
        pvals = np.empty(samp.directions.shape[0])
        worst = 0.0
        for j in range(samp.directions.shape[0]):
            d_hat = samp.deltas / rec.norms[j]
            f = samp.lengths[j] - 2.0 * np.log(2.0 * d_hat)
            coef, res = _poly_coeffs(d_hat, f, 3)
            worst = max(worst, res)
            pvals[j] = -coef[1] * 2.0 / math.pi
        dirs_hat = samp.directions / rec.norms[:, None]
        dh_inv = _polarize(dirs_hat, pvals)
        drho_out[i] = -rec.h0 @ dh_inv @ rec.h0
        resid[i] = worst
    est = JetEstimate(y0s=y0s, h0=h0_out, drho_h=drho_out, order=1,
                      fit_residuals=resid)
    est.validate()
    return est


# ---------------------------------------------------------------------------
# forward-model fitting route


def _forward_lengths(dirs: np.ndarray, deltas: np.ndarray,
                     params: np.ndarray) -> np.ndarray:
    """Renormalized lengths of the ``taylor1d`` model's short geodesics.

    The model does not depend on y, so eta = |omega| / delta is conserved.
    On the cosphere xi_b**2 + rho**2 eta**2 / h = 1 with drho/dtau = xi_b,
    and tau = rho + O(rho**3) at each end, so the length is

        L = 2 log rho* + 2 int_0^rho* (1 / xi_b - 1) drho / rho,

    where the turning point rho* is the smallest positive root of
    h(rho) = eta**2 rho**2.  Writing h - eta**2 rho**2 = (rho - rho*) (c1
    + a (rho + rho*)), a = c2 / 2 - eta**2, and substituting rho = rho* (1
    - s**2) leaves an integrand smooth on s in [0, 1] and free of
    cancellation; a 24-node Gauss rule takes it to rounding.  All
    (direction, delta) pairs are evaluated at once.  ``taylor1d_family``
    raises MetricError where h is not positive on its collar rho <= 0.35;
    a geodesic that does not turn inside the collar raises
    CollarExitError, as its trace would.
    """
    h0, c1, c2 = params
    fam = taylor1d_family(h0, c1, c2, rho_max=0.35)
    eta2 = (np.abs(dirs[:, 0])[:, None] / deltas) ** 2
    a = 0.5 * c2 - eta2
    # h0 + c1 rho + a rho**2 = 0 at rho = 2 h0 / (sqrt(disc) - c1); this
    # is the smallest positive root whenever the denominator is positive
    disc = c1 * c1 - 4.0 * a * h0
    den = np.sqrt(np.maximum(disc, 0.0)) - c1
    turns = (disc > 0.0) & (den > 0.0)
    rho_t = 2.0 * h0 / np.where(turns, den, 1.0)
    if not np.all(turns & (rho_t < fam.rho_max)):
        raise CollarExitError("a model geodesic does not turn inside "
                              "rho < %g" % fam.rho_max)
    s, w = gauss_nodes(0.0, 1.0, 24)
    rt = rho_t[..., None]
    rho = rt * (1.0 - s * s)
    h = fam.profiles[0](rho, 0.0)[0]
    q = -rt * (c1 + a[..., None] * (rho + rt))     # (h - eta**2 rho**2) / s**2
    return 2.0 * np.log(rho_t) \
        + 4.0 * eta2 * rho_t * ((rho / (np.sqrt(q * h) + s * q)) @ w)


def _model_misfit(samp: LengthSampleSet, params: np.ndarray) -> np.ndarray:
    """Model lengths minus the sample table, raveled; 1e3 in every entry
    when the model is invalid or one of its geodesics leaves the collar."""
    try:
        sim = _forward_lengths(samp.directions, samp.deltas, params)
    except (MetricError, CollarExitError):
        return np.full(samp.lengths.size, 1e3)
    return sim.ravel() - samp.lengths.ravel()


def recover_jet_fit(sample_sets: Sequence[LengthSampleSet],
                    k_max: int = 2) -> JetEstimate:
    """Levenberg-Marquardt fit of a truncated radial Taylor model.

    Per sample point, the parameters (h0, first and second radial
    derivative) of a radially-truncated family are adjusted until its
    model length table matches the samples in least squares.  The model
    families are defined for rho <= 0.35, and none of their geodesics is
    traced: the model does not depend on y, so each length is a
    one-dimensional integral up to the turning point, exact to rounding
    (:func:`_forward_lengths`).  A model whose h is not positive on the
    collar, or one with a geodesic that does not turn inside it, scores as
    a large misfit.  The final Jacobian's singular values are reported; a
    direction whose singular value is below 1e-4 times the largest is
    returned as ``unresolved``, coefficients the delta-range cannot
    resolve.  ``fit_nfev`` and ``fit_status`` are the solver's residual
    evaluation count and termination status (1 to 4 on convergence).
    """
    if k_max not in (1, 2):
        raise RecoveryError("k_max must be 1 or 2")
    if not sample_sets:
        raise RecoveryError("no sample sets to fit")
    _require_one_dimension(sample_sets, "fit route")
    m = len(sample_sets)
    y0s = np.empty((m, 1))
    h0_out = np.empty((m, 1, 1))
    drho_out = np.empty((m, 1, 1))
    d2_out = np.empty((m, 1, 1))
    resid = np.empty(m)
    svs = np.empty((m, k_max + 1))
    unresolved = np.zeros((m, k_max + 1))
    nfev = np.empty(m, dtype=int)
    status = np.empty(m, dtype=int)
    for i, samp in enumerate(sample_sets):
        samp.validate()
        y0s[i, 0] = float(samp.y0[0])

        def misfit(p):
            return _model_misfit(
                samp, np.array([p[0], p[1], p[2] if k_max >= 2 else 0.0]))

        x0 = np.array([1.0, 0.0, 0.0][:k_max + 1])
        # the model lengths are exact to rounding, so scipy's default
        # forward-difference step, sqrt(eps) max(1, |x|), suits them; a
        # diff_step is relative to |x| and shrinks to nothing for a
        # coefficient near zero, such as the flat model's slope
        from scipy.optimize import least_squares
        res = least_squares(misfit, x0, method="lm")
        if not res.success:
            raise RecoveryError("fit did not converge at y0=%s: %s"
                                % (samp.y0, res.message))
        h0_out[i, 0, 0] = res.x[0]
        drho_out[i, 0, 0] = res.x[1]
        d2_out[i, 0, 0] = res.x[2] if k_max >= 2 else 0.0
        resid[i] = float(np.linalg.norm(res.fun))
        nfev[i] = res.nfev
        status[i] = res.status
        u, s, vt = np.linalg.svd(res.jac)
        svs[i] = s
        if s[-1] < 1e-4 * s[0]:
            unresolved[i] = vt[-1]
    est = JetEstimate(y0s=y0s, h0=h0_out, drho_h=drho_out,
                      order=k_max, fit_residuals=resid,
                      d2rho_h=d2_out if k_max >= 2 else None,
                      jacobian_sv=svs, unresolved=unresolved,
                      fit_nfev=nfev, fit_status=status)
    est.validate()
    return est
