"""Error-band assembly for local-density energy approximations.

Builds the certified two-sided band |E(rho) - LDA(rho)| <= R(eps) from the
functional set of a density, optimizes the free localization parameter eps,
and exposes the localized estimates the band is proved from (tetrahedron
thermodynamic margins, constant-replacement terms, rough subadditivity,
kinetic-energy band).  All bounds are C-relative: the unknown analysis
constant is a user input, and every rate statement is C-independent.

The band implements, for the quantum and xc variants,

    |E(rho) - center(rho)| <= R(eps) = eps (int rho + int rho^2)
        + C (1 + eps)/eps int |grad sqrt(rho)|^2
        + C eps^-(4p - 1) int |grad rho^theta|^p

(the classical variant reads int rho^(4/3) for int rho^2, drops the
kinetic term and takes eps^-b, b = classical_b(p, theta)), and reports
R* = R(eps*).  _optimum minimizes R over every eps > 0, so the band
assumes the inequality for every eps > 0.  The building blocks here gate
eps more narrowly: choice_ell_delta takes eps < 1/sqrt 2, flatness_error
eps <= 1/2, subadditivity_gap eps <= 1, and kinetic.t_upper's
3d-small-eps variant eps <= 1.  Whether the main theorem of arXiv
1903.04046 (Lewin, Lieb & Seiringer) holds for every eps > 0 has not
been checked against the paper's text in this repo.  The flag
eps_star_above_half marks a band whose eps* lies above 1/2, beyond the
range that every one of those building blocks accepts; such a band stands
only if the theorem covers its eps*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bounds, field, tiling

_VARIANTS = ("quantum", "xc", "classical")


@dataclass(frozen=True)
class CertParams:
    """Knobs of the certificate family.

    p and theta control the high-order gradient functional, C is the
    user-supplied analysis constant, q the number of spin states.
    """

    p: float
    theta: float
    C: float = 1.0
    q: int = 1
    variant: str = "quantum"


def validate_params(params):
    """Gate the parameter set; returns (accepted, reason).

    Rejection is a value, not an exception: the reason string names the
    violated inequality.
    """
    p, th = params.p, params.theta
    if params.variant not in _VARIANTS:
        return False, f"unknown variant {params.variant!r}"
    if not p > 3:
        return False, f"p = {p:g} must exceed 3"
    if p == math.inf:
        return False, "p = inf must be finite"
    if not (0.0 < th < 1.0):
        return False, f"theta = {th:g} must lie in (0, 1)"
    if not params.C > 0:
        return False, f"C = {params.C:g} must be positive"
    if params.C == math.inf:
        return False, "C = inf must be finite"
    if params.q < 1:
        return False, f"q = {params.q:g} must be at least 1"
    pt = p * th
    if params.variant == "classical":
        if pt < 4.0 / 3.0:
            return False, f"p*theta = {pt:g} below the classical gate 4/3"
    else:
        if pt < 2.0:
            return False, f"p*theta = {pt:g} below 2"
        if pt > 1.0 + p / 2.0:
            return False, f"p*theta = {pt:g} exceeds 1 + p/2 = {1.0 + p / 2.0:g}"
    return True, ""


def _require_params(params):
    ok, reason = validate_params(params)
    if not ok:
        raise ValueError(f"rejected parameters: {reason}")


def classical_b(p, theta):
    """Exponent of the classical theta-gradient coefficient."""
    return max(2.0 * p - 1.0, (1.0 + 3.0 * theta) * p - 4.0)


def _tf_term(F, q):
    return bounds._tf_coefficient(q) * F.l53


def _variant_terms(F, params):
    """(bulk functional, theta exponent, has kinetic term) of the variant.

    The rhs is eps * bulk + C (1+eps)/eps * kin + C / eps^exponent * thg,
    without the kinetic term for the classical variant.
    """
    if params.variant == "classical":
        return F.mass + F.l43, classical_b(params.p, params.theta), False
    return F.mass + F.l2, 4.0 * params.p - 1.0, True


def rhs(F, eps, params):
    """Right-hand side of the certificate at localization parameter eps.

    Returns (total, breakdown) with the bulk, kinetic-gradient and
    theta-gradient terms split out.  Linear in every functional entry.
    """
    _require_params(params)
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    C = params.C
    bulk_f, expo, has_kin = _variant_terms(F, params)
    bulk = eps * bulk_f
    kin = C * (1.0 + eps) / eps * F.kin if has_kin else 0.0
    theta = C / eps**expo * F.thg
    total = bulk + kin + theta
    return total, {"bulk": bulk, "kin": kin, "theta": theta, "total": total}


def band_center(F, params, model):
    """The value the band is centered on, by variant.

    quantum: the model energy integral; xc: the same minus the
    Thomas-Fermi kinetic part; classical: the model's low-density
    coefficient times the 4/3 integral.
    """
    if params.variant == "classical":
        return model.c_ueg * F.l43
    lda = bounds.lda_energy(F, model)
    if params.variant == "xc":
        return lda - _tf_term(F, params.q)
    return lda


# ---------------------------------------------------------------------------
# eps optimization


def _optimum(F, params):
    """(eps_star, total, flat) for the variant's rhs."""
    A, e2, has_kin = _variant_terms(F, params)
    # C (1+eps)/eps kin = C kin/eps + C kin: the constant part is an offset
    B = params.C * F.kin if has_kin else 0.0
    D = params.C * F.thg
    if A == 0.0 and B == 0.0 and D == 0.0:
        return 0.0, 0.0, True
    eps, g = bounds.optimize_eps(A, B, D, 1.0, e2)
    if eps == 0.0:
        return 0.0, 0.0, True
    return eps, g + B, False


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Certificate:
    """Assembled band around the local-density value."""

    params: CertParams
    model: bounds.UegModel
    functionals: field.FunctionalSet
    lda: float
    eps_star: float
    rhs_total: float
    rhs_breakdown: dict
    band: tuple
    advisory_envelope: tuple
    flags: tuple

    def to_dict(self):
        p, F = self.params, self.functionals
        return {
            "params": {
                "p": p.p, "theta": p.theta, "C": p.C, "q": p.q,
                "variant": p.variant,
                "model": self.model.name,
                "model_A": self.model.A, "model_B": self.model.B,
                "c_tf": bounds.c_tf(), "c_lo": bounds.C_LO,
            },
            "functionals": {
                "mass": F.mass, "l2": F.l2, "l43": F.l43, "l53": F.l53,
                "kin": F.kin, "tv": F.tv, "thg": F.thg,
                "theta": F.theta, "p": F.p, "hartree": F.hartree,
            },
            "lda": self.lda,
            "epsilon_star": self.eps_star,
            "rhs": dict(self.rhs_breakdown),
            "band": list(self.band),
            "advisory_envelope": list(self.advisory_envelope),
            "flags": list(self.flags),
        }


def certify(rho, params, model=None, n_grid=None):
    """Build the certificate of a density: functionals, optimal eps, band.

    model defaults to the kinetic-plus-exchange power family for params.q.
    The functionals and the Hartree term come from the density as given:
    closed forms and radial quadratures for a gaussian and a compact bump,
    the closed form and the cached tile table for a smeared tile, so none
    of these is sampled; a grid density is certified from its own samples.
    Nothing reads n_grid; it is kept for callers that pass it.
    """
    _require_params(params)
    if model is None:
        model = bounds.tf_dirac_model(params.q)
    F = field.functionals(rho, theta=params.theta, p=params.p)
    zero = F.mass == 0.0 and F.kin == 0.0 and F.thg == 0.0
    if zero:
        F = replace(F, hartree=0.0)
        return Certificate(
            params=params, model=model, functionals=F, lda=0.0,
            eps_star=0.0, rhs_total=0.0,
            rhs_breakdown={"bulk": 0.0, "kin": 0.0, "theta": 0.0, "total": 0.0},
            band=(0.0, 0.0), advisory_envelope=(0.0, 0.0),
            flags=("exactly_flat",),
        )
    F = replace(F, hartree=rho.hartree())
    lda = band_center(F, params, model)
    eps_star, total, flat = _optimum(F, params)
    if flat:
        breakdown = {"bulk": 0.0, "kin": 0.0, "theta": 0.0, "total": 0.0}
    else:
        total, breakdown = rhs(F, eps_star, params)
    lower, conjectured = bounds.energy_lower(F, params.q)
    upper, _ = bounds.energy_upper_min(F, params.q)
    flags = []
    if conjectured and F.l53 > 0.0:
        flags.append("conjectured_constant")
    if eps_star > 0.5:
        flags.append("eps_star_above_half")
    if flat:
        flags.append("exactly_flat")
    return Certificate(
        params=params, model=model, functionals=F, lda=lda,
        eps_star=eps_star, rhs_total=total, rhs_breakdown=breakdown,
        band=(lda - total, lda + total),
        advisory_envelope=(lower, upper),
        flags=tuple(flags),
    )


def _serialize(obj):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value in report: {x}")
        return "%.17g" % x
    if isinstance(obj, str):
        # report strings are plain identifiers; quote without escapes
        return '"' + obj + '"'
    if isinstance(obj, dict):
        items = (f"{_serialize(str(k))}: {_serialize(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_serialize(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_json(cert):
    """Canonical JSON report: fixed key order, 17 significant digits.

    Byte-identical across repeated runs on the same inputs.
    """
    return _serialize(cert.to_dict()) + "\n"


# ---------------------------------------------------------------------------
# scaling sweeps


def scaling_sweep(F_base, params, N_list):
    """Optimized totals along a dilation sweep and the fitted rate.

    Each N dilates F_base to rho(x / N^{1/3}) and eps is optimized per N.
    Returns (totals, slope) with the slope the least-squares log-log fit.
    """
    _require_params(params)
    N_list = [float(N) for N in N_list]
    if len(N_list) < 3:
        raise ValueError(f"need at least 3 sweep points, got {len(N_list)}")
    if any(not N > 0 for N in N_list):
        raise ValueError("sweep points must be positive")
    totals = []
    for N in N_list:
        _, total, flat = _optimum(field.scale_functionals(F_base, N), params)
        if flat:
            raise ValueError("flat functional set has no scaling rate")
        totals.append(total)
    x = np.log(np.asarray(N_list))
    y = np.log(np.asarray(totals))
    xm = x - x.mean()
    slope = float(np.dot(xm, y - y.mean()) / np.dot(xm, xm))
    return totals, slope


# ---------------------------------------------------------------------------
# localized estimates (the pieces the band is proved from)


def t_band_estimate(F, eps, q=1, C=1.0):
    """Two-sided kinetic-energy band around the Thomas-Fermi value."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    center = _tf_term(F, q)
    half = eps * q ** (-2.0 / 3.0) * F.l53 + C / eps ** (13.0 / 3.0) * F.kin
    return center - half, center + half


def tetra_band(rho0, ell, delta, alpha, C=1.0):
    """Thermodynamic-limit margins of the smeared-tetrahedron energy.

    Returns (upper_margin, avg_lower_margin, pointwise_lower_margin): the
    error magnitudes around the gas energy of a model at density rho0; the
    margins themselves are model-independent.  The averaged lower margin
    holds for the dilation average over [1-alpha, 1+alpha].
    """
    if rho0 < 0:
        raise ValueError(f"rho0 must be nonnegative, got {rho0}")
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    if not delta <= ell / 2.0:
        raise ValueError(
            f"delta = {delta:g} violates the tile convention delta <= ell/2 = {ell / 2.0:g}")
    if not (0.0 < alpha < 0.5):
        raise ValueError(f"alpha = {alpha:g} outside (0, 1/2)")
    if not rho0 ** (1.0 / 3.0) * ell >= 1.0:
        raise ValueError(
            f"pointwise regime needs rho0^(1/3) ell >= 1, got {rho0 ** (1.0 / 3.0) * ell:g}")
    upper = C * (rho0 / ell) * (
        1.0 + 1.0 / delta + delta**3 * rho0 + delta * rho0 ** (2.0 / 3.0))
    avg_lower = C * delta**2 * rho0**2 * math.log(1.0 / alpha)
    pointwise = (C * delta * (rho0 ** (5.0 / 3.0) + rho0 ** (4.0 / 3.0)) / ell
                 + C * (rho0 ** (23.0 / 15.0) + rho0 ** (18.0 / 15.0)) / ell ** 0.4)
    return upper, avg_lower, pointwise


def _flatness_grid(verts, delta):
    # midpoint grid over the delta-fattened tile's box, ~2.6 cells per delta/10
    lo = verts.min(axis=0) - 1.02 * delta
    hi = verts.max(axis=0) + 1.02 * delta
    ext = hi - lo
    n = int(np.clip(math.ceil(ext.max() / (delta / 26.0)), 48, 256))
    counts = np.maximum((n * ext / ext.max()).astype(int), 16)
    spacing = ext / counts
    origin = lo + 0.5 * spacing  # cell centers
    return field.GridSpec(tuple(int(c) for c in counts), tuple(spacing),
                          tuple(origin))


def flatness_error(rho, eps, params, ell, delta):
    """Every term of the constant-replacement displays on one tile.

    The density restricted to the smeared tile w = (tile indicator)*(bump)
    is compared against the constant rho_min (upper display) or rho_max
    (lower display); returned are two maps of the right-hand-side terms,
    each including the reference constant under "rho_ref".

    Both sets come from the Euclidean distance to the tile (a convolution
    carries roundoff where it is 0): w's support (rho_min, rho_max, weight
    gradient) is dist < delta/10, the fattened tile (theta) dist < delta.
    w and its gradient are evaluated only at the grid nodes inside T', the
    tile with its faces pushed out by delta/10, and are 0 at the others.
    The distance is measured only at the nodes inside the tile with its
    faces pushed out by delta, and reads inf at the others: a node within
    delta of the tile has every h_f < delta.
    """
    _require_params(params)
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps = {eps:g} outside (0, 1/2]")
    cfg = tiling.TilingConfig(ell, delta)
    # tile 1 of the scaled cube tiling: the same tile the smeared-tetra
    # density family is built on, so rho = rho0 * w holds exactly there
    verts = cfg.ell * tiling.unit_cube_tetrahedra()[0].vertices

    spec = rho.own_grid or _flatness_grid(verts, delta)
    rho_f = field.density_to_field(rho, spec)

    box, idx, nodes = tiling._tile_nodes(verts, cfg.smear_radius, spec)
    w_t, gw_t = tiling.xi_grad_values(cfg, 1, nodes)
    w = np.zeros(spec.dims)
    w[box][idx] = w_t
    gw2 = np.zeros(spec.dims)
    gw2[box][idx] = np.einsum("ij,ij->i", gw_t, gw_t)
    box, idx, nodes = tiling._tile_nodes(verts, delta, spec)
    dist = np.full(spec.dims, np.inf)
    dist[box][idx] = tiling._tile_distance(verts, nodes)
    fat = dist < delta

    cell = spec.cell_volume
    rv = rho_f.values
    support = dist < cfg.smear_radius
    if not support.any():
        raise ValueError("tile support does not meet the sampling grid")
    rho_min = float(rv[support].min())
    rho_max = float(rv[support].max())

    C, p = params.C, params.p
    bulk_up = C * eps * cell * float(((rv + rv**2) * w).sum())
    try:
        bulk_low = C * eps * ell**3 * (rho_max + rho_max**2)
    except OverflowError:  # rho_max**2 is past the largest double
        bulk_low = math.inf
    if not (math.isfinite(bulk_up) and math.isfinite(bulk_low)):
        raise ValueError("bulk term is not finite")

    wg = np.zeros_like(rv)
    mask = support & (w > 1e-150)
    wg[mask] = rv[mask] * gw2[mask] / (4.0 * w[mask])
    weight_gradient = C * cell * float(wg.sum())

    sk = np.zeros_like(rv)
    mask = rv > 1e-150
    sk[mask] = field._gradient_norm2(rv, spec.spacing)[mask] / (4.0 * rv[mask])
    kin = C / eps * cell * float((sk * w).sum())
    if not math.isfinite(kin):
        raise ValueError("kinetic term is not finite")

    th_integrand = field._gradient_norm2(rv**params.theta, spec.spacing) ** (p / 2.0)
    if not np.isfinite(th_integrand[fat]).all():
        raise ValueError("theta-gradient integrand is not finite on the fattened tile")
    coeff = C * (ell ** (2.0 * p) / eps ** (p - 1.0)
                 + ell**p / eps ** (1.25 * p - 1.0))
    theta = coeff * cell * float(th_integrand[fat].sum())

    upper = {"bulk": bulk_up, "weight_gradient": weight_gradient,
             "kin": kin, "theta": theta, "rho_ref": rho_min}
    lower = {"bulk": bulk_low,
             "transition_layer": C * ell**2 * rho_max / delta,
             "kin": kin, "theta": theta, "rho_ref": rho_max}
    return upper, lower


def subadditivity_gap(F1, F2, D2, eps, C=1.0):
    """Rough cost of adding a small density rho2 on top of rho1.

    D2 is the self-interaction of rho2; its (1-eps)/eps coefficient
    dominates as eps -> 0 and carries no C.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps = {eps:g} outside (0, 1]")
    return (C * eps * (F1.l53 + F1.l43)
            + C * eps ** (-2.0 / 3.0) * F2.l53
            + C * (F2.kin + eps * F1.kin)
            + (1.0 - eps) / eps * D2)


def choice_ell_delta(eps):
    """The tile scales the band assembly uses at localization eps.

    delta = sqrt(eps) and ell = eps^{-3/2}, which makes the combined bulk
    coefficient delta^2 + 1/(ell delta) equal to 2 eps.
    """
    if not (0.0 < eps < 2.0**-0.5):
        raise ValueError(f"eps = {eps:g} outside (0, 1/sqrt(2))")
    return eps**-1.5, math.sqrt(eps)
