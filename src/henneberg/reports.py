"""Aggregated verification reports (JSON-serializable, schema version 1)."""

from __future__ import annotations

import math

import numpy as np

from .errors import PeriodError
from .geometry import ISOMETRY_REL_TOL, enumerate_isometries, flux_exactness
from .period import (
    PERIOD_TOL,
    ModuliPoint,
    horizontal_residual_m2,
    period_residuals,
    vertical_residual_m2,
)
from .weierstrass import EXACTNESS_TOL, WeierstrassData, stability_report

SCHEMA_VERSION = 1

TOLERANCES = {
    "period": PERIOD_TOL,
    "flux_exact": EXACTNESS_TOL,
    "isometry_rel": ISOMETRY_REL_TOL,
}


def _c2(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _m2_gauge_point(data: WeierstrassData):
    """ModuliPoint view of complexity-2 data when a_1 is real positive."""
    if data.m != 2:
        return None
    angles = data.config.angles
    if abs(math.remainder(angles[0], 2 * math.pi)) > 1e-12:
        return None
    beta = math.atan2(data.c.imag, data.c.real)
    return ModuliPoint(
        data.config.moduli[0],
        data.config.moduli[1],
        data.config.moduli[2],
        angles[1],
        angles[2],
        beta,
    )


def verification_report(
    data: WeierstrassData,
    label: str = "custom",
    isometries_for: int = None,
) -> dict:
    """Collect period, flux, stability, and (optionally) isometry checks.

    ``isometries_for`` enumerates the symmetric-example isometry group of
    that complexity, certified on H_m (surface_hm) whatever ``data`` is;
    leave None for data without the full symmetry.  The isometries are
    certified on Laurent coefficients, not on sampled points.
    """
    res = period_residuals(data)
    period_pass = res.passes(TOLERANCES["period"])
    flux = flux_exactness(data)
    report = {
        "schema": SCHEMA_VERSION,
        "surface": label,
        "complexity": data.m,
        "c": _c2(data.c),
        "c_scale": float(data.c_scale),
        "tolerances": dict(TOLERANCES),
        "period": {
            "horizontal": _c2(res.horizontal),
            "vertical": float(res.vertical),
            "onesided": float(res.onesided),
            "pass": bool(period_pass),
        },
        "flux": {
            "residues": list(flux),
            "exact": bool(max(flux) < TOLERANCES["flux_exact"]),
        },
        "pass": bool(period_pass),
    }

    point = _m2_gauge_point(data)
    if point is not None:
        report["m2_system"] = {
            "F": _c2(horizontal_residual_m2(point)),
            "G": float(vertical_residual_m2(point)),
        }

    try:
        stab = stability_report(data)
    except PeriodError:
        stab = None
    if stab is not None:
        report["stability"] = {
            "gauss_map_is_diffeomorphism": stab.gauss_map_is_diffeomorphism,
            "stable": bool(stab.stable),
            "branch_image_count": int(stab.distinct_image_count),
            "count_ok": bool(stab.images_ok),
        }
        report["branch_points"] = [
            {
                "r": float(abs(a)),
                "theta": float(np.angle(a)),
                "image": img.tolist(),
            }
            for a, img in zip(stab.branch_points, stab.branch_images)
        ]

    if isometries_for is not None:
        certs = enumerate_isometries(isometries_for)
        report["isometries"] = {
            "count": len(certs),
            "all_pass": bool(all(c.passed for c in certs)),
            "elements": [
                {
                    "map": c.pmap.describe(),
                    "matrix": c.motion.matrix.tolist(),
                    "translation": c.motion.translation.tolist(),
                    "residual": float(c.residual),
                    "pass": bool(c.passed),
                }
                for c in certs
            ],
        }
        report["pass"] = bool(report["pass"] and report["isometries"]["all_pass"])

    return report
