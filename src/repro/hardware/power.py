"""Power model (replaces the Xilinx Power Estimator reports).

Total power is static plus per-resource dynamic power::

    P = P_static + activity * (f / f0) * (w_lut LUT + w_ff FF
                                          + w_bram BRAM + w_dsp DSP)

The per-resource weights are typical Virtex-7 XPE coefficients at the
reference clock; a single global calibration factor then pins the model
to the paper's published operating point — 7.61 W for the 64-PE /
16-MAC ONE-SA of Table IV.  Across the swept design space (4–256 PEs,
2–32 MACs) the model spans roughly 4–15 W, the band Fig. 10 shows.
"""

from __future__ import annotations

from repro.hardware.resources import ArrayResources, total_resources
from repro.systolic.config import SystolicConfig

#: Static power of the Virtex-7 fabric (W).
STATIC_WATTS = 0.9

#: Reference clock of the dynamic-power weights (Hz).
REFERENCE_CLOCK_HZ = 250e6

#: Per-resource dynamic weights at the reference clock (W per unit).
DYNAMIC_WEIGHTS = {
    "lut": 8.0e-6,
    "ff": 4.0e-6,
    "bram": 2.5e-3,
    "dsp": 1.6e-3,
}

#: Published anchor: Table IV reports 7.61 W for ONE-SA with 64 PEs and
#: 16 MACs per PE while running the evaluated networks.
_ANCHOR_CONFIG = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16)
_ANCHOR_WATTS = 7.61
_ANCHOR_ACTIVITY = 0.85  # sustained network inference, mostly GEMM


def _raw_dynamic(resources: ArrayResources) -> float:
    """Uncalibrated dynamic power of a resource vector at f0, activity 1."""
    return (
        DYNAMIC_WEIGHTS["lut"] * resources.lut
        + DYNAMIC_WEIGHTS["ff"] * resources.ff
        + DYNAMIC_WEIGHTS["bram"] * resources.bram
        + DYNAMIC_WEIGHTS["dsp"] * resources.dsp
    )


def _calibration_factor() -> float:
    """Global factor that makes the model exact at the Table IV anchor."""
    anchor_dynamic = _raw_dynamic(total_resources(_ANCHOR_CONFIG))
    target_dynamic = _ANCHOR_WATTS - STATIC_WATTS
    return target_dynamic / (anchor_dynamic * _ANCHOR_ACTIVITY)


_CALIBRATION = _calibration_factor()


def power_watts(
    config: SystolicConfig,
    activity: float = _ANCHOR_ACTIVITY,
    clock_hz: "float | None" = None,
) -> float:
    """Estimated total power of a design point.

    Parameters
    ----------
    config:
        The design point (its resource vector drives dynamic power).
    activity:
        Average switching activity / utilization in [0, 1].  GEMM-heavy
        inference sustains high activity; MHP phases toggle only the
        diagonal PEs, which callers model by passing the phase-weighted
        activity (see :func:`phase_weighted_activity`).
    clock_hz:
        Clock override; defaults to the design point's own clock.
    """
    if not 0.0 <= activity <= 1.0:
        raise ValueError(f"activity must be in [0, 1], got {activity}")
    clock = config.clock_hz if clock_hz is None else clock_hz
    dynamic = (
        _CALIBRATION
        * activity
        * (clock / REFERENCE_CLOCK_HZ)
        * _raw_dynamic(total_resources(config))
    )
    return STATIC_WATTS + dynamic


def phase_weighted_activity(
    config: SystolicConfig,
    gemm_cycle_share: float,
    mhp_cycle_share: float,
    idle_share: float = 0.0,
    base_activity: float = _ANCHOR_ACTIVITY,
) -> float:
    """Average activity over an execution's GEMM / MHP / idle phases.

    During MHP only the ``pe_rows`` diagonal PEs (of ``n_pes``) switch,
    plus the always-on buffer fabric (modelled at 30% of dynamic), so a
    nonlinear-heavy workload draws measurably less power — the effect
    behind the lower nonlinear power points of Fig. 10(b).
    """
    shares = gemm_cycle_share + mhp_cycle_share + idle_share
    if shares <= 0:
        return 0.0
    diag_fraction = config.pe_rows / config.n_pes
    mhp_activity = base_activity * (0.3 + 0.7 * diag_fraction)
    idle_activity = 0.05 * base_activity
    weighted = (
        gemm_cycle_share * base_activity
        + mhp_cycle_share * mhp_activity
        + idle_share * idle_activity
    )
    return weighted / shares
