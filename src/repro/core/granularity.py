"""Granularity selection.

Section V-B: "Theoretically, the proposed ONE-SA architecture can support
any approximation granularity.  In practice, the approximation
granularity is limited by the size of the L3 buffer and the range of
uncapped approximation. ... Advanced neural network architecture search
(NAS) can also be applied further to select the granularities."

This module implements the practical selection logic: enumerate
candidate granularities, discard those whose tables exceed the L3 k/b
buffer budget, score the survivors by approximation error, and pick the
coarsest granularity that meets an error target (coarser tables mean
fewer parameters to preload per operation).  The paper's default choice
of 0.25 falls out of this procedure for the evaluated functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.cpwl import CPWLApproximator
from repro.fixedpoint import QFormat
from repro.fixedpoint.qformat import INT16

#: The sweep used throughout the paper's Table III.
PAPER_GRANULARITIES: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class GranularityChoice:
    """One evaluated granularity candidate."""

    granularity: float
    n_segments: int
    storage_bytes: int
    max_abs_error: float
    rmse: float
    fits_l3: bool
    shift_path: bool


def sweep_granularity(
    function: str,
    granularities: Iterable[float] = PAPER_GRANULARITIES,
    fmt: Optional[QFormat] = INT16,
    l3_budget_bytes: int = 1024,
    n_points: int = 4096,
) -> List[GranularityChoice]:
    """Evaluate candidate granularities for one nonlinear function.

    Parameters
    ----------
    function:
        Registered function name.
    granularities:
        Candidate segment lengths.
    fmt:
        Datapath format (errors include quantization when set).
    l3_budget_bytes:
        k/b parameter storage available in the L3 buffer.  The paper's
        L3 holds 0.28 KB per buffer (Table V); the default budget allows
        tables to span multiple loads.
    n_points:
        Density of the error sweep over the approximation domain.
    """
    results = []
    for g in granularities:
        approx = CPWLApproximator(function, g, fmt=fmt)
        err = approx.error_profile(n_points=n_points)
        table = approx.table
        results.append(
            GranularityChoice(
                granularity=float(g),
                n_segments=table.n_segments,
                storage_bytes=table.storage_bytes,
                max_abs_error=err.max_abs,
                rmse=err.rmse,
                fits_l3=table.storage_bytes <= l3_budget_bytes,
                shift_path=table.shift_path,
            )
        )
    return results


def recommend_granularity(
    function: str,
    max_error: float = 0.01,
    granularities: Iterable[float] = PAPER_GRANULARITIES,
    fmt: Optional[QFormat] = INT16,
    l3_budget_bytes: int = 1024,
) -> GranularityChoice:
    """Coarsest granularity meeting the error target within the L3 budget.

    Raises ``ValueError`` when no candidate qualifies — the caller should
    then either relax the error target or grow the L3 budget, the exact
    trade-off Section V-B describes.
    """
    candidates = sweep_granularity(
        function, granularities, fmt=fmt, l3_budget_bytes=l3_budget_bytes
    )
    feasible = [c for c in candidates if c.fits_l3 and c.max_abs_error <= max_error]
    if not feasible:
        raise ValueError(
            f"no granularity in {list(granularities)} meets max_error="
            f"{max_error} within {l3_budget_bytes} B for {function!r}"
        )
    return max(feasible, key=lambda c: c.granularity)
