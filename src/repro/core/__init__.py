"""ONE-SA core: capped piecewise linearization of nonlinear operations.

This subpackage implements the paper's primary contribution (Section III):

* a library of the scalar nonlinear functions that appear in the evaluated
  networks (:mod:`repro.core.functions`);
* construction of CPWL segment tables with power-of-two-friendly
  granularities (:mod:`repro.core.segment_table`);
* the CPWL approximation engine with error analysis
  (:mod:`repro.core.cpwl`);
* Intermediate Parameter Fetching (:mod:`repro.core.ipf`), the first
  of the two architecture-level events the array executes (the Matrix
  Hadamard Product is :func:`repro.fixedpoint.fixed_hadamard_mac`);
* composite operations (softmax, layer normalization, batch
  normalization) decomposed into CPWL primitives plus linear reductions
  (:mod:`repro.core.nonlinear_ops`);
* granularity selection utilities (:mod:`repro.core.granularity`).
"""

from repro.core.functions import (
    FUNCTION_LIBRARY,
    NonlinearFunction,
    get_function,
    register_function,
)
from repro.core.segment_table import SegmentTable, build_segment_table
from repro.core.cpwl import CPWLApproximator, approximation_error
from repro.core.ipf import IPFResult, fetch_parameters, segment_indices
from repro.core.nonlinear_ops import (
    clear_approximator_cache,
    cpwl_batchnorm,
    cpwl_gelu,
    cpwl_layernorm,
    cpwl_relu,
    cpwl_sigmoid,
    cpwl_softmax,
    cpwl_tanh,
)
from repro.core.granularity import (
    GranularityChoice,
    recommend_granularity,
    sweep_granularity,
)

__all__ = [
    "NonlinearFunction",
    "FUNCTION_LIBRARY",
    "get_function",
    "register_function",
    "SegmentTable",
    "build_segment_table",
    "CPWLApproximator",
    "approximation_error",
    "IPFResult",
    "segment_indices",
    "fetch_parameters",
    "cpwl_gelu",
    "cpwl_relu",
    "cpwl_sigmoid",
    "cpwl_tanh",
    "cpwl_softmax",
    "cpwl_layernorm",
    "cpwl_batchnorm",
    "clear_approximator_cache",
    "GranularityChoice",
    "recommend_granularity",
    "sweep_granularity",
]
