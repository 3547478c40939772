"""Differential tests: the oracles of ``tests/reference`` against what the
array computes and charges, on drawn design points and shapes.

Each relation is one that a fixed case of ``test_cycle_sim.py`` or
``test_traced_equivalence.py`` states; here hypothesis draws the design
point (grid, MACs per PE), the operand shapes and the operand scale
(60 drives the GEMM accumulator into saturation):

* values — the per-tile GEMM and the PE grid give ``fixed_matmul``'s
  codes, the lane-by-lane MHP and the PE grid give
  ``fixed_hadamard_mac``'s, and the structural chain gives
  ``CPWLBackend``'s ReLU / GELU;
* cycles — the PE grid's tile time is one tile's compute plus the skew
  of the tile (``test_cycle_count_close_to_model``), read off the
  closed form ``charge_gemm`` records; the structural chain is charged
  exactly what ``charge_nonlinear`` records.

MHP points draw every MAC count: the PE grid injects ``macs_per_pe / 2``
``(x, 1)`` / ``(k, b)`` pairs per lane per cycle, as the closed form
charges, and a one-MAC PE takes a pair over two cycles.  One narrowing,
a property of the closed form: the MHP cycle relation draws every lane
equally loaded, because the closed form charges the mean lane's
injection (``ceil(2 * elements / (P * macs))``) where the grid runs as
long as its longest lane.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint import INT16, fixed_hadamard_mac, fixed_matmul, quantize
from repro.nn.executor import ArrayBackend, CPWLBackend
from repro.systolic import SystolicArray, SystolicConfig
from repro.systolic.mhp_dataflow import plan_mhp

from tests.reference.chain import ChainArray, ChainBackend
from tests.reference.cycle_sim import CycleSimulator
from tests.reference.dataflow import (
    execute_gemm_per_tile,
    execute_mhp_per_lane,
    lane_rows,
    tiles,
)

SETTINGS = settings(max_examples=20, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)
SCALES = st.sampled_from([0.5, 4.0, 60.0])


def _codes(seed, scale, *shapes):
    rng = np.random.default_rng(seed)
    return [quantize(rng.normal(scale=scale, size=shape), INT16) for shape in shapes]


@st.composite
def gemm_points(draw):
    """A design point (square ONE-SA or rectangular plain SA) and a GEMM
    of up to 3 x 3 output tiles."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    config = SystolicConfig(
        pe_rows=rows,
        pe_cols=cols,
        macs_per_pe=draw(st.sampled_from([1, 2, 4, 16])),
        nonlinear_enabled=rows == cols,
    )
    m, n = draw(st.integers(1, 3 * rows)), draw(st.integers(1, 3 * cols))
    return config, m, draw(st.integers(1, 24)), n


@st.composite
def mhp_points(draw, balanced=False):
    p = draw(st.integers(1, 4))
    config = SystolicConfig(
        pe_rows=p, pe_cols=p, macs_per_pe=draw(st.sampled_from([1, 2, 4, 16]))
    )
    rows = p * draw(st.integers(1, 3)) if balanced else draw(st.integers(1, 12))
    return config, rows, draw(st.integers(1, 8))


@given(point=gemm_points(), seed=SEEDS, scale=SCALES)
@SETTINGS
def test_gemm_oracles_equal_what_the_array_computes_and_charges(point, seed, scale):
    config, m, k, n = point
    a, b = _codes(seed, scale, (m, k), (k, n))
    want = fixed_matmul(a, b, INT16)
    array = SystolicArray(config)
    with array.capture() as tape:
        got = array.gemm_raw(a, b)
    ((event, count),) = tape
    tiled, schedule = execute_gemm_per_tile(config, a, b, use_plan_cache=False)
    assert np.array_equal(got, want) and np.array_equal(tiled, want)
    assert count == 1 and event.breakdown == schedule.breakdown
    tiling = tiles(schedule)
    per_tile, rest = divmod(event.breakdown.compute, len(tiling))
    assert rest == 0 and per_tile == -(-k // config.macs_per_pe)
    for tile in tiling:
        rows, cols = tile.row_end - tile.row_start, tile.col_end - tile.col_start
        sim = CycleSimulator(config).run_gemm_tile(
            a[tile.row_start : tile.row_end], b[:, tile.col_start : tile.col_end]
        )
        assert np.array_equal(
            sim.output, want[tile.row_start : tile.row_end, tile.col_start : tile.col_end]
        )
        assert sim.cycles == per_tile + (rows - 1) + (cols - 1) + 1
        # K streams in whole chunks of macs_per_pe lanes, zero-padded.
        assert sim.mac_ops_by_pe.sum() == rows * cols * per_tile * config.macs_per_pe
        # The closed form charges every tile the full grid's skew.
        assert sim.cycles <= event.breakdown.fill + 1
        if (rows, cols) == (config.pe_rows, config.pe_cols):
            assert sim.cycles == event.breakdown.fill + 1


@given(point=mhp_points(), seed=SEEDS, scale=SCALES)
@SETTINGS
def test_mhp_oracles_equal_the_whole_operand_mac(point, seed, scale):
    config, rows, cols = point
    x, k, b = _codes(seed, scale, *[(rows, cols)] * 3)
    want = fixed_hadamard_mac(x, k, b, INT16)
    lanes, schedule = execute_mhp_per_lane(config, x, k, b)
    assert np.array_equal(lanes, want)
    assert schedule.breakdown == plan_mhp(config, rows, cols).breakdown
    assert sorted(np.concatenate(lane_rows(schedule)).tolist()) == list(range(rows))
    sim = CycleSimulator(config).run_mhp(x, k, b)
    assert np.array_equal(sim.output, want)
    # Computation PEs on the diagonal, two MACs per element of their lane.
    loads = [r.size * cols * 2 for r in lane_rows(schedule)]
    assert np.array_equal(np.diag(sim.mac_ops_by_pe), loads)
    assert sim.mac_ops_by_pe.sum() == 2 * rows * cols


@given(point=mhp_points(balanced=True), seed=SEEDS)
@SETTINGS
def test_mhp_cycle_sim_runs_as_long_as_the_charge(point, seed):
    config, rows, cols = point
    x, k, b = _codes(seed, 1.0, *[(rows, cols)] * 3)
    array = SystolicArray(config)
    with array.capture() as tape:
        array.charge_nonlinear("gelu", (rows, cols), 0.25)
    (mhp,) = [event for event, _ in tape if event.kind == "mhp"]
    sim = CycleSimulator(config).run_mhp(x, k, b)
    assert sim.cycles == mhp.breakdown.compute + mhp.breakdown.drain + 1


@given(
    point=mhp_points(),
    seed=SEEDS,
    function=st.sampled_from(["relu", "gelu"]),
    granularity=st.sampled_from([0.25, 0.5]),
)
@SETTINGS
def test_structural_chain_computes_cpwl_values_and_is_charged_the_same(
    point, seed, function, granularity
):
    config, rows, cols = point
    x = np.random.default_rng(seed).normal(scale=3.0, size=(rows, cols))
    chain = ChainBackend(ChainArray(config), granularity)
    charged = ArrayBackend(SystolicArray(config), granularity)
    reference = getattr(CPWLBackend(granularity), function)(x)
    for backend in (chain, charged):
        for _ in range(2):  # the second call finds its table resident
            assert getattr(backend, function)(x).tobytes() == reference.tobytes()
    ours, theirs = charged.array.trace, chain.array.trace
    assert len(ours) == len(theirs) == 5  # preload, then ipf + mhp twice
    assert ours.cycles_by_kind() == theirs.cycles_by_kind()
    assert ours.ops_by_kind() == theirs.ops_by_kind()
    assert ours.cycles_by_label() == theirs.cycles_by_label()
