"""Design-point configuration of the (ONE-)systolic array.

A :class:`SystolicConfig` pins down one point of the design space the
paper sweeps: the PE grid, the number of MACs per PE, the clock, the
memory-port widths and the buffer geometry.  Buffer sizes follow the
derivations that reproduce the paper's Table V exactly for the 8×8 /
16-MAC configuration used in Table IV:

* **L1** (per PE input/weight registers) — ``macs_per_pe`` INT16 entries
  = 32 B at 16 MACs → the paper's 0.031 KB;
* **PE output buffer** — ``3 * macs_per_pe`` INT16 entries (input reg,
  weight reg and output lane per MAC) = 96 B → 0.094 KB;
* **L2** (one bank per array edge lane, 3 edges: input, weight, output)
  — ``2 * pe_rows * macs_per_pe`` INT16 entries (double-buffered row of
  operands) = 512 B → 0.5 KB, 24 banks for an 8×8 array;
* **L3** — ``pe_rows * macs_per_pe`` INT16 entries plus a 32 B FIFO
  region = 288 B → the paper's 0.28 KB, 3 instances (input, weight,
  output).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.domains import BOOL, POSITIVE, POSITIVE_INT, check_fields, instance_of
from repro.domains import optional
from repro.fixedpoint import QFormat
from repro.fixedpoint.qformat import INT16, cached_field_hash, state_without_hash


@dataclass(frozen=True)
class SystolicConfig:
    """One design point of the (ONE-)SA design space.

    Parameters
    ----------
    pe_rows, pe_cols:
        PE grid dimensions.  The MHP diagonal dataflow requires
        ``pe_rows == pe_cols``, so ONE-SA design points
        (``nonlinear_enabled=True``) must be square; conventional SA
        baselines may use rectangular grids (GEMM tiles are then
        ``pe_rows x pe_cols``).
    macs_per_pe:
        Parallel multiply-accumulate units inside each PE (the paper
        sweeps 2–32; 16 is the Pareto-optimal choice of Fig. 10).
    clock_hz:
        Array clock.  Virtex-7 HLS designs of this family close timing
        around 200–250 MHz; the default reproduces the paper's
        throughput magnitudes.
    fmt:
        Datapath fixed-point format (INT16 per Section V-A).
    nonlinear_enabled:
        True for ONE-SA, False for the conventional SA baseline (used by
        the resource-comparison experiments).
    l3_out_width:
        Elements per cycle the L3 output buffer accepts from the L2
        output banks (GEMM result drain).  ``None`` (default) derives
        ``max(1, pe_cols // 4)`` — one quarter of the column lanes —
        which reproduces the Section V-C observation that draining a
        32×32 result from a 16×16 array takes ~85% of the cycles.
    l3_in_width:
        Elements per cycle each of the L3 input/weight buffers delivers.
    segment_capacity:
        CPWL (k, b) pairs the L3 parameter store can hold resident.
    """

    pe_rows: int = 8
    pe_cols: int = 8
    macs_per_pe: int = 16
    clock_hz: float = 250e6
    fmt: QFormat = field(default_factory=lambda: INT16)
    nonlinear_enabled: bool = True
    l3_out_width: "int | None" = None
    l3_in_width: int = 16
    segment_capacity: int = 256
    __hash__ = cached_field_hash
    __getstate__ = state_without_hash

    DOMAINS = dict(
        pe_rows=POSITIVE_INT, pe_cols=POSITIVE_INT, macs_per_pe=POSITIVE_INT,
        clock_hz=POSITIVE, fmt=instance_of(QFormat), nonlinear_enabled=BOOL,
        l3_out_width=optional(POSITIVE_INT), l3_in_width=POSITIVE_INT,
        segment_capacity=POSITIVE_INT,
    )

    def __post_init__(self) -> None:
        check_fields(self)
        if self.nonlinear_enabled and self.pe_rows != self.pe_cols:
            raise ValueError(
                "ONE-SA requires a square PE grid (diagonal MHP dataflow); "
                f"got {self.pe_rows}x{self.pe_cols}"
            )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def n_pes(self) -> int:
        """Total number of processing elements."""
        return self.pe_rows * self.pe_cols

    @property
    def n_l2_banks(self) -> int:
        """L2 bank count: one bank per array edge lane.

        Inputs stream across the ``pe_rows`` row lanes; weights load and
        results drain through the ``pe_cols`` column lanes (consistent
        with the column-lane drain model in the timing module).  Equals
        ``3 * P`` on the square grids of the paper.
        """
        return self.pe_rows + 2 * self.pe_cols

    @property
    def n_l3_buffers(self) -> int:
        """L3 instances: input, weight, output."""
        return 3

    @property
    def element_bytes(self) -> int:
        """Storage bytes per datapath element."""
        return (self.fmt.total_bits + 7) // 8

    # ------------------------------------------------------------------
    # Buffer geometry (reproduces Table V at the paper's design point)
    # ------------------------------------------------------------------
    @property
    def l1_bytes(self) -> int:
        """Per-PE L1 register file: one operand per MAC."""
        return self.macs_per_pe * self.element_bytes

    @property
    def pe_buffer_bytes(self) -> int:
        """Per-PE working buffer: input reg + weight reg + output lane."""
        return 3 * self.macs_per_pe * self.element_bytes

    @property
    def l2_bytes(self) -> int:
        """Per-bank L2: double-buffered operand row for one array edge.

        Sized for the longer edge so rectangular grids hold a full
        operand row on every lane (``pe_rows == pe_cols`` in the
        paper's design points, so Table V is unchanged).
        """
        edge = max(self.pe_rows, self.pe_cols)
        return 2 * edge * self.macs_per_pe * self.element_bytes

    @property
    def l3_bytes(self) -> int:
        """Per-instance L3: one operand row plus the FIFO region."""
        edge = max(self.pe_rows, self.pe_cols)
        return edge * self.macs_per_pe * self.element_bytes + 32

    @property
    def total_buffer_bytes(self) -> int:
        """Aggregate on-chip buffer footprint (Table V's 'Total' row)."""
        return (
            self.n_l3_buffers * self.l3_bytes
            + self.n_l2_banks * self.l2_bytes
            + self.n_pes * self.pe_buffer_bytes
            + self.n_pes * self.l1_bytes
        )

    # ------------------------------------------------------------------
    # Peak rates
    # ------------------------------------------------------------------
    @property
    def macs_per_cycle(self) -> int:
        """Array-wide MAC operations per cycle in GEMM mode."""
        return self.n_pes * self.macs_per_pe

    @property
    def mhp_elements_per_cycle(self) -> float:
        """Peak MHP outputs per cycle in nonlinear mode.

        Only the ``pe_rows`` diagonal computation PEs produce results and
        each output consumes a two-term dot product, so the peak is
        ``pe_rows * macs_per_pe / 2``.
        """
        return self.pe_rows * self.macs_per_pe / 2.0

    # ------------------------------------------------------------------
    # Cost estimation (consumed by cluster placement)
    # ------------------------------------------------------------------
    @cached_property
    def cycle_key(self) -> "SystolicConfig":
        """This design point with the clock normalised out (cycles do
        not scale with it): the key of cycle estimates, built once per
        config object because placement asks for it on every estimate."""
        return replace(self, clock_hz=1.0)

    def estimate_gemm_cycles(self, m_dim: int, k_dim: int, n_dim: int) -> int:
        """Closed-form cycles of ``(M,K) @ (K,N)`` on this design point.

        The hook cost-aware cluster placement estimates candidate
        shards with; delegates to
        :func:`repro.systolic.timing.gemm_cycles` (the same model the
        plan cache stores), imported lazily to keep the layering
        acyclic.
        """
        from repro.systolic.timing import gemm_cycles

        return gemm_cycles(self, m_dim, k_dim, n_dim).total

    def describe(self) -> str:
        """Short human-readable design-point label, e.g. ``'8x8x16'``."""
        kind = "ONE-SA" if self.nonlinear_enabled else "SA"
        return f"{kind} {self.pe_rows}x{self.pe_cols} PEs, {self.macs_per_pe} MACs/PE"


#: The configuration evaluated in Table IV: 64 PEs, 16 MACs per PE.
ONE_SA_PAPER_CONFIG = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16)

#: The conventional-array baseline at the same design point.
SA_PAPER_CONFIG = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, nonlinear_enabled=False)
