"""Data-rearrange module (Fig. 6).

The Matrix Hadamard Product involves three matrices (``X``, ``K``,
``B``) but the array has only two input channels.  The memory-relocation
module therefore interleaves each ``k`` with its ``b`` into the weight
stream, and each ``x`` with the constant ``1`` into the input stream, so
the existing two channels carry all three operands and every computation
PE executes a two-term dot product per output element.

This module builds the two streams, the addressing order (which row of
the array each element is routed to) and the cycle cost of the
relocation pass.  The array charges the pass as part of the MHP event
and builds nothing; the streams exist here for the dataflow tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RearrangedOperands:
    """Output of the data-rearrange pass for one MHP tile batch.

    Attributes
    ----------
    input_stream:
        ``(rows, 2 * cols)`` interleaved ``(x, 1)`` stream.
    weight_stream:
        ``(rows, 2 * cols)`` interleaved ``(k, b)`` stream.
    row_assignment:
        Array row each input row is injected into (round-robin over the
        PE rows; the diagonal computation PE of that row consumes it).
    cycles:
        Cycle cost of the relocation pass: the module re-emits each
        element pair once at the L3 input port width.
    """

    input_stream: np.ndarray
    weight_stream: np.ndarray
    row_assignment: np.ndarray
    cycles: int


def rearrange_cycles(m_dim: int, n_dim: int, port_width: int = 16) -> int:
    """Cycle cost of the relocation pass, derived analytically.

    The module re-emits each element pair once: the interleaved input
    and weight streams each carry ``2 * M * N`` elements, moved at the
    L3 input port width.  Identical to
    ``rearrange_for_mhp(...).cycles`` without constructing the streams.
    The relocation rides the MHP injection (its cost is part of the MHP
    event's fill/compute phases, as in the seed model), so the array
    records no separate rearrange event and never builds the streams.
    """
    total_elements = 4 * m_dim * n_dim
    return -(-total_elements // port_width)


def rearrange_for_mhp(
    x_raw: np.ndarray,
    k_raw: np.ndarray,
    b_raw: np.ndarray,
    pe_rows: int,
    one_raw: int,
    port_width: int = 16,
) -> RearrangedOperands:
    """Run the memory-relocation pass for one MHP.

    Parameters
    ----------
    x_raw, k_raw, b_raw:
        Same-shaped raw matrices (output of the IPF event).
    pe_rows:
        Number of array rows operands are distributed over.
    one_raw:
        Fixed-point representation of the constant ``1`` paired with each
        ``x`` (``1 << frac_bits``).
    port_width:
        Elements per cycle the relocation module moves.
    """
    x_raw = np.atleast_2d(np.asarray(x_raw))
    k_raw = np.atleast_2d(np.asarray(k_raw))
    b_raw = np.atleast_2d(np.asarray(b_raw))
    if not (x_raw.shape == k_raw.shape == b_raw.shape):
        raise ValueError(
            f"rearrange operands must share a shape, got {x_raw.shape}, "
            f"{k_raw.shape}, {b_raw.shape}"
        )
    ones = np.full_like(x_raw, one_raw)
    input_stream = np.stack([x_raw, ones], axis=-1).reshape(x_raw.shape[0], -1)
    weight_stream = np.stack([k_raw, b_raw], axis=-1).reshape(k_raw.shape[0], -1)
    rows = x_raw.shape[0]
    row_assignment = np.arange(rows) % pe_rows
    total_elements = input_stream.size + weight_stream.size
    cycles = -(-total_elements // port_width)
    return RearrangedOperands(
        input_stream=input_stream,
        weight_stream=weight_stream,
        row_assignment=row_assignment,
        cycles=cycles,
    )

