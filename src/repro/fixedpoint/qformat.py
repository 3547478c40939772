"""Q-format descriptor for signed fixed-point numbers.

A ``QFormat(total_bits, frac_bits)`` describes signed two's-complement
fixed point with ``total_bits - frac_bits - 1`` integer bits.  The paper's
datapath is INT16; the default format used across the package is Q16.8
(8 fractional bits), which covers the activation ranges of the evaluated
networks after per-tensor scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.domains import at_least, check_fields


def cached_field_hash(self) -> int:
    """``__hash__`` of the frozen dataclasses that key hot-path dicts (plan
    cache, calibrator, cost-model memos): the hash of the field values,
    computed once per object."""
    try:
        return self.__dict__["_hash"]
    except KeyError:
        value = hash(tuple(getattr(self, f.name) for f in fields(self)))
        return self.__dict__.setdefault("_hash", value)


def state_without_hash(self) -> dict:
    """``__getstate__`` beside :func:`cached_field_hash`: pickle and copy
    never carry the cached value, because ``hash(None)`` (a config's
    ``l3_out_width``) differs between processes before Python 3.12."""
    return {key: value for key, value in self.__dict__.items() if key != "_hash"}


@dataclass(frozen=True)
class QFormat:
    """Signed two's-complement fixed-point format.

    Parameters
    ----------
    total_bits:
        Total width of the representation, including the sign bit.
    frac_bits:
        Number of fractional bits.  The represented value of a raw
        integer ``r`` is ``r * 2**-frac_bits``.
    """

    total_bits: int = 16
    frac_bits: int = 8
    __hash__ = cached_field_hash
    __getstate__ = state_without_hash

    DOMAINS = dict(total_bits=at_least(2), frac_bits=at_least(0))

    def __post_init__(self) -> None:
        check_fields(self)
        if self.frac_bits >= self.total_bits:
            raise ValueError(
                f"frac_bits ({self.frac_bits}) must be < total_bits "
                f"({self.total_bits})"
            )

    @property
    def scale(self) -> float:
        """Value of one least-significant bit (2**-frac_bits)."""
        return 2.0 ** -self.frac_bits

    @property
    def raw_min(self) -> int:
        """Smallest representable raw integer."""
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        """Largest representable raw integer."""
        return (1 << (self.total_bits - 1)) - 1

    def storage_dtype(self) -> np.dtype:
        """Smallest numpy signed integer dtype that holds raw values."""
        if self.total_bits <= 8:
            return np.dtype(np.int8)
        if self.total_bits <= 16:
            return np.dtype(np.int16)
        if self.total_bits <= 32:
            return np.dtype(np.int32)
        return np.dtype(np.int64)


#: The paper's default datapath precision (INT16, Section V-A).
INT16 = QFormat(16, 8)

#: A wider debugging format used by some tests to isolate CPWL error
#: from quantization error.
INT32 = QFormat(32, 16)
