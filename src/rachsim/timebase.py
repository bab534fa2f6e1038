"""Clock and numerology arithmetic.

The simulator runs on an integer tick lattice of 1/56 ms at the reference
frame configuration (15 kHz subcarriers, 7 symbols per slot). Every supported
numerology scales the reference frame by an exact rational factor whose
product with 56 is an integer, so scaled durations are always exact tick
counts and event ordering never depends on floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

TICKS_PER_MS = 56

SUBCARRIER_SPACINGS_KHZ = (15, 30, 60, 120)
SYMBOLS_PER_SLOT = (7, 4, 2)


@dataclass(frozen=True)
class Numerology:
    """Frame configuration: subcarrier spacing and slot length."""

    subcarrier_spacing_khz: int = 15
    symbols_per_slot: int = 7

    def __post_init__(self) -> None:
        if self.subcarrier_spacing_khz not in SUBCARRIER_SPACINGS_KHZ:
            raise ValueError(
                f"subcarrier_spacing_khz must be one of "
                f"{SUBCARRIER_SPACINGS_KHZ}, got {self.subcarrier_spacing_khz}"
            )
        if self.symbols_per_slot not in SYMBOLS_PER_SLOT:
            raise ValueError(
                f"symbols_per_slot must be one of {SYMBOLS_PER_SLOT}, "
                f"got {self.symbols_per_slot}"
            )


def time_scale_fraction(numerology: Numerology) -> Fraction:
    """Exact duration scale factor relative to the reference configuration."""
    return Fraction(15, numerology.subcarrier_spacing_khz) * Fraction(
        numerology.symbols_per_slot, 7
    )


def ms_to_ticks(ms: float, scale: Fraction = Fraction(1)) -> int:
    """Quantize a duration to the tick lattice, rounding half up.

    The defaults (whole reference ms, scale with 56*scale integral) quantize
    with zero error.
    """
    exact = Fraction(ms).limit_denominator(10**9) * TICKS_PER_MS * scale
    return int(exact + Fraction(1, 2)) if exact >= 0 else -int(
        -exact + Fraction(1, 2)
    )


def ticks_to_ms(ticks: int, scale: Fraction = Fraction(1)) -> float:
    """Tick count back to ms under the given scale factor: one int true
    division, which Python rounds correctly, as `float` does a Fraction."""
    return ticks * scale.numerator / (TICKS_PER_MS * scale.denominator)


def require_finite(config, error=ValueError) -> None:
    """Raise `error` at the first NaN or infinite float field of `config`."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{name} must be finite")


_POSITIVE_TIMINGS = (
    "t_msg1_ms", "t_msg2_ms", "t_msg3_ms", "t_msg4_ms", "ra_period_ms"
)


@dataclass(frozen=True)
class TimingParams:
    """Control-plane durations in ms at the reference numerology, each a
    whole number of ticks (1/56 ms)."""

    t_msg1_ms: float = 1.0
    t_msg2_ms: float = 3.0
    t_msg3_ms: float = 5.0
    t_msg4_ms: float = 5.0
    ra_period_ms: float = 5.0
    rar_window_ms: float = 5.0
    bi_max_ms: float = 20.0
    contention_resolution_timer_ms: float = 48.0
    sib2_period_ms: float = 80.0

    def __post_init__(self) -> None:
        require_finite(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _POSITIVE_TIMINGS and value <= 0:
                raise ValueError(f"{f.name} must be positive")
            if value < 0:
                raise ValueError(f"{f.name} must be non-negative")
            ticks = Fraction(value).limit_denominator(10**9) * TICKS_PER_MS
            if ticks.denominator != 1:
                lo = math.floor(ticks)
                raise ValueError(
                    f"{f.name} = {value} ms is off the 1/{TICKS_PER_MS} ms "
                    f"tick lattice; the nearest lattice values are "
                    f"{ticks_to_ms(lo)} ms and {ticks_to_ms(lo + 1)} ms"
                )


DEFAULT_TIMING = TimingParams()

