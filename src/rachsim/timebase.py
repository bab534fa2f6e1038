"""Clock and numerology arithmetic.

The simulator runs on an integer tick lattice of 1/56 ms at the reference
frame configuration (15 kHz subcarriers, 7 symbols per slot). Every supported
numerology scales the reference frame by an exact rational factor whose
product with 56 is an integer, so scaled durations are always exact tick
counts and event ordering never depends on floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

TICKS_PER_MS = 56

SUBCARRIER_SPACINGS_KHZ = (15, 30, 60, 120)
SYMBOLS_PER_SLOT = (7, 4, 2)


def key_field(default, doc: str, parse=None):
    """A scenario key: a dataclass field with its default, its `rachsim
    keys` description and its text parser, `type(default)` unless given.
    The parser's name is the kind a parse error reports."""
    return field(
        default=default, metadata={"doc": doc, "parse": parse or type(default)}
    )


@dataclass(frozen=True)
class Numerology:
    """Frame configuration: subcarrier spacing and slot length."""

    subcarrier_spacing_khz: int = key_field(
        15, "subcarrier spacing (15/30/60/120)"
    )
    symbols_per_slot: int = key_field(7, "symbols per slot (7/4/2)")

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

    t_msg1_ms: float = key_field(1.0, "Msg1 duration")
    t_msg2_ms: float = key_field(3.0, "Msg2 processing delay")
    t_msg3_ms: float = key_field(5.0, "Msg3 transmission time")
    t_msg4_ms: float = key_field(5.0, "Msg4 transmission time")
    ra_period_ms: float = key_field(5.0, "spacing of RA opportunities")
    rar_window_ms: float = key_field(5.0, "RAR response window")
    bi_max_ms: float = key_field(
        20.0, "default backoff bound; no effect under ebf, where priority "
        "backoff is 0 and background backoff is bounded by 10 ms"
    )
    contention_resolution_timer_ms: float = key_field(
        48.0, "Msg3-to-Msg4 completion deadline"
    )
    sib2_period_ms: float = key_field(
        80.0, "broadcast period driving the dynamic pool average"
    )

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
            if f.name == "bi_max_ms" and ticks >= 2**32:
                # A backoff draw spans bi_max + 1 values, at most 2**32.
                raise ValueError("bi_max_ms must be below 2**32 ticks")


DEFAULT_TIMING = TimingParams()

