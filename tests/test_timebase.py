"""Tick-lattice and numerology arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rachsim.timebase import (
    SUBCARRIER_SPACINGS_KHZ,
    SYMBOLS_PER_SLOT,
    TICKS_PER_MS,
    Numerology,
    TimingParams,
    ms_to_ticks,
    ticks_to_ms,
    time_scale_fraction,
)


def test_reference_scale_is_unity():
    assert time_scale_fraction(Numerology(15, 7)) == 1


# Frozen oracle: scale = (15/scs) * (sym/7), computed by hand for each
# supported cell of the grid.
SCALE_ORACLE = {
    (15, 7): Fraction(1),
    (15, 4): Fraction(4, 7),
    (15, 2): Fraction(2, 7),
    (30, 7): Fraction(1, 2),
    (30, 4): Fraction(2, 7),
    (30, 2): Fraction(1, 7),
    (60, 7): Fraction(1, 4),
    (60, 4): Fraction(1, 7),
    (60, 2): Fraction(1, 14),
    (120, 7): Fraction(1, 8),
    (120, 4): Fraction(1, 14),
    (120, 2): Fraction(1, 28),
}


@pytest.mark.parametrize("scs,sym", sorted(SCALE_ORACLE))
def test_scale_grid_oracle(scs, sym):
    assert time_scale_fraction(Numerology(scs, sym)) == SCALE_ORACLE[(scs, sym)]


@pytest.mark.parametrize("scs,sym", sorted(SCALE_ORACLE))
def test_grid_scales_are_exact_on_ticks(scs, sym):
    # 56 ticks per reference ms is chosen so every grid cell lands on
    # integer ticks for every default duration.
    s = time_scale_fraction(Numerology(scs, sym))
    assert (56 * s).denominator == 1
    for ms in (1.0, 3.0, 5.0, 20.0, 48.0, 80.0):
        exact = Fraction(ms) * TICKS_PER_MS * s
        assert exact.denominator == 1
        assert ms_to_ticks(ms) * s == exact


def test_slot_duration_examples():
    # 30 kHz halves the slot; fewer symbols shorten it proportionally.
    assert time_scale_fraction(Numerology(30, 7)) == Fraction(1, 2)
    assert time_scale_fraction(Numerology(120, 2)) == Fraction(1, 28)
    assert ms_to_ticks(3.0) * time_scale_fraction(Numerology(30, 7)) == 84


def test_scale_strictly_decreases_in_each_axis():
    for sym in SYMBOLS_PER_SLOT:
        scales = [
            time_scale_fraction(Numerology(s, sym))
            for s in SUBCARRIER_SPACINGS_KHZ
        ]
        assert all(a > b for a, b in zip(scales, scales[1:]))
    for scs in SUBCARRIER_SPACINGS_KHZ:
        scales = [
            time_scale_fraction(Numerology(scs, sym))
            for sym in SYMBOLS_PER_SLOT
        ]
        assert all(a > b for a, b in zip(scales, scales[1:]))


def test_numerology_rejects_unsupported_values():
    with pytest.raises(ValueError):
        Numerology(25, 7)
    with pytest.raises(ValueError):
        Numerology(15, 5)


def test_roundtrip_ticks_ms():
    assert ticks_to_ms(ms_to_ticks(5.0)) == 5.0
    assert ms_to_ticks(1.0) == 56
    assert ms_to_ticks(0.0) == 0


@given(st.integers(min_value=0, max_value=10**7))
def test_roundtrip_is_identity_on_integers(ticks):
    assert ms_to_ticks(ticks_to_ms(ticks)) == ticks


@given(
    st.integers(min_value=-(10**18), max_value=10**18),
    st.sampled_from(sorted(SCALE_ORACLE)),
)
def test_ticks_to_ms_equals_the_fraction_formula(ticks, cell):
    # One int true division, correctly rounded, gives the float of the
    # exact rational value.
    scale = time_scale_fraction(Numerology(*cell))
    exact = float(Fraction(ticks) * scale / TICKS_PER_MS)
    assert ticks_to_ms(ticks, scale) == exact
    assert ticks_to_ms(ticks) == float(Fraction(ticks, TICKS_PER_MS))


def test_half_up_rounding():
    # One tick is 1/56 ms; half a tick rounds up.
    assert ms_to_ticks(1 / 112) == 1
    assert ms_to_ticks(1 / 113) == 0


def test_timing_validation():
    with pytest.raises(ValueError):
        TimingParams(t_msg1_ms=0.0)
    with pytest.raises(ValueError):
        TimingParams(rar_window_ms=-1.0)
    # Zero-length response window is legal: it models the beam-focused
    # immediate-response mode.
    TimingParams(rar_window_ms=0.0)
    # 1.01 ms is 56.56 ticks: off the lattice, and the message names the
    # two nearest lattice values.
    with pytest.raises(ValueError, match=r"1\.0 ms and 1\.0178571428571428 ms"):
        TimingParams(t_msg1_ms=1.01)
