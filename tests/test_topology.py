"""Geometry, placement, path loss, power ramping, and SINR."""

import dataclasses
import math

import numpy as np
import pytest

from rachsim.config import TopologyConfig
from rachsim.rng import RandomSource
from rachsim.topology import (
    FEMTO_BLOCK_ENTRIES,
    build_layout,
    path_loss_db,
    place_devices,
    ramped_tx_power_dbm,
    sinr_db,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# -- layout ------------------------------------------------------------------


def test_three_macros_form_equilateral_triangle():
    layout = build_layout(TopologyConfig(n_macro_cells=3), rng())
    c = layout.macro_centers
    side = 2 * 50.0 * math.cos(math.pi / 6)  # R*sqrt(3)
    dists = [
        np.linalg.norm(c[i] - c[j]) for i in range(3) for j in range(i + 1, 3)
    ]
    assert all(abs(d - side) < 1e-9 for d in dists)
    assert side == pytest.approx(50.0 * math.sqrt(3))


def test_single_macro_at_origin():
    layout = build_layout(TopologyConfig(n_macro_cells=1), rng())
    assert layout.n_macro == 1
    assert np.allclose(layout.macro_centers[0], (0.0, 0.0))


def test_femtos_land_inside_macro_union():
    cfg = TopologyConfig(n_macro_cells=3, n_femto_cells=40)
    layout = build_layout(cfg, rng(3))
    assert layout.n_femto == 40
    d = np.linalg.norm(
        layout.femto_centers[:, None, :] - layout.macro_centers[None, :, :],
        axis=2,
    )
    assert (d.min(axis=1) <= cfg.cell_radius_m + 1e-9).all()


def test_macros_past_the_third_extend_the_first_row():
    # Not a hexagonal grid: macros 4 and 5 continue the row of macros 1-2
    # at the same spacing s = R*sqrt(3).
    layout = build_layout(TopologyConfig(n_macro_cells=5), rng())
    s = 50.0 * math.sqrt(3)
    expected = [
        (0.0, 0.0), (s, 0.0), (s / 2, 1.5 * 50.0), (2 * s, 0.0), (3 * s, 0.0),
    ]
    assert np.allclose(layout.macro_centers, expected, atol=1e-9)


def test_gnb_count_is_macros_plus_femtos():
    layout = build_layout(TopologyConfig(n_macro_cells=3, n_femto_cells=7), rng())
    assert layout.n_gnbs == 10


# -- placement ---------------------------------------------------------------


def test_devices_stay_within_one_radius_of_serving_center():
    cfg = TopologyConfig(n_macro_cells=3)
    layout = build_layout(cfg, rng(1))
    placement = place_devices(4000, layout, rng(2))
    # A device is dropped inside some disc, and serving distance (nearest
    # center) can only be smaller.
    assert (placement.serving_dist <= cfg.cell_radius_m + 1e-9).all()
    assert len(placement) == 4000


def test_femto_assignment_consistent_with_positions():
    cfg = TopologyConfig(n_macro_cells=1, n_femto_cells=12)
    layout = build_layout(cfg, rng(5))
    placement = place_devices(2000, layout, rng(6))
    d = np.linalg.norm(
        placement.positions[:, None, :] - layout.femto_centers[None, :, :],
        axis=2,
    )
    nearest = d.min(axis=1)
    covered = placement.femto_cell >= 0
    assert (nearest[covered] <= cfg.femto_radius_m + 1e-9).all()
    assert (nearest[~covered] > cfg.femto_radius_m - 1e-9).all()


def test_femto_coverage_matches_area_oracle():
    # Independent oracle: a device is covered by one femto with probability
    # q = E[disc-overlap area] / (pi R^2). Centers with |F| < R - r cover a
    # full pi r^2; the edge band contributes partially (numerical integral
    # gives q ~= 0.0357 for r=10, R=50). Coverage by any of 12 independent
    # femtos is 1 - (1-q)^12 ~= 0.353. Band is ~12 sigma at this pooling.
    cfg = TopologyConfig(n_macro_cells=1, n_femto_cells=12)
    fractions = []
    for seed in range(20):
        layout = build_layout(cfg, rng(100 + seed))
        placement = place_devices(2000, layout, rng(200 + seed))
        fractions.append((placement.femto_cell >= 0).mean())
    mean = float(np.mean(fractions))
    assert 0.31 <= mean <= 0.40


def test_empty_placement():
    layout = build_layout(TopologyConfig(n_macro_cells=1), rng())
    placement = place_devices(0, layout, rng())
    assert len(placement) == 0
    assert not (placement.femto_cell >= 0).any()


def test_placement_deterministic_under_stream():
    cfg = TopologyConfig(n_macro_cells=3, n_femto_cells=5)
    a_src, b_src = RandomSource.from_seed(9), RandomSource.from_seed(9)
    la = build_layout(cfg, a_src.placement)
    lb = build_layout(cfg, b_src.placement)
    assert np.array_equal(la.femto_centers, lb.femto_centers)
    pa = place_devices(50, la, a_src.placement)
    pb = place_devices(50, lb, b_src.placement)
    assert np.array_equal(pa.positions, pb.positions)


# -- placement against the np.linalg.norm formulation ------------------------


def norm_distances(positions, centers):
    """The oracle: np.linalg.norm over (n, k, 2) difference vectors."""
    return np.linalg.norm(positions[:, None, :] - centers[None, :, :], axis=2)


def assert_matches_norm_oracle(placement, layout):
    """serving_cell, serving_dist and femto_cell, bit for bit as the
    np.linalg.norm formulation derives them from the positions."""
    n = len(placement)
    d_macro = norm_distances(placement.positions, layout.macro_centers)
    serving = d_macro.argmin(axis=1)
    femto = np.full(n, -1, dtype=np.int64)
    if layout.n_femto > 0:
        d_femto = norm_distances(placement.positions, layout.femto_centers)
        nearest = d_femto.argmin(axis=1)
        within = d_femto[np.arange(n), nearest] <= layout.femto_radius_m
        femto[within] = nearest[within]
    expected = {
        "serving_cell": serving.astype(np.int64),
        "serving_dist": d_macro[np.arange(n), serving],
        "femto_cell": femto,
    }
    for name, want in expected.items():
        got = getattr(placement, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


# Devices per femto block at 75 femtos.
FEMTO_BLOCK = FEMTO_BLOCK_ENTRIES // 75


# Device counts on both sides of the first and second femto block
# boundaries at 75 femtos, where a block slice one short or one long would
# drop or misplace a device.
@pytest.mark.parametrize("n_femto", [0, 1, 75])
@pytest.mark.parametrize(
    "n",
    [0, 1, FEMTO_BLOCK - 1, FEMTO_BLOCK, FEMTO_BLOCK + 1,
     2 * FEMTO_BLOCK - 1, 2 * FEMTO_BLOCK, 2 * FEMTO_BLOCK + 1,
     4 * FEMTO_BLOCK + 1, 2000],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_placement_matches_norm_oracle(seed, n, n_femto):
    cfg = TopologyConfig(
        n_macro_cells=3, n_femto_cells=n_femto, femto_radius_m=49.0
    )
    src = RandomSource.from_seed(seed)
    layout = build_layout(cfg, src.placement)
    assert_matches_norm_oracle(place_devices(n, layout, src.placement), layout)


# The same boundaries where few femtos make long blocks, one femto
# making a block of FEMTO_BLOCK_ENTRIES devices.
@pytest.mark.parametrize("n_femto", [1, 5, 12])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_placement_matches_norm_oracle_at_long_blocks(n_femto, offset):
    cfg = TopologyConfig(
        n_macro_cells=3, n_femto_cells=n_femto, femto_radius_m=49.0
    )
    src = RandomSource.from_seed(4)
    layout = build_layout(cfg, src.placement)
    n = FEMTO_BLOCK_ENTRIES // n_femto + offset
    assert_matches_norm_oracle(place_devices(n, layout, src.placement), layout)


def test_device_exactly_at_femto_radius_is_covered():
    cfg = TopologyConfig(n_macro_cells=3, n_femto_cells=1)
    layout = build_layout(cfg, rng(7))
    positions = place_devices(5, layout, rng(8)).positions
    edge = norm_distances(positions, layout.femto_centers)[0, 0]
    at_edge = dataclasses.replace(layout, femto_radius_m=float(edge))
    placement = place_devices(5, at_edge, rng(8))
    assert placement.femto_cell[0] == 0
    assert_matches_norm_oracle(placement, at_edge)
    inside = dataclasses.replace(
        layout, femto_radius_m=float(np.nextafter(edge, 0.0))
    )
    placement = place_devices(5, inside, rng(8))
    assert placement.femto_cell[0] == -1
    assert_matches_norm_oracle(placement, inside)


# -- path loss and power -----------------------------------------------------


def test_path_loss_reference_point():
    cfg = TopologyConfig()
    assert path_loss_db(15.0, cfg) == pytest.approx(63.57)


def test_path_loss_decade():
    # One decade above the reference distance adds 10*exponent dB.
    cfg = TopologyConfig()
    assert path_loss_db(150.0, cfg) == pytest.approx(63.57 + 34.4)


def test_path_loss_clamps_below_reference():
    cfg = TopologyConfig()
    assert path_loss_db(3.0, cfg) == path_loss_db(15.0, cfg)


def test_path_loss_rejects_nonpositive():
    with pytest.raises(ValueError):
        path_loss_db(0.0, TopologyConfig())


def test_power_ramp_first_attempts_and_cap():
    cfg = TopologyConfig()
    pl = 70.0
    # PL + target = 70 - 104 = -34 dBm on attempt 1; +2 dB per retry.
    assert ramped_tx_power_dbm(pl, 1, cfg) == pytest.approx(-34.0)
    assert ramped_tx_power_dbm(pl, 2, cfg) == pytest.approx(-32.0)
    assert ramped_tx_power_dbm(pl, 8, cfg) == pytest.approx(-20.0)
    # Cap engages once ramping would exceed p_max.
    assert ramped_tx_power_dbm(pl, 500, cfg) == cfg.p_max_dbm
    with pytest.raises(ValueError):
        ramped_tx_power_dbm(pl, 0, cfg)


def test_ramp_step_emulates_both_documented_values():
    pl = 70.0
    for step in (0.0, 2.0):
        cfg = TopologyConfig(ramp_step_db=step)
        got = ramped_tx_power_dbm(pl, 4, cfg)
        assert got == pytest.approx(-34.0 + 3 * step)


# -- SNR ---------------------------------------------------------------------


def test_sinr_interference_free_case():
    # Received -90 dBm over noise -110 dBm is exactly 20 dB.
    cfg = TopologyConfig(noise_power_dbm=-110.0)
    assert sinr_db(-90.0, cfg) == pytest.approx(20.0, abs=0.05)
