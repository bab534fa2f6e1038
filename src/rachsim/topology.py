"""Cell layout, device placement, and the radio abstraction.

Three macro cells sit at the corners of an equilateral triangle with side
2 R cos(30 deg) so neighboring coverage discs meet the way a hexagonal grid
does; small cells are scattered uniformly over the union of the macro discs.
Path loss follows the log-distance model; transmit power ramps per attempt
up to a cap. SINR is a diagnostic: it is computed on request and can
optionally gate detection, but does not by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TopologyConfig

# Entries (devices x femtos) per block of the femto distance matrix in
# `place_devices`. At drp-mixed's 75 femtos that is 256 devices, two float64
# arrays of 150 KiB a block, which took 3.75 ms against 4.28 ms at 512 and
# 4.07 ms at 128 devices (2-core Xeon VM). Fewer femtos get more devices a
# block, which placed 5-12 femtos 1.11-1.17x faster than 256 devices did.
FEMTO_BLOCK_ENTRIES = 19200


@dataclass(frozen=True)
class CellLayout:
    macro_centers: np.ndarray  # (n_macro, 2) meters
    femto_centers: np.ndarray  # (n_femto, 2) meters
    cell_radius_m: float
    femto_radius_m: float

    @property
    def n_macro(self) -> int:
        return len(self.macro_centers)

    @property
    def n_femto(self) -> int:
        return len(self.femto_centers)

    @property
    def n_gnbs(self) -> int:
        """Base stations able to receive preambles: macros then femtos."""
        return self.n_macro + self.n_femto


@dataclass(frozen=True)
class DevicePlacement:
    positions: np.ndarray      # (n, 2) meters
    serving_cell: np.ndarray   # (n,) macro index, nearest center
    femto_cell: np.ndarray     # (n,) femto index or -1 when uncovered
    serving_dist: np.ndarray   # (n,) meters to serving center

    def __len__(self) -> int:
        return len(self.positions)


def _macro_centers(cfg: TopologyConfig) -> np.ndarray:
    """Macro centers: the triangle of the first three, then a straight row.

    Macros past the third extend the first row to the right at the same
    spacing (the fourth at (2s, 0), the fifth at (3s, 0), ...); this is not
    a hexagonal grid. The reference scenarios use at most three.
    """
    spacing = 2.0 * cfg.cell_radius_m * math.cos(math.pi / 6)
    pts = [(0.0, 0.0)]
    if cfg.n_macro_cells >= 2:
        pts.append((spacing, 0.0))
    if cfg.n_macro_cells >= 3:
        pts.append((spacing / 2.0, spacing * math.sin(math.pi / 3)))
    if cfg.n_macro_cells > 3:
        for k in range(3, cfg.n_macro_cells):
            pts.append((spacing * (k - 1), 0.0))
    return np.array(pts[: cfg.n_macro_cells], dtype=float)


def build_layout(cfg: TopologyConfig, rng: np.random.Generator) -> CellLayout:
    """Place macro centers deterministically and femtos uniformly in range.

    Femto centers are rejection-sampled over the union of macro discs, so
    density is uniform regardless of disc overlap.
    """
    centers = _macro_centers(cfg)
    femtos = np.empty((0, 2), dtype=float)
    if cfg.n_femto_cells > 0:
        lo = centers.min(axis=0) - cfg.cell_radius_m
        hi = centers.max(axis=0) + cfg.cell_radius_m
        out = []
        while len(out) < cfg.n_femto_cells:
            cand = rng.uniform(lo, hi, size=(4 * cfg.n_femto_cells, 2))
            d2 = ((cand[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            inside = (d2 <= cfg.cell_radius_m**2).any(axis=1)
            out.extend(cand[inside])
        femtos = np.array(out[: cfg.n_femto_cells], dtype=float)
    return CellLayout(
        macro_centers=centers,
        femto_centers=femtos,
        cell_radius_m=cfg.cell_radius_m,
        femto_radius_m=cfg.femto_radius_m,
    )


def place_devices(
    n: int, layout: CellLayout, rng: np.random.Generator
) -> DevicePlacement:
    """Uniform placement in a uniformly chosen macro disc.

    Serving cell is the nearest macro center (which near disc overlap can
    differ from the disc a device was dropped into); femto coverage is the
    nearest femto within its radius, -1 otherwise. The nearest femto is
    found per block of `FEMTO_BLOCK_ENTRIES // n_femto` devices (at least
    one) rather than over the whole (n, n_femto) matrix. A device's row
    depends on its own position alone, so each block gives the same roots,
    `argmin` and radius test as the whole matrix would, bit for bit.
    """
    home = rng.integers(0, layout.n_macro, size=n)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    radius = layout.cell_radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    offsets = np.stack(
        [radius * np.cos(theta), radius * np.sin(theta)], axis=1
    )
    positions = layout.macro_centers[home] + offsets

    d_macro = _distances(positions, layout.macro_centers)
    serving = d_macro.argmin(axis=1)
    serving_dist = d_macro[np.arange(n), serving]

    femto = np.full(n, -1, dtype=np.int64)
    if layout.n_femto > 0:
        block = max(1, FEMTO_BLOCK_ENTRIES // layout.n_femto)
        rows = np.arange(min(n, block))
        for lo in range(0, n, block):
            d_femto = _distances(
                positions[lo:lo + block], layout.femto_centers
            )
            nearest = d_femto.argmin(axis=1)
            k = len(nearest)
            within = d_femto[rows[:k], nearest] <= layout.femto_radius_m
            femto[lo:lo + k][within] = nearest[within]
    return DevicePlacement(
        positions=positions,
        serving_cell=serving.astype(np.int64),
        femto_cell=femto,
        serving_dist=serving_dist,
    )


def _distances(positions: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) distances from each position to each center.

    sqrt(dx*dx + dy*dy) from the separate coordinates, the value that
    `np.linalg.norm` of the difference vector gives, bit for bit, without
    an (n, k, 2) intermediate. Callers take `argmin` on these roots, not
    on the squares: two distinct squares can round to the same root. Every
    entry is computed elementwise from one position and one center, so a
    block of positions gives exactly the rows of the whole matrix.
    """
    dx = np.subtract.outer(positions[:, 0], centers[:, 0])
    dy = np.subtract.outer(positions[:, 1], centers[:, 1])
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def path_loss_db(d_m: float, cfg: TopologyConfig) -> float:
    """Log-distance path loss; distances below the reference are clamped."""
    if d_m <= 0:
        raise ValueError("distance must be positive")
    d_eff = max(d_m, cfg.pl_ref_dist_m)
    return cfg.pl_ref_db + 10.0 * cfg.pl_exponent * math.log10(
        d_eff / cfg.pl_ref_dist_m
    )


def ramped_tx_power_dbm(pl_db: float, attempt: int, cfg: TopologyConfig) -> float:
    """Open-loop power target with per-attempt ramping, capped at p_max."""
    if attempt < 1:
        raise ValueError("attempt count starts at 1")
    return min(
        cfg.p_max_dbm,
        pl_db + cfg.p_init_target_dbm + (attempt - 1) * cfg.ramp_step_db,
    )


def sinr_db(rx_power_dbm: float, cfg: TopologyConfig) -> float:
    """Signal-to-noise ratio at a receiver, in dB.

    The optional detection gate (`sinr_threshold_db`) is an SNR gate:
    no interference term is modelled, so the ratio is signal over the
    noise floor, both in mW.
    """
    noise_mw = 10.0 ** (cfg.noise_power_dbm / 10.0)
    signal_mw = 10.0 ** (rx_power_dbm / 10.0)
    return 10.0 * math.log10(signal_mw / noise_mw)
