"""The cube of diamond-cubic silicon around a central donor."""

from __future__ import annotations

import dataclasses

import numpy as np

from ..constants import SI_LATTICE_NM


@dataclasses.dataclass(frozen=True)
class LatticeSpec:
    """Cube of diamond-cubic silicon with the donor at its centre.

    The cube is tiled with whole conventional cells: n = floor(side/a0)
    cells per axis, 8 sites per cell. The donor is placed on the lattice
    site nearest the cube centre (ties broken by lexicographic position)
    and all site coordinates are donor-relative.
    """

    side_nm: float
    a0_nm: float = SI_LATTICE_NM

    def __post_init__(self):
        if self.a0_nm <= 0:
            raise ValueError("lattice constant must be positive")
        if self.cells_per_axis < 2:
            raise ValueError(f"side {self.side_nm} nm must hold at least 2 cells")

    @property
    def cells_per_axis(self) -> int:
        # small slack so side = k * a0 entered in decimal lands on k cells
        return int(np.floor(self.side_nm / self.a0_nm + 1e-9))
