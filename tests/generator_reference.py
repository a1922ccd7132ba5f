"""Test helper: the seeded ensemble generator that generate_ensembles is
checked against, bit for bit.

It draws the reference signs, the keep/flip decisions and the error
magnitudes in one fixed order, builds the row-major (N, B) depth grid in
place and hands it to the public EnsembleTable constructor. The settings
check and the sigma model are imported from compdepth.lab.
"""

import math
from typing import Sequence

import numpy as np

from compdepth import EnsembleTable
from compdepth.lab import branch_sigmas, check_generator_settings


def generate_ensembles(truths: Sequence[float], *, n_branches: int = 4,
                       coupling_rate: float = 0.95, error_scale: float = 1.0,
                       sigma_model: str = "constant", seed: int = 0) -> EnsembleTable:
    check_generator_settings(n_branches, coupling_rate, error_scale, sigma_model)
    truths = np.asarray(truths, dtype=float)
    if truths.ndim != 1 or truths.size == 0:
        raise ValueError("truths must be a non-empty 1-D sequence")
    n_obj = truths.size
    rng = np.random.default_rng(seed)

    ref_sign = rng.choice([-1.0, 1.0], size=n_obj)
    keep_p = 0.5 * (1.0 + math.sqrt(2.0 * coupling_rate - 1.0))
    flipped = rng.random((n_obj, n_branches)) >= keep_p
    z = rng.normal(0.0, error_scale, size=(n_obj, n_branches))
    np.abs(z, out=z)
    sigmas = branch_sigmas(z, sigma_model)
    z *= ref_sign[:, None]
    np.negative(z, out=z, where=flipped)
    z += truths[:, None]
    if not np.isfinite(z).all():
        raise ValueError(f"a draw at error_scale {error_scale} overflowed "
                         "to a non-finite depth")
    return EnsembleTable(names=[f"b{i}" for i in range(n_branches)], z=z, sigma=sigmas,
                         z_star=truths)
