"""Shared fixtures; the expensive tracked paths are session scoped."""

import math
import time

import numpy as np
import pytest

from kickjt import (ValidatedConfig, build_basis, default_seeds,
                    entanglement_measures, find_fixed_points, pes_seed,
                    pgs_seed, reduced_density, track_eigenstate,
                    von_neumann_entropy)

OMEGA = math.pi / 60
DELTA = 2 * math.atan(0.5)

# the subcommand each preset file under src/kickjt/presets is written for
PRESET_COMMANDS = {
    "critical_couplings.cfg": "critical-couplings",
    "fixed_points.cfg": "fixed-points",
    "portraits.cfg": "portrait",
    "track_pgs.cfg": "track-pgs",
    "husimi_sections.cfg": "husimi-section",
    "entanglement_curves.cfg": "entanglement-curves",
    "detection_prob.cfg": "detection-prob",
}


def reference_config(lam=0.32, **numerics):
    return ValidatedConfig(OMEGA, DELTA, lam, **numerics)


@pytest.fixture(scope="session")
def base_cfg():
    return reference_config()


@pytest.fixture(scope="session")
def basis18():
    return build_basis(18)


@pytest.fixture(scope="session")
def lam_grid():
    """0 to 0.55 in steps of 0.01."""
    return [round(0.01 * k, 12) for k in range(56)]


@pytest.fixture(scope="session")
def timings():
    """Wall-clock seconds of the heavy session fixtures, by name."""
    return {}


@pytest.fixture(scope="session")
def pgs_path(base_cfg, lam_grid, timings):
    """Pseudo-ground state continued from 0 to 0.55 with stops on the grid."""
    t0 = time.perf_counter()
    path = track_eigenstate(0.0, 0.55, pgs_seed(18), base_cfg,
                            stops=[l for l in lam_grid if l > 0])
    timings["pgs_path"] = time.perf_counter() - t0
    return path


@pytest.fixture(scope="session")
def pes_path_032(base_cfg):
    """Pseudo-excited state continued from 0 to 0.32."""
    return track_eigenstate(0.0, 0.32, pes_seed(18), base_cfg, stops=[0.15])


@pytest.fixture(scope="session")
def curve18(pgs_path, lam_grid, timings):
    """Entanglement measures of the tracked state on the coupling grid."""
    t0 = time.perf_counter()
    rows = {}
    for lam in lam_grid:
        state = pgs_path.sample_at(lam).state
        rows[lam] = entanglement_measures(state)
    lams = np.array(lam_grid)
    values = np.array([rows[l] for l in lam_grid])
    timings["curve18"] = time.perf_counter() - t0
    return lams, values


@pytest.fixture(scope="session")
def entropy_grid():
    """0 to 0.5 in steps of 0.02, for the truncation comparison."""
    return [round(0.02 * k, 12) for k in range(26)]


@pytest.fixture(scope="session")
def spin_entropy_22(entropy_grid):
    """Spin entropy of the tracked state at n_t = 22."""
    cfg = reference_config(0.5, n_t=22)
    path = track_eigenstate(0.0, 0.5, pgs_seed(22), cfg,
                            stops=[l for l in entropy_grid if l > 0])
    return np.array([von_neumann_entropy(
        reduced_density(path.sample_at(l).state, "spin"))
        for l in entropy_grid])


@pytest.fixture(scope="session")
def census_015():
    cfg = reference_config(0.15)
    return find_fixed_points(cfg, default_seeds(cfg))


@pytest.fixture(scope="session")
def census_032():
    cfg = reference_config(0.32)
    return find_fixed_points(cfg, default_seeds(cfg))


@pytest.fixture(scope="session")
def census_050():
    cfg = reference_config(0.50)
    return find_fixed_points(cfg, default_seeds(cfg))
