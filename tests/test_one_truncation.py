"""A state carries its truncation: functions of a state read n_t from its
length, functions of a config from cfg.n_t, and the two must agree."""

import inspect

import numpy as np
import pytest

from kickjt import (apply_floquet, apply_kick, build_basis, entanglement_measures,
                    husimi_on_section, husimi_product_grid, husimi_values,
                    log_negativity, pgs_seed, phase_space_expectations,
                    reduced_density, sector_leakage, state_tensor, track_eigenstate)
from kickjt import observables
from kickjt import quantum_floquet
from conftest import reference_config

ALPHAS = np.array([0.3, 1.0 + 0.5j])

STATE_FUNCTIONS = {
    "apply_kick": lambda vec: apply_kick(vec, "x", 0.1),
    "apply_floquet": lambda vec: apply_floquet(vec, reference_config(n_t=6), 0.1),
    "track_eigenstate": lambda vec: track_eigenstate(vec, reference_config(n_t=6), [0.1]),
    "sector_leakage": lambda vec: sector_leakage(vec, "O"),
    "phase_space_expectations": phase_space_expectations,
    "state_tensor": state_tensor,
    "reduced_density": lambda vec: reduced_density(vec, "spin"),
    "log_negativity": log_negativity,
    "entanglement_measures": entanglement_measures,
    "husimi_values": lambda vec: husimi_values(vec, ALPHAS, ALPHAS),
    "husimi_product_grid": lambda vec: husimi_product_grid(vec, ALPHAS, ALPHAS),
    "husimi_on_section": lambda vec: husimi_on_section(vec, -0.05, np.array([0.0, 1.0])),
}


@pytest.mark.parametrize("name", sorted(STATE_FUNCTIONS))
def test_length_that_fits_no_truncation_rejected(name):
    # 56 = 7 * 8 is the state length at n_t = 6; 57 fits no n_t
    vec = np.zeros(57, dtype=complex)
    vec[0] = 1.0
    with pytest.raises(ValueError, match="length 57"):
        STATE_FUNCTIONS[name](vec)


def test_seed_and_config_truncations_must_agree():
    with pytest.raises(ValueError, match="n_t = 6, config n_t = 18"):
        track_eigenstate(pgs_seed(6), reference_config(), [0.1])


def test_leakage_is_measured_over_the_state_own_truncation():
    # |5,5,-> has parity (-1) (-1)^10 = -1: wholly in O at n_t = 18
    state = build_basis(18).basis_state(5, 5, -1)
    assert sector_leakage(state, "O") == 0.0
    assert sector_leakage(state, "E") == 1.0


def test_one_shared_read_only_basis_per_truncation():
    basis = build_basis(4)
    assert build_basis(4) is basis
    with pytest.raises(ValueError, match="read-only"):
        basis.n_x[0] = 1


@pytest.mark.parametrize("module", [quantum_floquet, observables], ids=lambda m: m.__name__)
def test_no_public_function_takes_a_basis(module):
    for name, fn in inspect.getmembers(module, inspect.isfunction):
        if name.startswith("_") or fn.__module__ != module.__name__:
            continue
        assert "basis" not in inspect.signature(fn).parameters, name
