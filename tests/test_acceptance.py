"""Acceptance suite: every exit criterion checked at its stated tolerance,
with one printed pass/fail line per criterion (run with -s to see them all
on success)."""

import hashlib
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from kickjt import (SpinDirection, Stability, ValidatedConfig, build_basis,
                    coherent_state, critical_couplings, curve_derivative,
                    default_seeds, find_fixed_points, floquet_operator,
                    floquet_spectrum, husimi_on_section, husimi_product_grid,
                    h0_phases, jacobian_canonical, phase_space_expectations,
                    section_peaks, step_arrays, apply_floquet)
from kickjt.classical_map import composed_step, from_canonical
from kickjt.quantum_floquet import EIG_RESIDUAL_TOL
from kickjt.cli import main
from conftest import DELTA, OMEGA, PRESET_COMMANDS, reference_config

PRESET_DIR = Path(__file__).resolve().parents[1] / "src" / "kickjt" / "presets"


def check(num: int, description: str, passed: bool):
    print(f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {num:02d} failed: {description}"


def random_phase_point(rng, z_max=0.4):
    q_x, q_y, p_x, p_y = rng.uniform(-2, 2, size=4)
    return from_canonical((q_x, p_x, q_y, p_y, rng.uniform(0, 2 * math.pi),
                           rng.uniform(-z_max, z_max)))


def test_criterion_01_critical_couplings():
    critical_couplings(OMEGA, DELTA)  # warm up
    t0 = time.perf_counter()
    values = critical_couplings(OMEGA, DELTA).couplings()
    elapsed = time.perf_counter() - t0
    ok = (len(values) == 2
          and abs(values[0] - 0.2643) <= 0.005 and abs(values[0] - 0.26) <= 0.005
          and abs(values[1] - 0.4577) <= 0.005 and abs(values[1] - 0.46) <= 0.005
          and elapsed < 1e-3)
    check(1, f"critical couplings {values[0]:.4f}, {values[1]:.4f} in {elapsed*1e6:.0f} us",
          ok)


def test_criterion_02_fixed_point_census():
    reports = []
    ok = True
    for lam in (0.15, 0.32, 0.50):
        cfg = reference_config(lam)
        t0 = time.perf_counter()
        fps = find_fixed_points(cfg, default_seeds(cfg))
        elapsed = time.perf_counter() - t0
        classes = sorted(fp.classification.value for fp in fps)
        if lam == 0.15:
            by_sz = {round(float(fp.point[6]), 3): fp.classification for fp in fps}
            ok &= (len(fps) == 2
                   and by_sz.get(-0.5) is Stability.STABLE
                   and by_sz.get(0.5) is Stability.UNSTABLE)
        elif lam == 0.32:
            stable = [fp for fp in fps if fp.classification is Stability.STABLE]
            saddle = [fp for fp in fps if fp.classification is Stability.SADDLE]
            origin_saddle = (len(saddle) == 1
                             and abs(saddle[0].point[0]) < 1e-9
                             and saddle[0].point[6] < 0)
            parity_pair = (len(stable) == 2 and np.max(np.abs(
                stable[0].point[:6] + stable[1].point[:6])) <= 1e-8)
            ok &= origin_saddle and parity_pair
        else:
            saddles = [fp for fp in fps if fp.classification is Stability.SADDLE]
            ok &= (len(saddles) == 2
                   and all(abs(fp.point[0]) > 0.5 for fp in saddles))
        ok &= elapsed < 1.0
        reports.append(f"lam={lam}: {classes} in {elapsed*1e3:.0f} ms")
    check(2, "; ".join(reports), ok)


def test_criterion_03_classical_oracle_equivalence():
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        cfg = ValidatedConfig(rng.uniform(0.02, 1.0), rng.uniform(0.1, 2.5),
                              rng.uniform(0.0, 0.6))
        for _ in range(100):
            state = random_phase_point(rng, z_max=0.5)
            a = step_arrays(state, cfg)
            b = composed_step(state, cfg)
            worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.perf_counter() - t0
    check(3, f"closed form vs sub-map composition, worst {worst:.2e} over "
             f"1000 states x 10 parameter triples in {elapsed:.2f} s",
          worst <= 1e-10 and elapsed < 1.0)


def test_criterion_04_conservation_and_symplecticity():
    cfg = reference_config(0.32)
    state = np.array([1.1, -0.7, 0.3, 0.2, 0.1, -0.15,
                      math.sqrt(0.25 - 0.1 ** 2 - 0.15 ** 2)])
    drift = 0.0
    for _ in range(10_000):
        state = step_arrays(state, cfg)
        s_x, s_y, s_z = state[4:].tolist()
        norm = math.sqrt(s_x ** 2 + s_y ** 2 + s_z ** 2)
        drift = max(drift, abs(norm - 0.5) / 0.5)
    rng = np.random.default_rng(77)
    det_err = 0.0
    for _ in range(100):
        jac = jacobian_canonical(random_phase_point(rng), cfg)
        det_err = max(det_err, abs(np.linalg.det(jac) - 1.0))
    check(4, f"spin-norm drift {drift:.2e} over 1e4 steps; "
             f"max |det J - 1| = {det_err:.2e} over 100 states",
          drift < 1e-8 and det_err <= 1e-6)


def test_criterion_05_quantum_structural_invariants(basis18):
    cfg = reference_config(0.32)
    u = floquet_operator(cfg)
    eye = np.eye(basis18.dim)
    unitarity = float(np.max(np.abs(u.conj().T @ u - eye)))
    par = basis18.parity
    parity_comm = float(np.max(np.abs(u * par[None, :] - par[:, None] * u)))
    t0 = time.perf_counter()
    spec = floquet_spectrum(cfg)
    diag_elapsed = time.perf_counter() - t0
    eigvals = np.linalg.eigvals(u)
    moduli_err = float(np.max(np.abs(np.abs(eigvals) - 1.0)))
    cfg0 = reference_config(0.0)
    spec0 = floquet_spectrum(cfg0)
    analytic = -(cfg0.omega * (basis18.total + 1) + cfg0.delta * basis18.sigma / 2)
    analytic = (analytic + math.pi) % (2 * math.pi) - math.pi
    phase_err = float(np.max(np.abs(np.sort(spec0.eigenphases) - np.sort(analytic))))
    check(5, f"dim 380: |U+U-I| = {unitarity:.1e}, |[U,P]| = {parity_comm:.1e}, "
             f"|mod-1| = {moduli_err:.1e}, zero-coupling phases {phase_err:.1e}, "
             f"diag in {diag_elapsed:.2f} s",
          unitarity <= 1e-10 and parity_comm <= 1e-10 and moduli_err <= 1e-8
          and phase_err <= 1e-12 and diag_elapsed < 30.0
          and float(spec.residuals.max()) <= EIG_RESIDUAL_TOL)


def test_criterion_06_small_instance_spectral_oracle():
    basis = build_basis(2)
    lam = 0.1
    cfg = ValidatedConfig(OMEGA, DELTA, lam, n_t=2)
    from kickjt.quantum_floquet import SPIN_HALF, osc_position_matrix
    q_x = np.kron(osc_position_matrix(2, "x"), np.eye(2))
    q_y = np.kron(osc_position_matrix(2, "y"), np.eye(2))
    s_x = np.kron(np.eye(basis.osc_dim), SPIN_HALF["x"])
    s_y = np.kron(np.eye(basis.osc_dim), SPIN_HALF["y"])
    h0 = np.diag(cfg.omega * (basis.total + 1) + cfg.delta * basis.sigma / 2)
    brute = (scipy.linalg.expm(-1j * h0)
             @ scipy.linalg.expm(-1j * lam * q_x @ s_x)
             @ scipy.linalg.expm(-1j * lam * q_y @ s_y))
    brute_phases = np.sort(np.angle(np.linalg.eigvals(brute)))
    mine = np.sort(floquet_spectrum(cfg).eigenphases)
    err = float(np.max(np.abs(mine - brute_phases)))
    check(6, f"12x12 brute-force eigenphase deviation {err:.2e}",
          basis.dim == 12 and err <= 1e-10)


def test_criterion_07_husimi_bifurcation_signature(pgs_path):
    slope = -math.tan(OMEGA / 2)
    u = np.linspace(-6.0, 6.0, 161)
    peaks = {}
    for lam in (0.15, 0.32):
        values = husimi_on_section(pgs_path.sample_at(lam).state, slope, u)
        peaks[lam] = section_peaks(values, u)
    unimodal = len(peaks[0.15]) == 1
    bimodal = len(peaks[0.32]) == 2
    symmetric = (bimodal and abs(abs(peaks[0.32][0]) - abs(peaks[0.32][1]))
                 <= 0.05 * max(abs(peaks[0.32])))
    check(7, f"section peaks at lam=0.15: {np.round(peaks[0.15], 3)}, "
             f"lam=0.32: {np.round(peaks[0.32], 3)}",
          unimodal and bimodal and symmetric)


def test_criterion_08_localisation_at_classical_fixed_point(
        pgs_path, pes_path_032, census_032):
    psi_g = pgs_path.sample_at(0.32).state
    psi_e = pes_path_032.sample_at(0.32).state
    even = psi_g + psi_e
    even /= np.linalg.norm(even)
    slope = -math.tan(OMEGA / 2)
    coords = np.linspace(-6.0, 6.0, 161)
    alphas = coords * (1.0 + 1j * slope) / math.sqrt(2.0)
    values = husimi_product_grid(even, alphas, alphas)
    i, j = np.unravel_index(int(np.argmax(values)), values.shape)
    q_max = (coords[i], coords[j])
    stable = [fp for fp in census_032 if fp.classification is Stability.STABLE]
    dist = min(math.hypot(q_max[0] - fp.point[0], q_max[1] - fp.point[1])
               for fp in stable)
    check(8, f"even-combination Husimi max at ({q_max[0]:.2f}, {q_max[1]:.2f}), "
             f"distance {dist:.3f} from a stable fixed point",
          dist <= 0.5)


def test_criterion_09_entanglement_crossover(curve18, timings):
    lams, values = curve18
    window = (lams >= 0.05) & (lams <= 0.55)
    names = ("S_spin", "S_osc_x", "E_N")
    locations = []
    inside = True
    for col in range(3):
        deriv = curve_derivative(lams, values[:, col])
        masked = np.where(window, np.abs(deriv), -np.inf)
        peak_lam = float(lams[int(np.argmax(masked))])
        locations.append(f"{names[col]} peak at {peak_lam:.2f}")
        inside &= 0.26 <= peak_lam <= 0.46
    at_zero = np.max(np.abs(values[0]))
    elapsed = timings.get("pgs_path", 0.0) + timings.get("curve18", 0.0)
    check(9, f"{'; '.join(locations)}; measures at lam=0 <= {at_zero:.1e}; "
             f"curve computed in {elapsed:.0f} s",
          inside and at_zero <= 1e-6 and elapsed < 1800.0)


def test_criterion_10_truncation_convergence(curve18, entropy_grid, spin_entropy_22):
    lams, values = curve18
    s18 = {round(float(l), 12): values[k, 0] for k, l in enumerate(lams)}
    s18_on_grid = np.array([s18[l] for l in entropy_grid])
    diff = float(np.max(np.abs(s18_on_grid - spin_entropy_22)))
    scale = float(np.max(np.abs(spin_entropy_22)))
    check(10, f"entropy curves n_t=18 vs 22: max deviation {diff:.2e} "
              f"on scale {scale:.2f} ({diff/scale:.2%})",
          diff < 0.01 * scale)


def test_criterion_11_ehrenfest_property():
    n_t = 62
    alpha_x = 4.0 * np.exp(0.3j)
    alpha_y = 4.0 * np.exp(-1.1j)
    theta, phi = 2.2, 0.7
    psi = coherent_state(alpha_x, alpha_y, SpinDirection(theta, phi), n_t)
    cfg = ValidatedConfig(OMEGA, DELTA, 0.05, n_t=n_t)
    quantum = phase_space_expectations(apply_floquet(psi, cfg))
    q_x, q_y, p_x, p_y, s_x, s_y, s_z = step_arrays(np.array([
        math.sqrt(2) * alpha_x.real, math.sqrt(2) * alpha_y.real,
        math.sqrt(2) * alpha_x.imag, math.sqrt(2) * alpha_y.imag,
        0.5 * math.sin(theta) * math.cos(phi),
        0.5 * math.sin(theta) * math.sin(phi),
        0.5 * math.cos(theta)]), cfg).tolist()
    amp_osc = math.sqrt(2) * 4.0
    errors = {
        "q_x": abs(quantum["q_x"] - q_x) / amp_osc,
        "q_y": abs(quantum["q_y"] - q_y) / amp_osc,
        "p_x": abs(quantum["p_x"] - p_x) / amp_osc,
        "p_y": abs(quantum["p_y"] - p_y) / amp_osc,
        "2s_x": abs(2 * quantum["s_x"] - 2 * s_x),
        "2s_y": abs(2 * quantum["s_y"] - 2 * s_y),
        "2s_z": abs(2 * quantum["s_z"] - 2 * s_z),
    }
    worst = max(errors.values())
    check(11, f"one-step quantum vs classical, worst relative error {worst:.1e}",
          worst <= 0.05)


def _run_preset(command: str, config: Path, out_dir: Path, threads: int) -> dict:
    assert main([command, "--config", str(config), "--out", str(out_dir),
                 "--threads", str(threads)]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out_dir.iterdir())}


@contextmanager
def _one_cpu():
    """Run the body on one CPU of this process's CPU set, so the table writer
    formats every block in this process; restore the set afterwards."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


@pytest.mark.parametrize("preset", sorted(PRESET_COMMANDS))
def test_criterion_12_determinism(preset, tmp_path):
    command = PRESET_COMMANDS[preset]
    config = PRESET_DIR / preset
    digests = [
        _run_preset(command, config, tmp_path / "serial_a", 1),
        _run_preset(command, config, tmp_path / "serial_b", 1),
        _run_preset(command, config, tmp_path / "parallel", 4),
    ]
    with _one_cpu():
        digests.append(_run_preset(command, config, tmp_path / "one_cpu", 1))
    identical = all(d == digests[0] for d in digests)
    check(12, f"{preset}: {len(digests[0])} file(s) byte-identical across "
              f"reruns, thread counts 1 and 4, and {len(os.sched_getaffinity(0))} "
              f"CPUs against one",
          identical and len(digests[0]) > 0)
