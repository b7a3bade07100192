"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single [acceptance NN] PASS/FAIL line through the
``acceptance`` fixture (echoed again in the terminal summary) and then
asserts the same condition so the suite fails loudly if any claim breaks.
"""

import math

import numpy as np

from coldstore import (
    BosonicState,
    EitParams,
    Geometry,
    ModeSet,
    RampSchedule,
    SparseKet,
    StorageSpec,
    adiabatic_sweep,
    angular_momentum_eigencheck,
    apply_sigma,
    atomic_space,
    dark_state,
    evolve_analytic,
    exact_vs_analytic_deviation,
    fidelity,
    inner_product,
    joint_space,
    ladder_prefactor,
    level_population,
    mode_spacing_estimate,
    normalization_audit,
    phase_sum,
    sigma_commutator_element,
    storage_direct,
    storage_ladder,
    swap_check,
    vacuum,
    with_field_occupation,
)

from oracles import multimode_norm_sq


def storage_state(geom, k, n, space):
    if n == 0:
        return vacuum(space)
    return storage_direct(StorageSpec(geom, ((k, n),)), space=space)


def test_01_mode_spacing(acceptance):
    spacing = mode_spacing_estimate(wavelength=589.6e-9, length=339e-6)
    ok = abs(spacing - 0.163e-9) <= 0.001e-9
    acceptance(1, "mode spacing lambda^2/(2 pi L) = 0.163 nm +- 0.001 nm", ok)
    assert ok, f"got {spacing:.6e} m"


def test_02_exact_ladder_identities(acceptance):
    worst = 0.0
    for n_atoms in range(3, 13):
        geom = Geometry.uniform_random(n_atoms, float(n_atoms), seed=n_atoms)
        for k in (0.0, 1.7):
            for n in range(0, min(3, n_atoms) + 1):
                space = atomic_space(n_atoms, min(n + 1, n_atoms))
                cn = storage_state(geom, k, n, space)
                # raising: sigma-dagger |C^n> = sqrt(1-n/N) sqrt(n+1) |C^n+1>
                raised = apply_sigma(cn, geom, k, dagger=True)
                coeff = math.sqrt(1.0 - n / n_atoms) * math.sqrt(n + 1)
                if n < n_atoms:
                    target = storage_state(geom, k, n + 1, space)
                    worst = max(worst, (raised - coeff * target).norm())
                else:
                    worst = max(worst, raised.norm())
                # lowering: sigma |C^n> = sqrt(n) sqrt(1-(n-1)/N) |C^n-1>
                if n >= 1:
                    lowered = apply_sigma(cn, geom, k)
                    low_coeff = math.sqrt(n) * math.sqrt(
                        1.0 - (n - 1) / n_atoms)
                    target = storage_state(geom, k, n - 1, space)
                    worst = max(worst, (lowered - low_coeff * target).norm())
                # n-step prefactor: (sigma-dagger)^n |C^0> on the vacuum
                if n >= 1:
                    power = vacuum(space)
                    for _ in range(n):
                        power = apply_sigma(power, geom, k, dagger=True)
                    target = storage_state(geom, k, n, space)
                    pref = ladder_prefactor(n_atoms, (n,))
                    worst = max(worst, (power - pref * target).norm())
    ok = worst <= 1e-12
    acceptance(2, "collective ladder coefficients exact to 1e-12, "
                  "N in 3..12, n <= 3", ok)
    assert ok, f"worst deviation {worst:.3e}"


def test_03_dicke_eigenvalues(acceptance):
    worst_eig = 0.0
    worst_res = 0.0
    k = 0.9
    for n_atoms in range(2, 11):
        geom = Geometry.uniform_random(n_atoms, float(n_atoms),
                                       seed=100 + n_atoms)
        for n in range(0, min(3, n_atoms) + 1):
            space = atomic_space(n_atoms, min(n + 1, n_atoms))
            cn = storage_state(geom, k, n, space)
            check = angular_momentum_eigencheck(cn, geom, k)
            worst_eig = max(
                worst_eig,
                abs(check.r3_eigenvalue - (2 * n - n_atoms) / 2.0),
                abs(check.r_squared_eigenvalue
                    - (n_atoms / 2.0) * (n_atoms / 2.0 + 1.0)))
            worst_res = max(worst_res, check.r3_residual,
                            check.r_squared_residual)
    ok = worst_eig <= 1e-10 and worst_res <= 1e-10
    acceptance(3, "Dicke eigenvalues (2n-N)/2 and (N/2)(N/2+1) "
                  "with residuals <= 1e-10, N <= 10, n <= 3", ok)
    assert ok, f"eig dev {worst_eig:.3e}, residual {worst_res:.3e}"


def test_04_commutator_residual_law(acceptance):
    n_atoms, spacing = 64, 0.5
    geom = Geometry.lattice(n_atoms, spacing)
    space = atomic_space(n_atoms, 1)
    vac = SparseKet.basis_state(space, space.label())
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10):
        k, kp = rng.uniform(-3.0, 3.0, size=2)
        element = sigma_commutator_element(geom, k, kp, vac, vac)
        expected = phase_sum(geom, kp - k) / n_atoms
        worst = max(worst, abs(element - expected))
    identity_ok = worst <= 1e-12
    # suppression: |S(dk)|/N < 0.05 across the aliasing-free window
    # starting at |dk| L = 40 (the envelope re-enters near dk d = 2 pi)
    length = n_atoms * spacing
    residuals = [abs(phase_sum(geom, dkl / length)) / n_atoms
                 for dkl in np.linspace(40.0, 360.0, 200)]
    suppression_ok = max(residuals) < 0.05
    ok = identity_ok and suppression_ok
    acceptance(4, "vacuum commutator equals phase_sum/N to 1e-12 (N=64) "
                  "and falls below 0.05 for |dk|L >= 40", ok)
    assert identity_ok, f"worst identity deviation {worst:.3e}"
    assert suppression_ok, f"max residual {max(residuals):.4f}"


def test_05_route_equivalence_and_audit(acceptance):
    worst_fid = 1.0
    for n_atoms in range(3, 13):
        geom = Geometry.uniform_random(n_atoms, float(n_atoms),
                                       seed=200 + n_atoms)
        for n in range(1, min(3, n_atoms) + 1):
            spec = StorageSpec(geom, ((1.3, n),))
            direct = storage_direct(spec)
            laddered, _ = storage_ladder(spec)
            worst_fid = min(worst_fid, fidelity(direct, laddered))
    route_ok = worst_fid >= 1.0 - 1e-12
    geom8 = Geometry.uniform_random(8, 8.0, seed=300)
    worst_audit = 0.0
    for occupations in ((1, 1), (2, 1)):
        modes = tuple(zip((1.3, 2.9), occupations))
        audit = normalization_audit(StorageSpec(geom8, modes))
        expanded = []
        for k, m in modes:
            expanded.extend([k] * m)
        oracle = multimode_norm_sq(geom8.positions, expanded)
        worst_audit = max(worst_audit, abs(audit.raw_norm_sq - oracle),
                          abs(audit.oracle_norm_sq - oracle))
    audit_ok = worst_audit <= 1e-12
    ok = route_ok and audit_ok
    acceptance(5, "direct and ladder storage routes agree; multimode "
                  "audit matches brute-force oracle to 1e-12", ok)
    assert route_ok, f"worst route fidelity {worst_fid:.15f}"
    assert audit_ok, f"worst audit deviation {worst_audit:.3e}"


def eit_params(n_atoms, theta):
    geom = Geometry.lattice(n_atoms, 0.5)
    modes = ModeSet(1.0, 0.8, (0.0,), "raman")
    rabi = math.sqrt(n_atoms) / math.tan(theta) if theta > 0 else 0.0
    return EitParams(geom, modes, 1.0, rabi)


def null_residual(params, n, form):
    state = dark_state(params, n, form=form)
    from coldstore import apply_hamiltonian
    return apply_hamiltonian(state, params).norm()


def test_06_dark_state_null_eigenvalue(acceptance):
    worst = 0.0
    for n_atoms in (4, 8):
        for n in (1, 2):
            for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
                params = eit_params(n_atoms, theta)
                worst = max(worst, null_residual(params, n, "exact"))
    exact_ok = worst <= 1e-10
    approx = {}
    for n_atoms in (8, 16):
        params = eit_params(n_atoms, math.pi / 4)
        approx[n_atoms] = null_residual(params, 2, "approx")
    approx_ok = approx[16] < approx[8]
    ok = exact_ok and approx_ok
    acceptance(6, "exact dark states null the coupling to 1e-10; "
                  "approximate residual shrinks from N=8 to N=16", ok)
    assert exact_ok, f"worst exact residual {worst:.3e}"
    assert approx_ok, f"approx residuals {approx}"


def test_07_endpoint_mapping(acceptance):
    n_atoms = 6
    worst = 0.0
    for n in (1, 2, 3):
        params = eit_params(n_atoms, math.pi / 4)
        space = joint_space(params, n)
        # theta = 0: the pure photonic state |n>|C^0>
        photonic = with_field_occupation(vacuum(space), (n,))
        at_zero = dark_state(params, n, form="approx", theta=0.0,
                             space=space)
        worst = max(worst, abs(inner_product(photonic, at_zero) - 1.0))
        # theta = pi/2: the negative copy (-1)^n |0>|C^n>
        k_eff = params.modes.k_eff(0.0)
        stored = storage_direct(StorageSpec(params.geometry, ((k_eff, n),)),
                                space=space)
        at_half = dark_state(params, n, form="approx", theta=math.pi / 2,
                             space=space)
        worst = max(worst, abs(inner_product(stored, at_half) - (-1.0) ** n))
    ok = worst <= 1e-12
    acceptance(7, "dark state endpoints: |n>|C^0> at theta=0 and the "
                  "(-1)^n negative copy at theta=pi/2", ok)
    assert ok, f"worst endpoint deviation {worst:.3e}"


def run_sweep(duration_coupling):
    geom = Geometry.lattice(8, 0.5)
    modes = ModeSet(1.0, 0.8, (0.0,), "raman")
    params = EitParams(geom, modes, 1.0, rabi=0.0)
    space = joint_space(params, 1)
    initial = with_field_occupation(vacuum(space), (1,))
    cc = params.collective_coupling
    ramp = RampSchedule(0.0, math.pi / 2, duration_coupling / cc,
                        shape="smooth-cosine")
    traj = adiabatic_sweep(initial, params, ramp, rabi_max=50.0 * cc)
    target = dark_state(params, 1, form="exact", space=space,
                        theta=math.pi / 2)
    return traj, fidelity(traj.final_state, target)


def test_08_adiabatic_storage(acceptance):
    slow, slow_fid = run_sweep(200.0)
    fast, fast_fid = run_sweep(0.1)
    slow_ok = slow_fid >= 0.999 and slow.norm_drift <= 1e-8
    fast_ok = fast_fid <= 0.9
    ok = slow_ok and fast_ok
    acceptance(8, "slow sweep stores with fidelity >= 0.999 "
                  "(drift <= 1e-8); fast sweep stays below 0.9", ok)
    assert slow_ok, f"fidelity {slow_fid:.6f}, drift {slow.norm_drift:.2e}"
    assert fast_ok, f"fast fidelity {fast_fid:.3e}"
    del fast


def test_09_dynamic_transfer(acceptance):
    tol = 1e-10
    worst = 0.0
    one = BosonicState.fock(1, 0)
    for omega_t in (0.0, 0.4, 1.0, math.pi / 2):
        ev = evolve_analytic(one, omega_t).amplitudes
        expected = np.zeros_like(ev)
        expected[1, 0] = math.cos(omega_t)
        expected[0, 1] = -1j * math.sin(omega_t)
        worst = max(worst, float(np.linalg.norm(ev - expected)))
    for m in (1, 2, 3):
        state = BosonicState.fock(m, 0)
        quarter = evolve_analytic(state, math.pi / 2).amplitudes
        expected = np.zeros_like(quarter)
        expected[0, m] = (-1j) ** m
        worst = max(worst, float(np.linalg.norm(quarter - expected)))
        half = evolve_analytic(state, math.pi).amplitudes
        expected = np.zeros_like(half)
        expected[m, 0] = (-1.0) ** m
        worst = max(worst, float(np.linalg.norm(half - expected)))
        full = evolve_analytic(state, 2 * math.pi).amplitudes
        worst = max(worst,
                    float(np.linalg.norm(full - state.amplitudes)))
    closed_ok = worst <= tol
    devs = []
    for n_atoms in (4, 8, 16):
        geom = Geometry.lattice(n_atoms, 0.5)
        devs.append(exact_vs_analytic_deviation(
            BosonicState.fock(2, 0), geom, rabi=1.0, t=math.pi / 2))
    trend_ok = devs[0] >= devs[1] >= devs[2]
    ok = closed_ok and trend_ok
    acceptance(9, "closed-form transfer checkpoints to 1e-10; finite-N "
                  "deviation non-increasing over N in {4,8,16}", ok)
    assert closed_ok, f"worst checkpoint deviation {worst:.3e}"
    assert trend_ok, f"deviations {devs}"


def test_10_swap_checkpoints(acceptance):
    rng = np.random.default_rng(42)
    worst = 1.0
    for _ in range(5):
        field = rng.normal(size=4) + 1j * rng.normal(size=4)
        field /= np.linalg.norm(field)
        atom = rng.normal(size=4) + 1j * rng.normal(size=4)
        atom /= np.linalg.norm(atom)
        report = swap_check(field, atom)
        worst = min(worst, report.min_fidelity)
    ok = worst >= 1.0 - 1e-10
    acceptance(10, "state swap: all four checkpoint fidelities equal 1 "
                   "to 1e-10 for random <=3-quanta states", ok)
    assert ok, f"worst checkpoint fidelity {worst:.15f}"


def test_11_population_completeness(acceptance):
    worst = 0.0
    k = 1.7
    for n_atoms in range(3, 13):
        geom = Geometry.uniform_random(n_atoms, float(n_atoms),
                                       seed=400 + n_atoms)
        for n in range(0, min(3, n_atoms) + 1):
            space = atomic_space(n_atoms, max(n, 1))
            cn = storage_state(geom, k, n, space)
            worst = max(worst,
                        abs(level_population(cn, "b") - (n_atoms - n)),
                        abs(level_population(cn, "c") - n))
    ok = worst <= 1e-12
    acceptance(11, "storage-state level populations are exactly N-n and n",
               ok)
    assert ok, f"worst population deviation {worst:.3e}"
