import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from coldstore import (
    Geometry,
    ModeSet,
    check_mode_conditions,
    continuum_phase_sum,
    lattice_phase_sum_closed,
    mode_spacing_estimate,
    phase_sum,
    phase_sum_crosscheck,
)


def test_lattice_constructor():
    geom = Geometry.lattice(5, spacing=2.0)
    assert geom.positions == (0.0, 2.0, 4.0, 6.0, 8.0)
    assert geom.length == 10.0
    assert geom.kind == "lattice"


def test_uniform_random_reproducible_and_sorted():
    a = Geometry.uniform_random(20, length=7.0, seed=42)
    b = Geometry.uniform_random(20, length=7.0, seed=42)
    assert a.positions == b.positions
    assert list(a.positions) == sorted(a.positions)
    assert all(0.0 <= z < 7.0 for z in a.positions)
    assert a.seed == 42


def test_from_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "positions.txt"
    path.write_text("# header\n0.0\n\n1.5  # inline\n3.0\n")
    geom = Geometry.from_file(path, length=5.0)
    assert geom.positions == (0.0, 1.5, 3.0)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(ValueError):
        Geometry.from_file(empty)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(positions=(), length=1.0)
    with pytest.raises(ValueError):
        Geometry(positions=(2.0,), length=1.0)
    with pytest.raises(ValueError):
        Geometry(positions=(0.0,), length=-1.0)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.floats(min_value=-20.0, max_value=20.0,
                 allow_nan=False, allow_infinity=False))
def test_lattice_closed_form_matches_direct_sum(n_atoms, k):
    geom = Geometry.lattice(n_atoms)
    direct = phase_sum(geom, k)
    closed = lattice_phase_sum_closed(n_atoms, k)
    assert_allclose([direct], [closed], atol=1e-9 * n_atoms)


def test_phase_sum_at_resonance_equals_n():
    n = 16
    geom = Geometry.lattice(n)
    for m in (0, 1, 2):
        k = 2.0 * math.pi * m
        assert phase_sum(geom, k) == pytest.approx(n, abs=1e-9)
        assert lattice_phase_sum_closed(n, k) == pytest.approx(n)


def test_continuum_formula():
    assert continuum_phase_sum(7, 0.0, 3.0) == 7.0
    n, k, length = 10, 1.3, 4.0
    x = k * length
    expected = n * (np.exp(1j * x) - 1.0) / (1j * x)
    assert continuum_phase_sum(n, k, length) == pytest.approx(expected)


def test_continuum_approximates_dense_random_gas():
    # many atoms drawn uniformly: the direct sum converges on the
    # uniform-density integral like 1/sqrt(N)
    n = 40_000
    geom = Geometry.uniform_random(n, length=6.0, seed=7)
    k = 2.0
    direct = phase_sum(geom, k) / n
    cont = continuum_phase_sum(n, k, 6.0) / n
    assert abs(direct - cont) < 5.0 / math.sqrt(n)


def test_mode_spacing_estimate_sodium_cell():
    spacing = mode_spacing_estimate(wavelength=589.6e-9, length=339e-6)
    assert spacing == pytest.approx(0.163e-9, abs=0.001e-9)
    with pytest.raises(ValueError):
        mode_spacing_estimate(0.0, 1.0)
    with pytest.raises(ValueError):
        mode_spacing_estimate(1.0, -1.0)


def test_crosscheck_report_lattice_vs_random():
    lat = phase_sum_crosscheck(Geometry.lattice(9), 0.8)
    assert lat.lattice_closed == pytest.approx(lat.direct)
    rnd = phase_sum_crosscheck(Geometry.uniform_random(9, 9.0, seed=1), 0.8)
    assert rnd.lattice_closed is None
    assert rnd.direct != pytest.approx(rnd.continuum)  # N=9 is far from dense


def test_mode_set_effective_wavevectors():
    raman = ModeSet(k_signal=2.0, k_control=1.5, detunings=(0.0, 0.3))
    assert raman.k_eff(0.3) == pytest.approx(2.0 + 0.3 - 1.5)
    cascade = ModeSet(k_signal=2.0, k_control=1.5, transition="cascade")
    assert cascade.k_eff(0.0) == pytest.approx(3.5)
    assert raman.signal_wavevector(0.3) == pytest.approx(2.3)
    assert raman.omega(0.3) == pytest.approx(0.3)


def test_mode_set_validation():
    with pytest.raises(ValueError):
        ModeSet(1.0, 1.0, transition="dipole")
    with pytest.raises(ValueError):
        ModeSet(1.0, 1.0, detunings=(0.1, 0.1))


def test_condition_report_passes_for_large_dilute_sample():
    geom = Geometry.lattice(2000)
    modes = ModeSet(k_signal=0.2, k_control=0.19, detunings=(0.0, 0.05))
    report = check_mode_conditions(geom, modes, n_max=3)
    assert report.all_ok
    assert report.excitation_ratio == pytest.approx(2000 / 3)
    assert report.length_over_spacing == pytest.approx(2000.0)
    assert len(report.mode_records) == 2
    assert len(report.pair_records) == 1
    pair = report.pair_records[0]
    assert pair.dk == pytest.approx(0.05)
    assert pair.dk_times_length == pytest.approx(100.0)
    assert pair.residual <= 0.05


def test_condition_report_flags_failures():
    geom = Geometry.lattice(4)
    # wavelength comparable to the spacing and modes far too close to resolve
    modes = ModeSet(k_signal=3.0, k_control=2.9, detunings=(0.0, 0.01))
    report = check_mode_conditions(geom, modes, n_max=2)
    assert not report.all_ok
    assert not report.excitation_ok          # 4/2 = 2 < 10
    assert not report.mode_records[0].ok     # lambda/d ~ 2
    assert not report.pair_records[0].ok     # dk L = 0.04
    with pytest.raises(ValueError):
        check_mode_conditions(geom, modes, n_max=0)


def test_condition_thresholds_are_adjustable():
    geom = Geometry.lattice(30)
    modes = ModeSet(k_signal=0.5, k_control=0.45)
    strict = check_mode_conditions(geom, modes, n_max=3, min_ratio=100.0)
    lax = check_mode_conditions(geom, modes, n_max=3, min_ratio=1.0)
    assert not strict.all_ok
    assert lax.all_ok
