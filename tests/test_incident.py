import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scatter_swarm import fd
from scatter_swarm.core import MediumParams
from scatter_swarm.errors import ParameterError
from scatter_swarm.incident import PlaneWave, curl_E0, eval_E0, eval_H0

coord = st.floats(min_value=-5, max_value=5, allow_nan=False)
point = st.tuples(coord, coord, coord).map(np.array)


@pytest.fixture
def wave():
    return PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0])


def test_plane_wave_validation():
    with pytest.raises(ParameterError):
        PlaneWave(direction=[0, 0, 2], polarization=[1, 0, 0])
    with pytest.raises(ParameterError):
        PlaneWave(direction=[0, 0, 1], polarization=[1, 0, 0.5])


def test_eval_E0_phase(wave):
    assert np.array_equal(eval_E0(wave, 1.0, np.zeros(3)), np.array([1, 0, 0], dtype=complex))
    val = eval_E0(wave, 1.0, np.array([0, 0, np.pi]))
    assert np.abs(val - np.array([-1, 0, 0])).max() < 1e-15


@settings(max_examples=100)
@given(point)
def test_eval_E0_unimodular_phase(x):
    wave = PlaneWave(direction=[0, 1, 0], polarization=[0.5, 0, 1.25j])
    val = eval_E0(wave, 1.3, x)
    assert abs(np.linalg.norm(val) - np.linalg.norm(wave.polarization)) <= 1e-12


def test_curl_E0_direction(wave):
    out = curl_E0(wave, 1.0, np.zeros(3))
    assert np.abs(out - np.array([0, 1j, 0])).max() < 1e-15


def test_curl_E0_matches_finite_differences(wave):
    k = 1.7
    rng = np.random.default_rng(3)
    for _ in range(4):
        x = rng.uniform(-2, 2, 3)
        ana = curl_E0(wave, k, x)
        num = fd.curl(lambda p: eval_E0(wave, k, p), x, step=1e-5)
        assert np.abs(ana - num).max() <= 1e-8 * np.abs(ana).max()


def test_E0_divergence_free(wave):
    k = 2.1
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = rng.uniform(-2, 2, 3)
        d = fd.div(lambda p: eval_E0(wave, k, p), x, step=1e-5)
        assert abs(d) <= 1e-8 * k * np.linalg.norm(eval_E0(wave, k, x))


def test_both_maxwell_equations():
    medium = MediumParams(omega=1.4)
    wave = PlaneWave(direction=[0.6, 0.0, 0.8], polarization=[-0.8, 0.0, 0.6])
    k = medium.k
    rng = np.random.default_rng(9)
    for _ in range(4):
        x = rng.uniform(-1, 1, 3)
        H = eval_H0(wave, medium, x)
        E = eval_E0(wave, k, x)
        curl_e = fd.curl(lambda p: eval_E0(wave, k, p), x)
        assert np.abs(curl_e - 1j * medium.omega * medium.mu0 * H).max() \
            <= 1e-6 * np.abs(curl_e).max()
        curl_h = fd.curl(lambda p: eval_H0(wave, medium, p), x)
        rhs = -1j * medium.omega * medium.eps_eff * E
        assert np.abs(curl_h - rhs).max() <= 1e-6 * np.abs(rhs).max()
