import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from symwave.errors import ConfigError, PoleError
from symwave.geometry import phi0
from symwave.wave_kernel import (KernelParams, QuadratureControls, bessel_j,
                                 chi_pair, kernel_high_regularized,
                                 kernel_low, kernel_piece, kernel_total,
                                 shell_integral, sphere_area, smooth_step,
                                 with_doubled_panels)
from symwave.wave_kernel import _filon_integrate, _build_panels, _tail_value

SIGMA = 2.0 + 1.0j


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

def test_chi_plateaus():
    c0, cinf = chi_pair(0.5)
    assert c0 == 1.0 and cinf == 0.0
    c0, cinf = chi_pair(3.0)
    assert c0 == 0.0 and cinf == 1.0


def test_chi_transition_and_evenness():
    c0, cinf = chi_pair(1.5)
    assert 0.0 < c0 < 1.0
    assert cinf == pytest.approx(1.0 - c0)
    c0m, _ = chi_pair(-1.5)
    assert c0m == pytest.approx(c0)


@settings(max_examples=80, deadline=None)
@given(st.floats(-5, 5))
def test_chi_partition_of_unity(r):
    for variant in ("bump", "alt"):
        c0, cinf = chi_pair(r, variant)
        assert c0 + cinf == pytest.approx(1.0, abs=1e-15)
        assert -1e-15 <= c0 <= 1 + 1e-15


def test_smooth_step_monotone():
    s = np.linspace(-0.5, 1.5, 300)
    v = smooth_step(s)
    assert np.all(np.diff(v) <= 1e-15)


# ---------------------------------------------------------------------------
# Bessel and shell
# ---------------------------------------------------------------------------

def test_bessel_half_integer_closed_form():
    x = np.linspace(0.05, 30, 400)
    closed = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
    assert np.max(np.abs(bessel_j(0.5, x) - closed)) < 1e-12
    assert abs(bessel_j(0.5, np.pi)) < 1e-14


def test_bessel_at_zero_and_against_scipy():
    assert bessel_j(3.0, 0.0) == 0.0
    assert bessel_j(0.0, 0.0) == 1.0
    x = np.linspace(0.0, 40.0, 1500)
    for nu in (0.5, 2.0, 3.0, 4.0, 6.5, 9.5):
        assert np.max(np.abs(bessel_j(nu, x) - jv(nu, x))) < 1e-10


def test_bessel_large_argument_envelope():
    x = np.linspace(1.0, 200.0, 4000)
    for nu in (0.5, 3.0):
        assert np.all(np.abs(bessel_j(nu, x)) <= 0.95 * x ** -0.5)


def test_bessel_domain():
    with pytest.raises(ConfigError):
        bessel_j(-1.0, 1.0)
    with pytest.raises(ConfigError):
        bessel_j(1.0, -0.5)


@pytest.mark.parametrize("k", [10.0, 30.0, 40.0, 45.0, -40.0])
def test_filon_single_panel_matches_quad(k):
    # one panel of width 2 with linear phase k r: the Legendre moments are
    # 2 i^n j_n(k), here at |k| beyond the range production panels reach
    val = _filon_integrate(np.exp, lambda r: k * r, lambda r: k + 0 * r,
                           np.array([-1.0, 1.0]))
    re = si.quad(np.exp, -1.0, 1.0, weight="cos", wvar=k)[0]
    im = si.quad(np.exp, -1.0, 1.0, weight="sin", wvar=k)[0]
    assert val == pytest.approx(complex(re, im), rel=1e-12)


def test_shell_integral_sphere_limit(a1, a2):
    for rs in (a1, a2):
        d = rs.dim_X
        assert shell_integral(rs, 2.0, 0.0) == pytest.approx(
            sphere_area(d) * 2.0 ** (d - 1), rel=1e-12)


def test_shell_integral_d3_closed_form(a1):
    r = np.array([0.2, 1.0, 4.0, 11.0])
    s = 1.7
    exact = 4 * np.pi * r * np.sin(r * s) / s
    assert np.max(np.abs(shell_integral(a1, r, s) - exact)) < 1e-10


def test_shell_oscillation_bound(a1):
    # |shell| <= C r^{(d-1)/2} s^{-(d-1)/2} for r s >= 1
    d = a1.dim_X
    C = (2 * np.pi) ** (d / 2.0) * np.sqrt(2.0 / np.pi) * 1.05
    for s in (0.5, 1.3, 4.0):
        r = np.linspace(1.0 / s, 50.0, 900)
        bound = C * r ** ((d - 1) / 2.0) * s ** (-(d - 1) / 2.0)
        assert np.all(np.abs(shell_integral(a1, r, s)) <= bound)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_validation(a1):
    with pytest.raises(ConfigError):
        KernelParams(t=0.0, sigma=SIGMA)
    with pytest.raises(ConfigError):
        KernelParams(t=1.0, sigma=SIGMA, rho_tilde=0.5).resolved_rho_tilde(a1)
    with pytest.raises(ConfigError):
        QuadratureControls(panels=32)
    with pytest.raises(ConfigError):
        QuadratureControls(r_max=1.0).validate_for(a1.rho_norm, 1.0)


def test_gamma_pole_guard(a1):
    # sigma = (d+1)/2 exactly sits on a Gamma pole of the analytic family
    p = KernelParams(t=1.0, sigma=2.0 + 0.0j)
    with pytest.raises(PoleError):
        kernel_high_regularized(a1, p, np.zeros(1))
    with pytest.raises(PoleError):
        kernel_total(a1, p, np.zeros(1))
    # sigma = 3 puts the unregularization factor on the Gamma pole at -1
    with pytest.raises(PoleError):
        kernel_total(a1, KernelParams(t=1.0, sigma=3.0 + 0.0j), np.zeros(1))


def test_chamber_requirement(a1):
    p = KernelParams(t=1.0, sigma=SIGMA)
    with pytest.raises(ConfigError):
        kernel_low(a1, p, -a1.rho_c)


# ---------------------------------------------------------------------------
# Filon panel engine
# ---------------------------------------------------------------------------

def test_filon_engine_vs_adaptive_quadrature():
    t = 9.0
    amp = lambda r: np.cos(3 * r) / (1.0 + r * r)
    phase = lambda r: t * np.sqrt(r * r + 4.0)
    dphase = lambda r: t * r / np.sqrt(r * r + 4.0)
    re = si.quad(lambda r: amp(r) * np.cos(phase(r)), 0, 12, limit=4000)[0]
    im = si.quad(lambda r: amp(r) * np.sin(phase(r)), 0, 12, limit=4000)[0]
    edges = _build_panels(0.0, 12.0, lambda r: min(
        0.5, 20.0 / (dphase(r) + 3 + 1e-30),
        np.sqrt(0.8 / (t * 4.0 / (r * r + 4.0) ** 1.5 + 1e-30))), 1.0)
    val = _filon_integrate(amp, phase, dphase, edges)
    assert val == pytest.approx(re + 1j * im, abs=1e-11)


def test_tail_seam_consistency(a1):
    # moving the analytic-tail start must not change low-level values:
    # model(R1) - model(R2) equals the panel integral of the integrand
    # over [R1, R2] up to the Bessel-remainder level
    t, s, rho_t = 1.3, 0.8, a1.rho_norm
    R1, R2 = 20.0, 55.0
    tail1, _ = _tail_value(a1, SIGMA, rho_t, t, s, R1)
    tail2, _ = _tail_value(a1, SIGMA, rho_t, t, s, R2)
    amp = lambda r: (r * r + rho_t ** 2) ** (-SIGMA / 2.0) * shell_integral(a1, r, s)
    phase = lambda r: t * np.sqrt(r * r + a1.rho_norm ** 2)
    dphase = lambda r: t * r / np.sqrt(r * r + a1.rho_norm ** 2)
    edges = _build_panels(R1, R2, lambda r: min(0.5 * r, 20.0 / (dphase(r) + s)), 1.0)
    seg = _filon_integrate(amp, phase, dphase, edges)
    assert tail1 - tail2 == pytest.approx(seg, rel=1e-8)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_conjugation_symmetry(a1):
    H = np.array([1.0])
    a = np.conj(kernel_high_regularized(
        a1, KernelParams(t=-2.0, sigma=np.conj(SIGMA)), H))
    b = kernel_high_regularized(a1, KernelParams(t=2.0, sigma=SIGMA), H)
    assert a == pytest.approx(b, rel=1e-12)
    a = np.conj(kernel_low(a1, KernelParams(t=-2.0, sigma=np.conj(SIGMA)), H))
    b = kernel_low(a1, KernelParams(t=2.0, sigma=SIGMA), H)
    assert a == pytest.approx(b, rel=1e-12)


def test_oracle_agreement_spot(a1):
    p_f = KernelParams(t=2.0, sigma=SIGMA)
    p_o = KernelParams(t=2.0, sigma=SIGMA,
                       quad=QuadratureControls(oracle_mode=True))
    H = np.array([1.0])
    a = kernel_high_regularized(a1, p_f, H)
    b = kernel_high_regularized(a1, p_o, H)
    assert abs(a - b) / abs(b) < 1e-6


def test_total_additivity(a1):
    from scipy.special import gamma as cgamma
    p = KernelParams(t=1.5, sigma=SIGMA)
    H = np.array([0.7])
    z = (a1.dim_X + 1) / 2.0 - SIGMA
    unreg = cgamma(z) * np.exp(-SIGMA ** 2)
    total = kernel_total(a1, p, H)
    split = kernel_low(a1, p, H) + unreg * kernel_high_regularized(a1, p, H)
    assert total == pytest.approx(split, rel=1e-12)


def test_cutoff_independence(a1):
    p = KernelParams(t=1.0, sigma=SIGMA)
    for H in (np.zeros(1), np.array([0.8])):
        va = kernel_total(a1, p, H, "bump")
        vb = kernel_total(a1, p, H, "alt")
        assert abs(va - vb) / abs(va) < 1e-6


def test_panel_doubling_stability(a1):
    p = KernelParams(t=2.0, sigma=SIGMA)
    for H in (np.zeros(1), np.array([1.0])):
        v1 = kernel_high_regularized(a1, p, H)
        v2 = kernel_high_regularized(a1, with_doubled_panels(p), H)
        assert abs(v1 - v2) / abs(v2) < 1e-7


def test_low_piece_bounded_by_phi0(a1):
    # |omega^{sigma,0}| <= C phi0 uniformly over a wide time sweep
    ratios = []
    for t in np.geomspace(0.1, 50.0, 12):
        p = KernelParams(t=float(t), sigma=SIGMA)
        for s in (0.0, 0.9, 2.4):
            H = np.array([s])
            ratios.append(abs(kernel_low(a1, p, H)) / phi0(a1, H))
    assert max(ratios) < 60.0     # uniform constant, no growth


def test_sigma_branch_cauchy_riemann(a1):
    # (r^2 + rho_tilde^2)^{-sigma/2} analytic in sigma: numerical CR check
    r, rho_t = 1.7, a1.rho_norm
    f = lambda sig: (r * r + rho_t ** 2) ** (-sig / 2.0)
    h = 1e-6
    for sig in (SIGMA, 0.3 + 2.2j):
        du = (f(sig + h) - f(sig - h)) / (2 * h)
        dv = (f(sig + 1j * h) - f(sig - 1j * h)) / (2 * h)
        assert du == pytest.approx(-1j * dv, rel=1e-6)


def test_spectral_route_cross_check(a1, a2):
    # radial-reduction kernel against direct quadrature over the spectral
    # box, tied by the vector-space polar-decomposition constant
    from symwave.root_system import weyl_group, pi_many
    from symwave.spherical import SpectralGrid, phi_lambda
    from symwave.spherical import _phi_direct, _min_abs_pairing
    for rs, m in ((a1, 351), (a2, 121)):
        W = weyl_group(rs)
        t, sig = 0.7, 1.3 + 0.4j
        rho_t = rs.rho_norm * 1.1
        H = rs.rho_c * 0.23
        radial = kernel_low(rs, KernelParams(t=t, sigma=sig, rho_tilde=rho_t), H)
        sg = SpectralGrid(rs, 2 * rs.rho_norm * 1.02, m)
        lam = sg.nodes
        lam_n = np.linalg.norm(lam, axis=1)
        mult = smooth_step(lam_n / rs.rho_norm - 1.0) \
            * (lam_n ** 2 + rho_t ** 2) ** (-sig / 2.0) \
            * np.exp(1j * t * np.sqrt(lam_n ** 2 + rs.rho_norm ** 2))
        phiv = np.empty(len(lam), dtype=complex)
        ok = _min_abs_pairing(rs, lam) >= 1e-4
        phiv[ok] = _phi_direct(rs, lam[ok], H[None, :])[:, 0]
        for i in np.nonzero(~ok)[0]:
            phiv[i] = phi_lambda(rs, lam[i], H)
        spectral = np.sum(sg.weights * mult * pi_many(rs, lam) ** 2 * phiv)
        # kappa from the Gaussian normalization integral
        sgg = SpectralGrid(rs, 6.0, 161)
        I = np.sum(sgg.weights * pi_many(rs, sgg.nodes) ** 2
                   * np.exp(-np.sum(sgg.nodes ** 2, axis=1))) / W.order
        kappa = np.pi ** (rs.dim_X / 2.0) / I
        assert spectral == pytest.approx(W.order / kappa * radial,
                                         rel=2e-4 if rs.rank == 2 else 1e-6)


def test_kernel_piece_dispatch(a1):
    p = KernelParams(t=1.0, sigma=SIGMA)
    with pytest.raises(ConfigError):
        kernel_piece(a1, p, np.zeros(1), "nope")
