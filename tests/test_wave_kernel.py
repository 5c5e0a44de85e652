import math
import os
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

import symwave
from symwave import wave_kernel
from symwave.errors import ConfigError, InconclusiveIntegralError, PoleError
from symwave.geometry import phi0
from symwave.wave_kernel import (KernelParams, QuadratureControls, bessel_j,
                                 chi_pair, kernel_high_regularized,
                                 kernel_low, kernel_piece, kernel_total,
                                 shell_integral, sphere_area, smooth_step,
                                 with_doubled_panels)
from symwave.root_system import root_system_from_tag
from symwave.wave_kernel import (_FILON_BLOCK, _SERIES_LEN, _build_panels, _filon_sums,
                                 _power_tail_orders, _tail_series, _tail_value)

from kernel_oracle import oracle_high_regularized

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


def test_chi_pair_rejects_unknown_variant():
    with pytest.raises(ConfigError, match="unknown cutoff variant 'Bump'"):
        chi_pair(1.5, "Bump")


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
    out = np.zeros(1, dtype=complex)
    _filon_sums(lambda r, owner: np.exp(r), lambda r: k * r, lambda r: k + 0 * r,
                np.array([-1.0, 1.0]), np.zeros(2, dtype=int), out)
    val = out[0]
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


@pytest.mark.parametrize("tag", ["A1", "A3"])
def test_shell_integral_odd_d_matches_jv(tag):
    # odd d uses sqrt(2z/pi) j_{(d-3)/2}(z) for J_{(d-2)/2}(z); errors are
    # measured against the shell's amplitude scale, the Bessel envelope
    # sqrt(2/(pi z)), because both forms lose relative digits at the zeros
    rs = root_system_from_tag(tag)
    d = rs.dim_X
    z = np.linspace(0.5, 400.0, 40001)
    for s in (0.35, 1.0, 2.7):
        r = z / s
        pref = (2 * np.pi) ** (d / 2) * r ** (d / 2) * s ** ((2 - d) / 2)
        ref = pref * jv((d - 2) / 2, z)
        got = shell_integral(rs, r, s)
        assert np.max(np.abs(got - ref) / (pref * np.sqrt(2 / (np.pi * z)))) < 1e-13
    # an array s broadcast against r equals the per-scalar calls
    r = np.linspace(0.0, 30.0, 301)
    s = np.array([0.0, 0.01, 0.7, 3.8])
    stacked = shell_integral(rs, r, s[:, None])
    assert stacked.shape == (4, 301)
    assert np.all(stacked == np.array([shell_integral(rs, r, float(x)) for x in s]))
    assert type(shell_integral(rs, 2.0, 0.7)) is float


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

def _sequential_panels(a, b, t, s, rho_norm, width_scale):
    """The panel recurrence of one key in scalar arithmetic, the reference
    that the lockstep edges must equal bit for bit."""
    def dphase(r):
        return t * r / np.sqrt(r * r + rho_norm ** 2)

    def d2phase(r):
        return t * rho_norm ** 2 / (r * r + rho_norm ** 2) ** 1.5

    def width(r):
        rate = abs(dphase(r)) + s
        w = min(0.5 * max(r, 0.3 * rho_norm), rho_norm / 3.0 if r < 2.5 * rho_norm else 0.5 * r)
        w = min(w, 20.0 / (rate + 1e-30))
        w = min(w, math.sqrt(0.8 / (abs(d2phase(r)) + 1e-30)))
        return min(w, 6.0 / (s + 1e-30))

    edges = [a]
    r = a
    while r < b - 1e-14 * max(1.0, b):
        w = max(width(r) * width_scale, 1e-9)
        r = min(r + w, b)
        edges.append(r)
    return np.asarray(edges)


@pytest.mark.parametrize("panels", [128, 256])
@pytest.mark.parametrize("t", [0.3, 40.0])
def test_lockstep_panels_equal_sequential_recurrence(a1, a2, panels, t):
    scale = 128.0 / panels
    s = np.array([0.0, 0.7, 3.8])
    for rs in (a1, a2):
        rho = rs.rho_norm
        R = np.maximum(max(2.0 * rho, t * rho ** 2), 12.0 / np.where(s > 0, s, np.inf))
        for a, b in ((0.0, np.full(3, 2.0 * rho)), (rho, R)):    # low, high piece
            edges, owner = _build_panels(a, b, s, t, rho, scale)
            for k in range(3):
                seq = _sequential_panels(a, float(b[k]), t, float(s[k]), rho, scale)
                assert edges[owner == k].tobytes() == seq.tobytes(), (rs.tag, a, k)


def test_lockstep_panels_from_staggered_starts(a1, a2):
    # extension rounds start every key at its own R_k; at t = 400 the phase
    # curvature bounds the width over many steps from these starts
    for rs in (a1, a2):
        rho = rs.rho_norm
        a = np.linspace(0.0, 2.0 * rho, 64)
        edges, owner = _build_panels(a, 4.0 * rho, 0.7, 400.0, rho, 0.5)
        for k in range(64):
            seq = _sequential_panels(float(a[k]), 4.0 * rho, 400.0, 0.7, rho, 0.5)
            assert edges[owner == k].tobytes() == seq.tobytes(), (rs.tag, k)


def test_filon_sums_do_not_depend_on_the_stack():
    # a key's sum has the same bits alone as after other keys' panels, with
    # its own panels split differently between blocks.  The first key has a
    # single panel at kappa ~ 10, a one-row block when alone: a BLAS product
    # gives such a row other bits than the same row inside a larger block
    t, rho = 3.0, 1.5
    s = np.linspace(0.1, 4.0, 40)
    phase = lambda r: t * np.sqrt(r * r + rho ** 2)
    dphase = lambda r: t * r / np.sqrt(r * r + rho ** 2)
    amp = lambda r, k: np.cos(s[k][:, None] * r) / (1.0 + r) ** (1.5 + 0.5j)
    first = np.arange(s.size) == 0
    edges, owner = _build_panels(np.where(first, 100.0, 0.0), np.where(first, 106.0, 300.0),
                                 s, t, rho, 1.0)
    assert np.sum(owner == 0) == 2 and np.sum(owner == 1) > 2 * _FILON_BLOCK // s.size
    stacked = np.zeros(s.size, dtype=complex)
    _filon_sums(amp, phase, dphase, edges, owner, stacked)
    for k in range(s.size):
        alone = np.zeros(s.size, dtype=complex)
        mine = owner == k
        _filon_sums(amp, phase, dphase, edges[mine], owner[mine], alone)
        assert alone[k] == stacked[k], k


def test_filon_engine_vs_adaptive_quadrature():
    t = 9.0
    amp = lambda r: np.cos(3 * r) / (1.0 + r * r)
    phase = lambda r: t * np.sqrt(r * r + 4.0)
    dphase = lambda r: t * r / np.sqrt(r * r + 4.0)
    re = si.quad(lambda r: amp(r) * np.cos(phase(r)), 0, 12, limit=4000)[0]
    im = si.quad(lambda r: amp(r) * np.sin(phase(r)), 0, 12, limit=4000)[0]
    # the kernel's panels for |rho| = 2 and a shell frequency |H| = 3
    edges, owner = _build_panels(0.0, 12.0, 3.0, t, 2.0, 1.0)
    out = np.zeros(1, dtype=complex)
    _filon_sums(lambda r, k: amp(r), phase, dphase, edges, owner, out)
    val = out[0]
    assert val == pytest.approx(re + 1j * im, abs=1e-11)


@pytest.mark.parametrize("p0", [-1.0, 0.0, 1.5, 2.0, 1 + 0.49j, 0.9965j, 18 + 0.49j])
def test_power_tail_orders_match_mpmath(p0):
    # M_k = int_R^inf r^{-p} e^{i xi r} dr = R^{1-p} E_p(-i xi R), p = p0 + k,
    # across the segment/ray switch at |xi| R = 10 and both signs of xi
    R = 2.5
    for xi_R in (1e-12, 1e-6, 1e-3, 0.5, 9.99, 10.0, 30.0, 1e3, 1e4):
        for sign in (1.0, -1.0):
            xi = sign * xi_R / R
            got = _power_tail_orders(complex(p0), xi, R, _SERIES_LEN)
            with mpmath.workdps(30):
                for k in range(_SERIES_LEN):
                    p = mpmath.mpc(p0) + k
                    exact = complex(mpmath.power(R, 1 - p)
                                    * mpmath.expint(p, mpmath.mpc(0, -xi * R)))
                    assert got[k] == pytest.approx(exact, rel=1e-12), (xi_R, sign, k)


def test_radial_integral_errors_name_the_inputs(a1, monkeypatch):
    H = np.array([0.8])
    names = ("high piece", "|H| = 0.8", "sigma = 2+1j", "R = ")
    # the analytic tail may not start beyond 5e6; it starts at t |rho|^2 = 6e6
    with pytest.raises(InconclusiveIntegralError, match="out of reach") as exc:
        kernel_high_regularized(a1, KernelParams(t=3e6, sigma=SIGMA), H)
    assert all(n in str(exc.value) for n in names + ("t = 3e+06",))
    with pytest.raises(InconclusiveIntegralError, match="out of reach") as exc:
        kernel_high_regularized(a1, KernelParams(t=-3e6, sigma=np.conj(SIGMA)), H)
    assert "conjugate of the problem at t = -3e+06, sigma = 2-1j" in str(exc.value)
    # no tail estimate is ever below a zero tolerance
    monkeypatch.setattr(wave_kernel, "TAIL_REL_TOL", 0.0)
    with pytest.raises(InconclusiveIntegralError, match="tail estimate") as exc:
        kernel_high_regularized(a1, KernelParams(t=1.35, sigma=SIGMA), H)
    assert all(n in str(exc.value) for n in names + ("t = 1.35",))
    assert 0.0 < exc.value.tail_bound and 0.0 < exc.value.accumulated


def test_runtime_import_does_not_load_mpmath():
    # mpmath is a test-only oracle; the library must not import it
    src = os.path.dirname(os.path.dirname(symwave.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c",
                    "import symwave, sys; assert 'mpmath' not in sys.modules"],
                   env=env, check=True, timeout=120)


def test_tail_seam_consistency(a1):
    # moving the analytic-tail start must not change low-level values:
    # model(R1) - model(R2) equals the panel integral of the integrand
    # over [R1, R2] up to the Bessel-remainder level
    t, s, rho_t = 1.3, 0.8, a1.rho_norm
    R1, R2 = 20.0, 55.0
    series = _tail_series(a1, SIGMA, rho_t, t)
    tail1, _ = _tail_value(a1, SIGMA, t, s, R1, series)
    tail2, _ = _tail_value(a1, SIGMA, t, s, R2, series)
    amp = lambda r, k: (r * r + rho_t ** 2) ** (-SIGMA / 2.0) * shell_integral(a1, r, s)
    phase = lambda r: t * np.sqrt(r * r + a1.rho_norm ** 2)
    dphase = lambda r: t * r / np.sqrt(r * r + a1.rho_norm ** 2)
    edges, owner = _build_panels(R1, R2, s, t, a1.rho_norm, 1.0)
    out = np.zeros(1, dtype=complex)
    _filon_sums(amp, phase, dphase, edges, owner, out)
    seg = out[0]
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
    H = np.array([1.0])
    a = kernel_high_regularized(a1, KernelParams(t=2.0, sigma=SIGMA), H)
    b = oracle_high_regularized(a1, 2.0, SIGMA, H)
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


@pytest.mark.parametrize("tag", ["A1", "A2"])
@pytest.mark.parametrize("t", [0.7, -0.7])
def test_stacked_kernel_equals_single_points(tag, t, a1, a2):
    rs = {"A1": a1, "A2": a2}[tag]
    p = KernelParams(t=t, sigma=SIGMA)
    # a repeated |H|, the origin, a wall point (A2: the wall of the first
    # simple root; the only wall point of A1 is the origin), the cone node,
    # |H| = 5e-5 (below 1e-4 the tail takes the |H| = 0 shell; its tail is
    # extended), |H| = 2e-4 (panels out to 12/|H| = 6e4, more than one Filon
    # block) and |H| = 4 (a tail extension on A1 and A2)
    u = rs.rho_c / np.linalg.norm(rs.rho_c)
    wall = np.linalg.solve(rs.simple_c, np.eye(rs.rank)[-1])
    wall /= np.linalg.norm(wall)
    H = np.array([1.1 * u, np.zeros(rs.rank), 1.1 * wall, abs(t) * u, 1.1 * u,
                  5e-5 * u, 2e-4 * u, 4.0 * u])
    for piece in ("low", "high_reg", "total"):
        stacked = kernel_piece(rs, p, H, piece)
        single = [kernel_piece(rs, p, h, piece) for h in H]
        assert stacked.shape == (len(H),)
        assert all(type(v) is complex for v in single)
        assert np.all(stacked == np.array(single)), piece
    outside = np.vstack([H[:2], -H[:1], H[2:]])
    with pytest.raises(ConfigError, match=re.escape(f"H[2] = {(-H[0]).tolist()}")):
        kernel_piece(rs, p, outside, "low")


def test_kernel_piece_dispatch(a1):
    p = KernelParams(t=1.0, sigma=SIGMA)
    with pytest.raises(ConfigError):
        kernel_piece(a1, p, np.zeros(1), "nope")
