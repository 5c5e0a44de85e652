import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

import symwave
from symwave import wave_kernel
from symwave.errors import ConfigError, InconclusiveIntegralError, PoleError
from symwave.estimates import decay_sweep
from symwave.geometry import phi0
from symwave.wave_kernel import (KernelParams, bessel_j, chi_pair, kernel_piece,
                                 shell_integral, sphere_area, smooth_step)
from symwave.root_system import root_system_from_tag
from symwave.wave_kernel import (_FILON_BLOCK, _SERIES_LEN, _SPLIT_Z0, _build_panels,
                                 _filon_sums, _power_tail_orders, _radial_profile,
                                 _shell_branch, _tail_series, _tail_values)

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
    # within 1e-4 of the end of the ramp the alternative step's logistic
    # has an exponent beyond 709
    c0, cinf = chi_pair(np.array([1.9999, 1.99999, -1.9999]), "alt")
    assert np.all(c0 == 0.0) and np.all(cinf == 1.0)


def test_chi_transition_and_evenness():
    c0, cinf = chi_pair(1.5)
    assert 0.0 < c0 < 1.0
    assert cinf == pytest.approx(1.0 - c0)
    c0m, _ = chi_pair(-1.5)
    assert c0m == pytest.approx(c0)


@settings(max_examples=80, deadline=None)
@given(st.floats(-5, 5))
@example(1.9999)
@example(-1.99995)
@example(1.00001)
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


@pytest.mark.parametrize("k", [10.0, 30.0, 40.0, 45.0, -40.0, 1500.0])
def test_filon_single_panel_matches_quad(k):
    # one panel of width 2 with linear phase k r: the Legendre moments are
    # 2 i^n j_n(k), here at |k| beyond the range unsplit panels reach; the
    # Hankel-branch panels reach k ~ 1500
    out = np.zeros(1, dtype=complex)
    _filon_sums(lambda r, owner, split: np.exp(r), lambda r, owner: k * r, lambda r, owner: k + 0 * r,
                np.array([-1.0, 1.0]), np.zeros(2, dtype=int), np.zeros(2), out)
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


@pytest.mark.parametrize("tag", ["D2", "A2", "B2", "C2", "A4", "D4", "B4"])
def test_shell_integral_even_d_matches_jv(tag):
    # even d (6 to 36 here) is |S^{d-1}| r^{d-1} 0F1(; d/2; -z^2/4) at every
    # z = r s; against jv on the envelope scale of the odd-d test, and
    # relative to jv below z = 0.5, where the shell has no zeros
    rs = root_system_from_tag(tag)
    d = rs.dim_X
    nu = (d - 2) / 2
    z = np.linspace(0.5, 400.0, 40001)
    small = np.linspace(0.0, 0.5, 5001)[1:]
    for s in (0.35, 1.0, 2.7):
        r = z / s
        pref = (2 * np.pi) ** (d / 2) * r ** (d / 2) * s ** ((2 - d) / 2)
        ref = pref * jv(nu, z)
        got = shell_integral(rs, r, s)
        assert np.max(np.abs(got - ref) / (pref * np.sqrt(2 / (np.pi * z)))) < 1e-13
        r = small / s
        ref = sphere_area(d) * r ** (d - 1) * math.gamma(nu + 1) * jv(nu, small) / (small / 2) ** nu
        assert np.max(np.abs(shell_integral(rs, r, s) / ref - 1.0)) < 1e-13
    r = np.array([0.0, 0.3, 2.0, 17.0])
    assert np.all(shell_integral(rs, r, 0.0) == sphere_area(d) * r ** (d - 1))
    # an array s broadcast against r equals the per-scalar calls
    r = np.linspace(0.0, 30.0, 301)
    s = np.array([0.0, 0.01, 0.7, 3.8])
    stacked = shell_integral(rs, r, s[:, None])
    assert stacked.shape == (4, 301)
    assert np.all(stacked == np.array([shell_integral(rs, r, float(x)) for x in s]))
    assert type(shell_integral(rs, 2.0, 0.7)) is float


def test_even_d_kernel_makes_no_jv_call(a2, monkeypatch):
    # the A2 shell is hyp0f1 before the Filon cut and hankel1e past it, so
    # a high piece whose shell nodes reach r |H| of a few hundred gives the
    # same bits with jv raising
    p = KernelParams(t=0.3, sigma=4.5 + 1.0j)
    H = np.array([[0.0, 0.0], [0.05, 0.02], [0.9, 0.4], [3.0, -1.0]])
    want = kernel_piece(a2, p, H, "high_reg")
    tables = wave_kernel._kernel_tables()

    def no_jv(*args):
        raise AssertionError("jv called")

    monkeypatch.setattr(wave_kernel, "_kernel_tables", lambda: tables._replace(jv=no_jv))
    assert np.all(kernel_piece(a2, p, H, "high_reg") == want)


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
        KernelParams(t=1.0, sigma=SIGMA, panels=32)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_refuse_non_finite_values(bad):
    # each field, and either part of sigma, is refused with its name and value
    for field, value in (("t", bad), ("sigma", complex(bad, 1.0)), ("sigma", complex(2.0, bad)),
                         ("rho_tilde", bad), ("panels", bad)):
        with pytest.raises(ConfigError, match=re.escape(f"{field} = {value!r} is not finite")):
            KernelParams(**{"t": 1.0, "sigma": SIGMA, field: value})


def test_gamma_pole_guard(a1):
    # sigma = (d+1)/2 exactly sits on a Gamma pole of the analytic family
    p = KernelParams(t=1.0, sigma=2.0 + 0.0j)
    with pytest.raises(PoleError):
        kernel_piece(a1, p, np.zeros(1), "high_reg")
    with pytest.raises(PoleError):
        kernel_piece(a1, p, np.zeros(1), "total")
    # sigma = 3 puts the unregularization factor on the Gamma pole at -1
    with pytest.raises(PoleError):
        kernel_piece(a1, KernelParams(t=1.0, sigma=3.0 + 0.0j), np.zeros(1), "total")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_refuses_rows_without_a_finite_norm(a1, a2, monkeypatch, bad):
    def no_panels(*args):
        raise AssertionError("a panel was built")

    monkeypatch.setattr(wave_kernel, "_build_panels", no_panels)
    p = KernelParams(t=1.0, sigma=SIGMA)
    with pytest.raises(ConfigError, match=re.escape(f"H = {[bad]}")):
        kernel_piece(a1, p, [bad], "high_reg")
    for rs in (a1, a2):
        H = np.ones((3, rs.rank))
        H[1, -1] = bad
        for piece in ("low", "high_reg", "total"):
            with pytest.raises(ConfigError, match=re.escape(f"H[1] = {H[1].tolist()}")):
                kernel_piece(rs, p, H, piece)


# ---------------------------------------------------------------------------
# Filon panel engine
# ---------------------------------------------------------------------------

def _sequential_panels(a, b, t, s, rho_norm, width_scale):
    """The panel recurrence of one key in scalar arithmetic, the reference
    that the lockstep edges must equal bit for bit; returns the edges and
    whether each panel is past the cut r = max(Z0/s, 2 |rho|)."""
    def dphase(r):
        return t * r / np.sqrt(r * r + rho_norm ** 2)

    def d2phase(r):
        q = r * r + rho_norm ** 2
        return t * rho_norm ** 2 / (q * math.sqrt(q))

    def width(r, past):
        w = min(0.5 * max(r, 0.3 * rho_norm), rho_norm / 3.0 if r < 2.5 * rho_norm else 0.5 * r)
        w = min(w, math.sqrt(0.8 / (abs(d2phase(r)) + 1e-30)))
        if past:                   # Hankel branches: local scale and curvature only
            return w
        w = min(w, 20.0 / (abs(dphase(r)) + s + 1e-30))
        return min(w, 6.0 / (s + 1e-30))

    cut = min(b, max(_SPLIT_Z0 / s if s > 0 else math.inf, 2.0 * rho_norm))
    edges, split = [a], []
    r = a
    while r < b - 1e-14 * max(1.0, b):
        past = r >= cut - 1e-14 * max(1.0, cut)
        w = max(width(r, past) * width_scale, 1e-9)
        r = min(r + w, b if past else cut)
        edges.append(r)
        split.append(past)
    return np.asarray(edges), np.asarray(split, dtype=bool)


@pytest.mark.parametrize("panels", [128, 256])
@pytest.mark.parametrize("t", [0.3, 40.0])
def test_lockstep_panels_equal_sequential_recurrence(a1, a2, panels, t):
    # at t = 40 the high piece's keys 0.7 and 3.8 are cut inside their
    # stretch; the low piece ends at 2 |rho|, where no cut falls earlier
    scale = 128.0 / panels
    s = np.array([0.0, 0.7, 3.8])
    for rs in (a1, a2):
        rho = rs.rho_norm
        R = np.maximum(max(2.0 * rho, t * rho ** 2), 12.0 / np.where(s > 0, s, np.inf))
        for a, b in ((0.0, np.full(3, 2.0 * rho)), (rho, R)):    # low, high piece
            edges, owner, wave = _build_panels(a, b, s, t, rho, scale)
            for k in range(3):
                seq, split = _sequential_panels(a, float(b[k]), t, float(s[k]), rho, scale)
                assert edges[owner == k].tobytes() == seq.tobytes(), (rs.tag, a, k)
                assert np.all(wave[owner == k] == np.append(np.where(split, s[k], 0.0), 0.0))
            if t == 40.0 and a == rho:
                assert np.count_nonzero(wave) > 0


def test_lockstep_panels_from_staggered_starts(a1, a2):
    # extension rounds start every key at its own R_k; at t = 400 the phase
    # curvature bounds the width over many steps from these starts
    for rs in (a1, a2):
        rho = rs.rho_norm
        a = np.linspace(0.0, 2.0 * rho, 64)
        edges, owner, _ = _build_panels(a, 4.0 * rho, 0.7, 400.0, rho, 0.5)
        for k in range(64):
            seq, _ = _sequential_panels(float(a[k]), 4.0 * rho, 400.0, 0.7, rho, 0.5)
            assert edges[owner == k].tobytes() == seq.tobytes(), (rs.tag, k)


def test_filon_sums_do_not_depend_on_the_stack():
    # a key's sum has the same bits alone as after other keys' panels, with
    # its own panels split differently between blocks.  The first key has a
    # single panel at kappa ~ 5, a one-row block when alone: a BLAS product
    # gives such a row other bits than the same row inside a larger block.
    # Past r = 40/s the other keys' panels carry the two Hankel-type branches
    # of the real amplitude cos(s r + ln(1 + r)/2)/(1 + r)^1.5
    t, rho = 3.0, 1.5
    s = np.linspace(0.1, 4.0, 40)
    phase = lambda r, k: t * np.sqrt(r * r + rho ** 2)
    dphase = lambda r, k: t * r / np.sqrt(r * r + rho ** 2)

    def amp(r, k, split):
        branch = 0.5 * (1.0 + r) ** (-1.5 + 0.5j)
        return np.where(split[:, None], branch, 2.0 * np.real(branch * np.exp(1j * s[k][:, None] * r)))

    first = np.arange(s.size) == 0
    edges, owner, wave = _build_panels(np.where(first, 100.0, 0.0), np.where(first, 103.0, 300.0),
                                       s, t, rho, 0.5)
    assert np.sum(owner == 0) == 2 and np.sum(owner == 1) > 2 * _FILON_BLOCK // s.size
    assert np.count_nonzero(wave) > s.size
    stacked = np.zeros(s.size, dtype=complex)
    _filon_sums(amp, phase, dphase, edges, owner, wave, stacked)
    for k in range(s.size):
        alone = np.zeros(s.size, dtype=complex)
        mine = owner == k
        _filon_sums(amp, phase, dphase, edges[mine], owner[mine], wave[mine], alone)
        assert alone[k] == stacked[k], k


@pytest.mark.parametrize("width_scale", [0.5, 1.0])
@pytest.mark.parametrize("t", [9.0, 31.7])
def test_filon_engine_vs_adaptive_quadrature(t, width_scale):
    # the kernel's panels for |rho| = 2 and a shell frequency |H| = s; at
    # s = 8 the stretch is cut at r = 40/8, past which the panels take the
    # branches (1/2) e^{+-isr}/(1 + r^2) of the amplitude
    phase = lambda r: t * np.sqrt(r * r + 4.0)
    dphase = lambda r: t * r / np.sqrt(r * r + 4.0)
    for s in (3.0, 8.0):
        amp = lambda r: np.cos(s * r) / (1.0 + r * r)
        re = si.quad(lambda r: amp(r) * np.cos(phase(r)), 0, 12, limit=4000)[0]
        im = si.quad(lambda r: amp(r) * np.sin(phase(r)), 0, 12, limit=4000)[0]
        edges, owner, wave = _build_panels(0.0, 12.0, s, t, 2.0, width_scale)
        assert np.any(wave) == (s * 12.0 > _SPLIT_Z0)
        # the engine rounds each row's kappa = (phase'(mid) +- w) * half-width
        # to a multiple of 1/16 and folds the rest into the amplitude; some
        # row here must leave a residual near the largest possible, 1/32
        mid, hw, w = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0, wave[:-1]
        kappa = 16.0 * np.concatenate([(dphase(mid) + w) * hw, (dphase(mid) - w)[w > 0] * hw[w > 0]])
        assert np.max(np.abs(kappa - np.rint(kappa))) / 16.0 > 0.025
        out = np.zeros(1, dtype=complex)
        _filon_sums(lambda r, k, split: np.where(split[:, None], 0.5, np.cos(s * r)) / (1.0 + r * r),
                    lambda r, k: phase(r), lambda r, k: dphase(r), edges, owner, wave, out)
        assert out[0] == pytest.approx(re + 1j * im, abs=1e-11), s


def test_filon_moment_rows_one_per_distinct_frequency(a1, monkeypatch):
    # the 16-order moment rows come from spherical_jn once per distinct
    # quantised kappa of a Filon block, not once per row.  The rows of each
    # block are its unsplit panels, then the e^{+isr} and e^{-isr} rows of
    # its Hankel-branch panels, each with kappa' = rint(16 kappa)/16 for
    # kappa = (phase'(mid) +- s) * half-width
    real = wave_kernel._kernel_tables()
    filon = wave_kernel._filon_sums
    rows, calls = [], []

    def counting_jn(n, x):
        if np.size(n) == 16:                  # shell_integral passes one order
            rows.append(np.ravel(x))
        return real.spherical_jn(n, x)

    def recording_filon(amp_fn, phase_fn, dphase_fn, edges, owner, wave, out):
        calls.append((dphase_fn, edges, owner, wave))
        return filon(amp_fn, phase_fn, dphase_fn, edges, owner, wave, out)

    monkeypatch.setattr(wave_kernel, "_kernel_tables",
                        lambda: real._replace(spherical_jn=counting_jn))
    monkeypatch.setattr(wave_kernel, "_filon_sums", recording_filon)
    _radial_profile(a1, KernelParams(t=40.0, sigma=SIGMA), "high",
                    np.linspace(0.01, 20.0, 40))
    assert rows
    for kappa in rows:
        assert np.all(np.diff(kappa) > 0)
        assert np.all(16.0 * kappa == np.rint(16.0 * kappa))
    unsplit, branch = np.zeros(2, dtype=int), np.zeros(2, dtype=int)   # (rows, panels)
    blocks = iter(rows)
    for dphase_fn, edges, owner, wave in calls:
        inner = np.flatnonzero(owner[1:] == owner[:-1])
        for start in range(0, inner.size, _FILON_BLOCK):
            i = inner[start:start + _FILON_BLOCK]
            mid, hw, w = (edges[i + 1] + edges[i]) / 2.0, (edges[i + 1] - edges[i]) / 2.0, wave[i]
            d = dphase_fn(mid, owner[i])
            m = w > 0
            one = np.rint(16.0 * d[~m] * hw[~m]) / 16.0
            two = np.rint(16.0 * np.concatenate([d[m] + w[m], d[m] - w[m]]) * np.tile(hw[m], 2)) / 16.0
            assert np.array_equal(next(blocks), np.unique(np.concatenate([one, two])))
            unsplit += np.unique(one).size, one.size
            branch += np.unique(two).size, np.count_nonzero(m)
    assert next(blocks, None) is None
    assert unsplit[0] < unsplit[1] / 10
    assert branch[1] > 0


@pytest.mark.parametrize("block", [1, 7])
def test_profiles_do_not_depend_on_the_filon_block(a1, a2, monkeypatch, block):
    # each block quantises and tabulates its own kappa; a panel's row and
    # its sum must not depend on which other panels share its block
    # |H| = 12 is cut at 40/12 on A1 and in the extension rounds on A2
    s = np.array([0.0, 0.05, 0.5, 1.7, 3.0, 12.0])
    cases = [(rs, KernelParams(t=t, sigma=SIGMA), piece)
             for rs, t in ((a1, 7.5), (a2, 0.7)) for piece in ("low", "high")]
    default = [_radial_profile(rs, p, piece, s) for rs, p, piece in cases]
    monkeypatch.setattr(wave_kernel, "_FILON_BLOCK", block)
    for (rs, p, piece), want in zip(cases, default):
        assert np.all(_radial_profile(rs, p, piece, s) == want), (rs.tag, piece)


def _expint_orders(p0, xi, R):
    # M_k = R^{1-p} E_p(-i xi R), p = p0 + k, to 30 digits
    with mpmath.workdps(30):
        return np.array([[complex(mpmath.power(R, 1 - (mpmath.mpc(p0) + k))
                                  * mpmath.expint(mpmath.mpc(p0) + k, mpmath.mpc(0, -x * R)))
                          for k in range(_SERIES_LEN)] for x in xi.tolist()])


@pytest.mark.parametrize("p0", [-1.0, 0.0, 1.5, 2.0, 1 + 0.49j, 0.9965j, 18 + 0.49j])
def test_power_tail_orders_match_mpmath(p0):
    # M_k = int_R^inf r^{-p} e^{i xi r} dr = R^{1-p} E_p(-i xi R), p = p0 + k,
    # across the segment/ray switch at |xi| R = 10 and both signs of xi, all
    # cases as one stack
    R = 2.5
    xi = np.array([sign * xi_R / R for xi_R in (1e-12, 1e-6, 1e-3, 0.5, 9.99, 10.0, 30.0, 1e3, 1e4)
                   for sign in (1.0, -1.0)])
    got = _power_tail_orders(complex(p0), xi, R)
    assert got.shape == (xi.size, _SERIES_LEN)
    for row, exact, x in zip(got, _expint_orders(p0, xi, R), xi.tolist()):
        for k in range(_SERIES_LEN):
            assert row[k] == pytest.approx(exact[k], rel=1e-12), (x * R, k)


@pytest.mark.parametrize("p0, xi_R", [(-5 + 1j, (1e-12, 1e-6, 1e-3, 0.5, 3.0, 9.99)),
                                      (-2.5 + 0.5j, (1e-12, 1e-6, 1e-3, 0.5, 3.0, 9.99)),
                                      (-2.51 + 0.05j, (1e-12, 1e-6, 1e-3, 0.5, 3.0, 9.99)),
                                      (8 + 4j, (10.0, 10.8, 15.0, 60.0))])
def test_power_tail_orders_match_mpmath_off_the_seed_order(p0, xi_R):
    # every order that the recurrence carries away from the one integrated
    # order: below Re p = 1 at |xi| R << 1, where a real-axis segment and the
    # ray cancel for the orders with Re p < 0 and the recurrence cancels
    # down from an integrated order with Re p > 1 (p0 = -2.51 + 0.05i has
    # an order with |p| just under 1/2), and at |xi| R near |p|, where
    # carrying all orders down from the last one loses digits
    R = 2.5
    xi = np.array([sign * x / R for x in xi_R for sign in (1.0, -1.0)])
    got = _power_tail_orders(complex(p0), xi, R)
    for row, exact, x in zip(got, _expint_orders(p0, xi, R), xi.tolist()):
        for k in range(_SERIES_LEN):
            assert row[k] == pytest.approx(exact[k], rel=1e-12), (x * R, k)


@pytest.mark.parametrize("block", [2, wave_kernel._TAIL_BLOCK])
def test_power_tail_orders_do_not_depend_on_the_stack(monkeypatch, block):
    # rows whose one integrated order is the first, a middle or the last
    # one, next to p0 = 0 and -1 at |xi| R = 1e-12 (where the upward steps
    # must not start at p = 0), both signs of xi; each row has the bits of
    # the call with that row alone
    monkeypatch.setattr(wave_kernel, "_TAIL_BLOCK", block)
    p0 = np.array([0.0, -1.0, 0.0, -1.0, 2 + 1j, -5 + 1j, 8 + 4j, 2 + 1j, 1.5, 1.5])
    xi_R = np.array([1e-12, 1e-12, -1e-12, -1e-12, 0.3, 1e-6, -10.8, 6.0, 1e3, -40.0])
    R = np.array([2.0, 3.0, 2.0, 3.0, 12.0, 2.5, 2.5, 40.0, 7.0, 300.0])
    seed = np.clip(np.rint(np.abs(xi_R) - p0.real), 0, _SERIES_LEN - 1)
    assert {0, _SERIES_LEN - 1} < set(seed.tolist())
    stack = _power_tail_orders(p0, xi_R / R, R)
    assert np.all(np.isfinite(stack))
    for j in range(p0.size):
        alone = _power_tail_orders(p0[j], xi_R[j] / R[j], R[j])
        assert np.all(stack[j] == alone[0]), j


@pytest.mark.parametrize("block", [2, 64])
def test_tail_values_do_not_depend_on_the_stack(a1, a2, monkeypatch, block):
    # one stack covers every branch of the tail engine: s = 0, the ray alone,
    # a real-axis segment before the ray, xi = t - s of both signs, and
    # xi = 0 below the 1e-13 switch (s = t); each row has the bits of the
    # call with its key alone, also when the stack's rows are split into
    # steepest-descent blocks of 2
    monkeypatch.setattr(wave_kernel, "_TAIL_BLOCK", block)
    t = 0.7
    s = np.array([0.0, 5.0, 0.05, 1.3, t, 0.0, 0.4])
    R = np.array([30.0, 100.0, 12.0, 12.0, 40.0, 2.0, 300.0])
    for rs in (a1, a2):
        p_max = abs(SIGMA - (rs.dim_X - 1) / 2.0 + _SERIES_LEN - 1)
        xiR = np.abs(np.concatenate([t + s[s > 0], t - s[s > 0]]) * np.tile(R[s > 0], 2))
        reach = max(10.0, 0.6 * p_max)        # the ray alone from here on
        assert np.any(xiR == 0.0) and np.any((0.0 < xiR) & (xiR < reach))
        assert np.any(np.all(xiR.reshape(2, -1) >= reach, axis=0))
        assert np.any(t - s < 0) and np.any(t * R[s == 0] < reach)
        series = _tail_series(rs, SIGMA, rs.rho_norm, t)
        for order in (np.arange(s.size), np.arange(s.size)[::-1], np.array([3, 1, 3, 6, 0, 2, 4, 5])):
            tail, err = _tail_values(rs, SIGMA, t, s[order], R[order], series)
            for i, k in enumerate(order):
                one, one_err = _tail_values(rs, SIGMA, t, s[k:k + 1], R[k:k + 1], series)
                assert tail[i] == one[0] and err[i] == one_err[0], (rs.tag, k)


def test_one_tail_call_per_extension_round(a1, monkeypatch):
    # the analytic tail of every pending key of a round is one batched call:
    # the calls follow the panel extensions, not the keys
    calls = {"tail": [], "panels": 0}
    tail, build = wave_kernel._tail_values, wave_kernel._build_panels

    def counting_tail(rs, sigma, t, s, R, series):
        calls["tail"].append(s.size)
        return tail(rs, sigma, t, s, R, series)

    def counting_panels(*args):
        calls["panels"] += 1
        return build(*args)

    monkeypatch.setattr(wave_kernel, "_tail_values", counting_tail)
    monkeypatch.setattr(wave_kernel, "_build_panels", counting_panels)
    _radial_profile(a1, KernelParams(t=0.7, sigma=SIGMA), "high",
                    np.linspace(0.01, 20.0, 40))
    # the first round covers all 40 keys; each later round follows one
    # extension of the panels
    assert calls["tail"][0] == 40 and len(calls["tail"]) >= 2
    assert len(calls["tail"]) == calls["panels"]
    assert sum(calls["tail"]) > 40 > len(calls["tail"])


# the inputs of the benchmark's seed-0 small-time sweeps (criterion 05)
_SEED0_IM_SIGMA = 0.4860610456443572
_SEED0_A1_TIMES = [0.05001901102732466, 0.06457971732515717, 0.0831358922846257,
                   0.10735946321839988, 0.13663990215545133, 0.1770356236743364,
                   0.22467880955277827, 0.29320471063218995, 0.37250324854221595,
                   0.48425089504912083, 0.6193001489991282, 0.7976611451228055]


@pytest.mark.parametrize("tag,sigma,times,per_axis", [
    ("A1", 2.0 + _SEED0_IM_SIGMA * 1j, _SEED0_A1_TIMES, None),
    ("A2", 4.5 + _SEED0_IM_SIGMA * 1j, np.geomspace(0.05, 0.8, 4).tolist(), 25)],
    ids=["A1", "A2"])
def test_first_tail_start_meets_the_tolerance(tag, sigma, times, per_axis, monkeypatch):
    # the first tail starts where the binomial series of
    # (1 + rt^2/r^2)^(-sigma/2) has converged, so few keys of a sweep pay a
    # second round of panels and tail
    rounds = []
    tail = wave_kernel._tail_values

    def counting_tail(rs, sigma, t, s, R, series):
        rounds.append(s.size)
        return tail(rs, sigma, t, s, R, series)

    monkeypatch.setattr(wave_kernel, "_tail_values", counting_tail)
    decay_sweep(root_system_from_tag(tag), "small_time", sigma=sigma, times=times,
                per_axis=per_axis)
    assert len(rounds) == 1 or rounds[1] <= 0.05 * rounds[0], rounds


def test_radial_integral_errors_name_the_inputs(a1, monkeypatch):
    H = np.array([0.8])
    names = ("high piece", "|H| = 0.8", "sigma = 2+1j", "R = ")
    # the analytic tail may not start beyond 5e6; it starts at t |rho|^2 = 6e6
    with pytest.raises(InconclusiveIntegralError, match="out of reach") as exc:
        kernel_piece(a1, KernelParams(t=3e6, sigma=SIGMA), H, "high_reg")
    assert all(n in str(exc.value) for n in names + ("t = 3e+06",))
    with pytest.raises(InconclusiveIntegralError, match="out of reach") as exc:
        kernel_piece(a1, KernelParams(t=-3e6, sigma=np.conj(SIGMA)), H, "high_reg")
    assert "conjugate of the problem at t = -3e+06, sigma = 2-1j" in str(exc.value)
    # no tail estimate is ever below a zero tolerance
    monkeypatch.setattr(wave_kernel, "TAIL_REL_TOL", 0.0)
    with pytest.raises(InconclusiveIntegralError, match="tail estimate") as exc:
        kernel_piece(a1, KernelParams(t=1.35, sigma=SIGMA), H, "high_reg")
    assert all(n in str(exc.value) for n in names + ("t = 1.35",))
    assert 0.0 < exc.value.tail_bound and 0.0 < exc.value.accumulated
    # on the light cone with p0 + k = 1 the tail integral has no value
    with pytest.raises(InconclusiveIntegralError, match="zero asymptotic frequency") as exc:
        kernel_piece(a1, KernelParams(t=1.5, sigma=1.0), [1.5], "high_reg")
    assert all(n in str(exc.value) for n in ("high piece", "t = 1.5", "|H| = 1.5",
                                             "sigma = 1+0j", "R = "))
    # a panel build that outruns its step budget names a key still live and
    # its stretch
    monkeypatch.setattr(wave_kernel, "_MAX_PANEL_STEPS", 50)     # 0.8 takes 102 steps
    with pytest.raises(InconclusiveIntegralError, match="panel count exploded") as exc:
        kernel_piece(a1, KernelParams(t=40.0, sigma=SIGMA), H, "high_reg")
    assert all(n in str(exc.value) for n in ("high piece", "t = 40", "|H| = 0.8",
                                             "sigma = 2+1j", "[1.41421, 80]"))


def test_runtime_import_does_not_load_mpmath():
    # mpmath is a test-only oracle; the library must not import it
    src = os.path.dirname(os.path.dirname(symwave.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c",
                    "import symwave, sys; assert 'mpmath' not in sys.modules"],
                   env=env, check=True, timeout=120)


def _fresh_python(script: str) -> str:
    """Run ``script`` in a new interpreter that imports symwave from this
    checkout; returns its standard output."""
    src = os.path.dirname(os.path.dirname(symwave.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


_NO_SCIPY_SPECIAL = """
import sys
from dataclasses import replace
import numpy as np

def check(step):
    assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules), step
    assert 'numpy.polynomial' not in sys.modules, step

import symwave
check("import symwave")
from symwave import (RadialFunction, RadialGrid, SpectralGrid, forward_transform,
                     gaussian_state, inverse_transform, phi_lambda_many,
                     root_system_from_tag, semilinear_solve)
a1, a2 = root_system_from_tag("A1"), root_system_from_tag("A2")
rgrid = RadialGrid(a2, 7.0, 71)
f = RadialFunction(rgrid, np.exp(-np.sum(rgrid.nodes ** 2, axis=1)))
inverse_transform(a2, forward_transform(a2, f, SpectralGrid(a2, 4.0, 41)), rgrid,
                  tail_tol=1.0)
check("rank-2 forward/inverse transform")
phi_lambda_many(a2, np.array([[0.9, 0.4], [0.0, 0.0], [1.0, 0.0]]), np.array([0.3, 0.2]))
phi_lambda_many(root_system_from_tag("C4"), np.ones(4), np.array([[0.3, 0.3, 0.2, 0.0],
                                                                 [1.0, -0.5, 0.4, 0.1]]))
check("phi_lambda_many")
semilinear_solve(a1, gaussian_state(a1, RadialGrid(a1, 12.0, 257), amplitude=1e-2),
                 gamma=3.0, T=0.2, steps=4)
check("semilinear_solve")
from symwave.cli import run
assert run(["admissible", "--d", "4", "--p", "inf", "--q", "2"]) == 0
check("symwave admissible")
"""


def test_spectral_workflows_do_not_load_scipy_special():
    # only the kernel path uses special functions and quadrature rules;
    # importing scipy.special costs about 0.3 s and 19 MB, scipy.linalg
    # about 0.23 s and numpy.polynomial 0.75 MB, which the spectral side
    # must not pay: no scipy module is loaded there, the rank-4 spherical
    # functions included
    assert _fresh_python(_NO_SCIPY_SPECIAL).strip() == "true"     # admissible's answer


def test_chi_pair_loads_the_kernel_tables():
    # the kernel path's first call builds every kernel-only table, so that
    # a caller can pay that cost before timing kernel work
    _fresh_python("import sys, numpy as np, symwave\n"
                  "assert 'scipy.special' not in sys.modules\n"
                  "symwave.chi_pair(np.zeros(1))\n"
                  "assert 'scipy.special' in sys.modules\n"
                  "assert 'numpy.polynomial' in sys.modules\n"
                  "assert symwave.wave_kernel._kernel_tables.cache_info().currsize == 1\n")


def test_first_kernel_call_in_a_fresh_process_matches_in_process(a1):
    # bessel_j, then kernel_piece, as the first library calls of a new
    # interpreter (so the first builds the kernel tables) give the same bits
    p = KernelParams(t=1.3, sigma=SIGMA)
    out = _fresh_python(
        "import numpy as np, symwave\n"
        "from symwave.wave_kernel import KernelParams\n"
        "print(symwave.bessel_j(1.5, 2.7).hex())\n"
        f"z = symwave.kernel_piece(symwave.root_system_from_tag('A1'), "
        f"KernelParams(t={p.t!r}, sigma={p.sigma!r}), np.array([0.8]), 'total')\n"
        "print(z.real.hex(), z.imag.hex())\n").split()
    z = kernel_piece(a1, p, np.array([0.8]), "total")
    assert float.fromhex(out[0]) == bessel_j(1.5, 2.7)
    assert complex(float.fromhex(out[1]), float.fromhex(out[2])) == z


def test_tail_seam_consistency(a1):
    # moving the analytic-tail start must not change low-level values:
    # model(R1) - model(R2) equals the panel integral of the integrand
    # over [R1, R2] up to the Bessel-remainder level
    t, s, rho_t = 1.3, 0.8, a1.rho_norm
    R1, R2 = 20.0, 55.0
    series = _tail_series(a1, SIGMA, rho_t, t)
    (tail1, tail2), _ = _tail_values(a1, SIGMA, t, np.full(2, s), np.array([R1, R2]), series)
    # the factor (r^2 + rt^2)^{-i Im(sigma)/2} goes into the phase, so that
    # the amplitude is real; past r s = 40 its Hankel branches take over
    amp = lambda r, k, split: ((r * r + rho_t ** 2) ** (-SIGMA.real / 2.0)
                               * np.where(split[:, None], _shell_branch(a1, r, s),
                                          shell_integral(a1, r, s)))
    phase = lambda r, k: t * np.sqrt(r * r + a1.rho_norm ** 2) - SIGMA.imag / 2.0 * np.log(r * r + rho_t ** 2)
    dphase = lambda r, k: t * r / np.sqrt(r * r + a1.rho_norm ** 2) - SIGMA.imag * r / (r * r + rho_t ** 2)
    edges, owner, wave = _build_panels(R1, R2, s, t, a1.rho_norm, 1.0)
    assert wave.any()
    out = np.zeros(1, dtype=complex)
    _filon_sums(amp, phase, dphase, edges, owner, wave, out)
    seg = out[0]
    assert tail1 - tail2 == pytest.approx(seg, rel=1e-8)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_conjugation_symmetry(a1):
    H = np.array([1.0])
    a = np.conj(kernel_piece(
        a1, KernelParams(t=-2.0, sigma=np.conj(SIGMA)), H, "high_reg"))
    b = kernel_piece(a1, KernelParams(t=2.0, sigma=SIGMA), H, "high_reg")
    assert a == pytest.approx(b, rel=1e-12)
    a = np.conj(kernel_piece(a1, KernelParams(t=-2.0, sigma=np.conj(SIGMA)), H, "low"))
    b = kernel_piece(a1, KernelParams(t=2.0, sigma=SIGMA), H, "low")
    assert a == pytest.approx(b, rel=1e-12)


def test_oracle_agreement_spot(a1):
    H = np.array([1.0])
    a = kernel_piece(a1, KernelParams(t=2.0, sigma=SIGMA), H, "high_reg")
    b = oracle_high_regularized(a1, 2.0, SIGMA, H)
    assert abs(a - b) / abs(b) < 1e-6


def _split_total(rs, p, H):
    """The total as the paper splits it: low plus the unregularized high
    piece Gamma((d+1)/2 - sigma) e^{-sigma^2} times high_reg."""
    from scipy.special import gamma as cgamma
    sigma = complex(p.sigma)
    unreg = cgamma((rs.dim_X + 1) / 2.0 - sigma) * np.exp(-sigma ** 2)
    return kernel_piece(rs, p, H, "low") + unreg * kernel_piece(rs, p, H, "high_reg")


def test_total_additivity(a1):
    # the total is one cutoff-free integral; the split sum converges more
    # slowly in the panels (1.2e-12 away at 128 panels), so both sides are
    # taken at 512
    p = KernelParams(t=1.5, sigma=SIGMA, panels=512)
    H = np.array([0.7])
    assert kernel_piece(a1, p, H, "total") == pytest.approx(_split_total(a1, p, H), rel=1e-12)


def test_cutoff_independence(a1):
    # the split into low and high pieces does not depend on the cutoff: under
    # either step their sum is the cutoff-free total.  At 256 panels some
    # node of the alternative step lies within 1e-4 of the end of its ramp
    for panels in (128, 256):
        p = KernelParams(t=1.0, sigma=SIGMA, panels=panels)
        for H in (np.zeros(1), np.array([0.8])):
            total = kernel_piece(a1, p, H, "total")
            for cutoff in ("bump", "alt"):
                split = _split_total(a1, replace(p, cutoff=cutoff), H)
                assert abs(split - total) / abs(total) < 1e-6, (panels, cutoff)


def test_total_panel_doubling(a1, a2):
    # the one cutoff-free pass is converged at 128 panels: 512 moves it by
    # less than 1e-9 relative, out to |H| = 1.4 t (and to 9 at t = 2 on A1)
    cases = [(a1, 2.0 + 1.0j, 2.0, np.linspace(0.0, 2.8, 7)),
             (a1, 2.0 + 1.0j, 7.5, np.linspace(0.0, 10.5, 7)),
             (a1, 2.0 + 1.0j, 2.0, np.array([9.0])),
             (a2, 4.5 + 1.0j, 2.0, np.linspace(0.0, 2.8, 7))]
    for rs, sigma, t, radii in cases:
        H = radii[:, None] * (rs.rho_c / np.linalg.norm(rs.rho_c))
        p = KernelParams(t=t, sigma=sigma)
        v128 = kernel_piece(rs, p, H, "total")
        v512 = kernel_piece(rs, replace(p, panels=512), H, "total")
        assert np.all(np.abs(v128 - v512) <= 1e-9 * np.abs(v512)), (rs.tag, t)


def test_total_reads_no_cutoff(a1, a2, monkeypatch):
    def no_cutoff(*args):
        raise AssertionError("chi_pair was called")

    monkeypatch.setattr(wave_kernel, "chi_pair", no_cutoff)
    for rs in (a1, a2):
        H = np.array([0.0, 0.8, 4.0, 12.0])[:, None] * np.ones(rs.rank) / math.sqrt(rs.rank)
        for t in (0.7, -7.5):
            assert np.all(np.isfinite(kernel_piece(rs, KernelParams(t=t, sigma=SIGMA), H, "total")))
    with pytest.raises(AssertionError, match="chi_pair"):
        kernel_piece(a1, KernelParams(t=0.7, sigma=SIGMA), np.zeros(1), "high_reg")


def test_panel_doubling_stability(a1):
    p = KernelParams(t=2.0, sigma=SIGMA)
    for H in (np.zeros(1), np.array([1.0])):
        v1 = kernel_piece(a1, p, H, "high_reg")
        v2 = kernel_piece(a1, replace(p, panels=2 * p.panels), H, "high_reg")
        assert abs(v1 - v2) / abs(v2) < 1e-7


def test_low_piece_bounded_by_phi0(a1):
    # |omega^{sigma,0}| <= C phi0 uniformly over a wide time sweep
    ratios = []
    for t in np.geomspace(0.1, 50.0, 12):
        p = KernelParams(t=float(t), sigma=SIGMA)
        for s in (0.0, 0.9, 2.4):
            H = np.array([s])
            ratios.append(abs(kernel_piece(a1, p, H, "low")) / phi0(a1, H))
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
    from symwave.spherical import SpectralGrid, phi_lambda_many
    for rs, m in ((a1, 351), (a2, 121)):
        W = weyl_group(rs)
        t, sig = 0.7, 1.3 + 0.4j
        rho_t = rs.rho_norm * 1.1
        H = rs.rho_c * 0.23
        radial = kernel_piece(rs, KernelParams(t=t, sigma=sig, rho_tilde=rho_t), H, "low")
        sg = SpectralGrid(rs, 2 * rs.rho_norm * 1.02, m)
        lam = sg.nodes
        lam_n = np.linalg.norm(lam, axis=1)
        mult = smooth_step(lam_n / rs.rho_norm - 1.0) \
            * (lam_n ** 2 + rho_t ** 2) ** (-sig / 2.0) \
            * np.exp(1j * t * np.sqrt(lam_n ** 2 + rs.rho_norm ** 2))
        phiv = phi_lambda_many(rs, lam, H)
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
    # block), |H| = 4 (a tail extension on A1 and A2) and |H| = 12 (Hankel-
    # branch panels past r = 40/12 in its extension rounds)
    u = rs.rho_c / np.linalg.norm(rs.rho_c)
    wall = np.linalg.solve(rs.simple_c, np.eye(rs.rank)[-1])
    wall /= np.linalg.norm(wall)
    H = np.array([1.1 * u, np.zeros(rs.rank), 1.1 * wall, abs(t) * u, 1.1 * u,
                  5e-5 * u, 2e-4 * u, 4.0 * u, 12.0 * u, -1.1 * u])
    for piece in ("low", "high_reg", "total"):
        stacked = kernel_piece(rs, p, H, piece)
        single = [kernel_piece(rs, p, h, piece) for h in H]
        assert stacked.shape == (len(H),)
        assert all(type(v) is complex for v in single)
        assert np.all(stacked == np.array(single)), piece


def test_stacked_times_equal_per_time_calls(a1, a2, monkeypatch):
    # rows at several times are the rows of the calls at one time each, bit
    # for bit, in any order: |H| = 1.1 at three times, the light-cone nodes
    # |H| = t, both signs of t = 0.7, and |H| = 12 (Hankel-branch panels).
    # The rows of each sign of t are one batched pass
    passes = []
    real_pass = wave_kernel._profile_pass

    def counting_pass(*args):
        passes.append(args[3])
        return real_pass(*args)

    radii = {0.7: [0.0, 1.1, 0.7, 4.0], -0.7: [1.1, 0.7], 2.5: [1.1, 2.5, 12.0], -1.3: [1.3, 0.0]}
    times = np.concatenate([[t] * len(r) for t, r in radii.items()])
    order = np.random.default_rng(5).permutation(times.size)
    times = times[order]
    p = KernelParams(t=1.0, sigma=SIGMA)
    for rs in (a1, a2):
        u = rs.rho_c / np.linalg.norm(rs.rho_c)
        H = np.concatenate([np.outer(r, u) for r in radii.values()])[order]
        for piece in ("low", "high_reg", "total"):
            passes.clear()
            monkeypatch.setattr(wave_kernel, "_profile_pass", counting_pass)
            stacked = kernel_piece(rs, p, H, piece, t=times)
            monkeypatch.setattr(wave_kernel, "_profile_pass", real_pass)
            assert [sorted(set(x.tolist())) for x in passes] == [[0.7, 2.5], [0.7, 1.3]]
            for t in radii:
                mine = times == t
                single = kernel_piece(rs, replace(p, t=t), H[mine], piece)
                assert np.all(stacked[mine] == single), (rs.tag, piece, t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
def test_kernel_refuses_a_non_finite_or_zero_time(a1, monkeypatch, bad):
    # per-row times are checked as KernelParams.t is, before any panel is
    # built, and the error names the row and its value
    def no_panels(*args):
        raise AssertionError("a panel was built")

    monkeypatch.setattr(wave_kernel, "_build_panels", no_panels)
    p = KernelParams(t=1.0, sigma=SIGMA)
    why = "must be nonzero" if bad == 0.0 else "is not finite"
    H = np.array([[0.5], [1.0], [2.0]])
    for piece in ("low", "high_reg", "total"):
        with pytest.raises(ConfigError, match=re.escape(f"t[1] = {bad!r} {why}")):
            kernel_piece(a1, p, H, piece, t=[0.5, bad, 1.0])
    with pytest.raises(ConfigError, match=re.escape(f"t = {bad!r} {why}")):
        kernel_piece(a1, p, [0.5], "total", t=bad)
    with pytest.raises(ConfigError, match=re.escape("t has 2 entries for 3 rows of H")):
        kernel_piece(a1, p, H, "total", t=[0.5, 1.0])


def test_batched_errors_name_the_key_at_fault(a1):
    # inside a stack of several times, a failing key names its own t, |H|
    # and sigma, and the error carries its first row as slice_index
    p = KernelParams(t=1.0, sigma=SIGMA)
    H = np.array([[0.8], [0.3], [0.8], [0.8]])
    with pytest.raises(InconclusiveIntegralError, match="out of reach") as exc:
        kernel_piece(a1, p, H, "high_reg", t=[1.0, 2.0, 3e6, 3e6])
    assert all(n in str(exc.value) for n in ("high piece", "t = 3e+06", "|H| = 0.8",
                                             "sigma = 2+1j", "R = "))
    assert exc.value.slice_index == 2
    with pytest.raises(InconclusiveIntegralError, match="out of reach") as exc:
        kernel_piece(a1, p, H, "high_reg", t=[-1.0, 2.0, -3e6, 1.0])
    assert "(high piece at t = 3e+06, |H| = 0.8, sigma = 2-1j)" in str(exc.value)
    assert "conjugate of the problem at t = -3e+06, sigma = 2+1j" in str(exc.value)
    assert exc.value.slice_index == 2
    # on the light cone with p0 + k = 1 the tail integral has no value
    with pytest.raises(InconclusiveIntegralError, match="zero asymptotic frequency") as exc:
        kernel_piece(a1, KernelParams(t=1.0, sigma=1.0), [[1.5], [0.5], [1.5]], "high_reg",
                     t=[2.0, 1.5, 1.5])
    assert all(n in str(exc.value) for n in ("t = 1.5", "|H| = 1.5", "sigma = 1+0j"))
    assert exc.value.slice_index == 2


@pytest.mark.parametrize("t", [0.7, -0.7])
def test_kernel_is_weyl_invariant(a1, a2, b2, t):
    # the kernel is phi0(H) psi(|H|): every Weyl image of a point gives its
    # value, outside the chamber as inside; on A1, -H is exact.  Elsewhere
    # the images' phi0 differ in the last bits, and the total is held to
    # the size of its two summands, which cancel: at the last point the
    # total is 34 to 137 times smaller than they are
    from symwave.root_system import weyl_group
    p = KernelParams(t=t, sigma=SIGMA)
    for rs in (a1, a2, b2):
        u = rs.rho_c / np.linalg.norm(rs.rho_c)
        wall = np.linalg.solve(rs.simple_c, np.eye(rs.rank)[-1])
        wall /= np.linalg.norm(wall)
        H = np.array([0.4 * u, 1.3 * wall, 2.1 * u + 0.3 * wall])
        W = weyl_group(rs).matrices
        images = np.einsum("wij,nj->wni", W, H).reshape(-1, rs.rank)
        ident = np.flatnonzero([np.array_equal(m, np.eye(rs.rank)) for m in W])[0]
        low = kernel_piece(rs, p, images, "low").reshape(len(W), len(H))
        for piece in ("low", "high_reg", "total"):
            vals = kernel_piece(rs, p, images, piece).reshape(len(W), len(H))
            scale = np.abs(low) + np.abs(vals - low) if piece == "total" else np.abs(vals)
            if rs.rank == 1:
                assert np.all(vals == vals[ident]), piece
            else:
                assert np.all(np.abs(vals - vals[ident]) <= 1e-14 * scale[ident]), (rs.tag, piece)


def test_kernel_piece_dispatch(a1):
    p = KernelParams(t=1.0, sigma=SIGMA)
    with pytest.raises(ConfigError):
        kernel_piece(a1, p, np.zeros(1), "nope")
