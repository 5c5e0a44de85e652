"""Dense reference integrator for the high kernel piece, kept on the test
side so that it stays independent of the production quadrature it checks."""

import numpy as np
from scipy.special import gamma

from symwave.geometry import phi0
from symwave.root_system import RootSystem
from symwave.wave_kernel import chi_pair, shell_integral, smooth_step


def _oracle_integral(rs: RootSystem, sigma: complex, rho_tilde: float,
                     t: float, s: float, piece: str,
                     r_big: float = 4e4) -> complex:
    """Brute-force dense reference integrator: plain Gauss panels sized to a
    quarter-period of the fastest oscillation, with a smooth roll-off over
    the last octave instead of a hard truncation.  Shares nothing with the
    production tail machinery."""
    assert t > 0
    rho_norm = rs.rho_norm
    x, w = np.polynomial.legendre.leggauss(20)

    def integrand(r):
        c0, cinf = chi_pair(r / rho_norm)
        chi = c0 if piece == "low" else cinf
        vals = (chi * (r * r + rho_tilde ** 2) ** (-sigma / 2.0)
                * shell_integral(rs, r, s)
                * np.exp(1j * t * np.sqrt(r * r + rho_norm ** 2)))
        if piece != "low":
            vals = vals * smooth_step(2.0 * r / r_big - 1.0)
        return vals

    b = 2.0 * rho_norm if piece == "low" else r_big
    rate = t + s + 0.1
    n_panels = int(np.ceil(b * rate / (np.pi / 4.0)))
    edges = np.linspace(0.0, b, n_panels + 1)
    mids = (edges[1:] + edges[:-1]) / 2.0
    hws = (edges[1:] - edges[:-1]) / 2.0
    total = 0.0 + 0.0j
    chunk = 200_000
    for i0 in range(0, mids.size, chunk):
        m = mids[i0:i0 + chunk, None]
        h = hws[i0:i0 + chunk, None]
        nodes = (m + h * x[None, :]).ravel()
        vals = integrand(nodes).reshape(-1, x.size)
        total += complex(np.sum(h[:, 0] * (vals @ w)))
    return total


def oracle_high_regularized(rs: RootSystem, t: float, sigma: complex,
                            H: np.ndarray) -> complex:
    """phi0(H) e^{sigma^2}/Gamma((d+1)/2 - sigma) times the dense integral,
    with rho_tilde = |rho| and t > 0."""
    H = np.asarray(H, dtype=float)
    pref = np.exp(sigma ** 2) / gamma((rs.dim_X + 1) / 2.0 - sigma)
    s = round(float(np.linalg.norm(H)), 12)
    return complex(phi0(rs, H) * pref
                   * _oracle_integral(rs, sigma, rs.rho_norm, t, s, "high"))
