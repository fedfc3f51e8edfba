"""Independent numpy re-derivations used to check mal's outputs.

Nothing here imports mal: the fixtures, derivatives, residuals and actions
are written out again from their definitions, with real FFTs where mal uses
complex ones, so a check does not trust the code it checks.
"""

from __future__ import annotations

import numpy as np


def derivatives(f, scheme):
    """(d/dx f, d/dy f, Laplacian f) on the periodic unit torus, last two axes."""
    n = f.shape[-1]
    if scheme == "central":
        fx = (np.roll(f, -1, axis=-2) - np.roll(f, 1, axis=-2)) * (n / 2.0)
        fy = (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) * (n / 2.0)
        lap = (np.roll(f, -1, axis=-2) + np.roll(f, 1, axis=-2) + np.roll(f, -1, axis=-1)
               + np.roll(f, 1, axis=-1) - 4.0 * f) * float(n * n)
        return fx, fy, lap
    kx = np.fft.fftfreq(n, d=1.0 / n)
    ky = np.fft.rfftfreq(n, d=1.0 / n)
    kx1, ky1 = kx.copy(), ky.copy()
    kx1[n // 2] = 0.0  # the unpaired Nyquist mode has no odd derivative
    ky1[-1] = 0.0
    spec = np.fft.rfft2(f, axes=(-2, -1))

    def back(mult):
        return np.fft.irfft2(mult * spec, s=(n, n), axes=(-2, -1))

    fx = back(2j * np.pi * kx1[:, None])
    fy = back(2j * np.pi * ky1[None, :])
    lap = back(-4.0 * np.pi**2 * (kx[:, None] ** 2 + ky[None, :] ** 2))
    return fx, fy, lap


def density(f, scheme):
    """Monge-Ampere density 1 + lap(f)/2 with the mean of lap(f) removed."""
    lap = derivatives(f, scheme)[2]
    return 1.0 + 0.5 * (lap - lap.mean(axis=(-2, -1), keepdims=True))


def band_limited(n, rng, amplitude, max_mode):
    """Random trigonometric field with sup norm amplitude, one draw per mode pair."""
    t = np.arange(n) / n
    x, y = np.meshgrid(t, t, indexing="ij")
    f = np.zeros((n, n))
    for kx in range(max_mode + 1):
        for ky in range(-max_mode, max_mode + 1):
            if kx == 0 and ky <= 0:
                continue
            phase = 2.0 * np.pi * (kx * x + ky * y)
            a, b = rng.standard_normal(2)
            f += a * np.cos(phase) + b * np.sin(phase)
    return f * (amplitude / np.abs(f).max())


def potential(n, scheme, rng, amplitude, max_mode, margin=0.5):
    """Band-limited field scaled so its density stays at or above margin."""
    f = band_limited(n, rng, amplitude, max_mode)
    lap_min = float(derivatives(f, scheme)[2].min())
    if lap_min < -2.0 * (1.0 - margin):
        f = f * (2.0 * (1.0 - margin) / -lap_min)
    return f


def epsilon_residual(fields, dt, eps, scheme):
    """Sup over interior knots of D_t^2 u - (|grad udot|^2/2 + eps) / (1 + lap u/2)."""
    udot = (fields[2:] - fields[:-2]) / (2.0 * dt)
    gx, gy, _ = derivatives(udot, scheme)
    rho = 1.0 + 0.5 * derivatives(fields[1:-1], scheme)[2]
    second = (fields[2:] - 2.0 * fields[1:-1] + fields[:-2]) / dt**2
    return float(np.abs(second - (0.5 * (gx * gx + gy * gy) + eps) / rho).max())


def hcma_sup(fields, dt, scheme):
    """Sup of udotdot rho_u - |grad udot|^2/2 over interior knots and cells."""
    udot = (fields[2:] - fields[:-2]) / (2.0 * dt)
    gx, gy, _ = derivatives(udot, scheme)
    second = (fields[2:] - 2.0 * fields[1:-1] + fields[:-2]) / dt**2
    return float(np.abs(second * density(fields[1:-1], scheme) - 0.5 * (gx * gx + gy * gy)).max())


def power_action(fields, times, p, scheme):
    """Midpoint-rule action of (integral |udot|^p d mu_u)^(1/p) along a solved path."""
    n = fields.shape[-1]
    total = 0.0
    for i in range(len(times) - 1):
        dt = times[i + 1] - times[i]
        w = density(0.5 * (fields[i] + fields[i + 1]), scheme) / n**2
        s = float(np.sum(np.abs((fields[i + 1] - fields[i]) / dt) ** p * w))
        total += dt * s ** (1.0 / p)
    return total
