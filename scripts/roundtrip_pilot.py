#!/usr/bin/env python3
"""Pilot study behind the frozen round-trip recovery tolerances.

Generates synthetic creep data for a family of grid horizons, extracts the
intensity-scaled kernel samples, identifies against the unit-kernel model
reference, and prints the recovery error of both parameters. The 5%
acceptance tolerances (64-point grid on [0, 0.005], lambda=0.8, q=1.5,
initial guesses at 1) were frozen from this table.

The exponent error grows with the horizon because the per-knot integral
extends one segment polynomial over [0, t_j]; for the weakly singular
kernel that construction systematically underestimates the similarity
integral, so the method is a short-time identification scheme.

Run:
    python3 scripts/roundtrip_pilot.py
"""

import numpy as np

import viscoident as v
from viscoident.pipeline import extract_creep_kernel_samples


def recover(horizon, n=64, lam=0.8, q=1.5):
    kp = v.KernelParams(alpha=0.5, beta=0.0, lam=lam)
    pl = v.PowerLaw(H=1.0, q=q)
    hist = v.simulate_creep(kp, pl, sigma=1.0, grid=np.linspace(0.0, horizon, n))
    samples = extract_creep_kernel_samples(hist, pl)
    model = v.KernelSamples(samples.times, v.creep_kernel(kp, samples.times).value)
    res = v.identify(
        samples, v.fit_kernel_spline(model), None,
        v.WeightConfig(lambda0=1.0, q0=1.0), sigma=1.0, pl0=pl,
        strain_levels=hist.values[1:], at_knots=True, model_segments=True,
    )
    return res


def main():
    print("truth: lambda=0.8, q=1.5; guesses lambda0=q0=1; 64-point grids")
    print(f"{'horizon':>10} {'lambda_hat':>12} {'err%':>7} "
          f"{'q_hat':>10} {'err%':>7} {'failed pairs':>13}")
    for horizon in (0.002, 0.005, 0.01, 0.02, 0.05):
        res = recover(horizon)
        lam_err = abs(res.lambda_hat - 0.8) / 0.8 * 100
        q_err = abs(res.q_hat - 1.5) / 1.5 * 100
        print(f"{horizon:>10g} {res.lambda_hat:12.6f} {lam_err:7.2f} "
              f"{res.q_hat:10.6f} {q_err:7.2f} "
              f"{len(res.diagnostics['q_failures']):>13}")


if __name__ == "__main__":
    main()
