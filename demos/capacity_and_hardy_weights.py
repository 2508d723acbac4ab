"""Capacities, weight norms, and the compactness diagnostic.

Computes the capacity of balls across radii and recovers the homogeneity
exponent dim - s p, estimates the capacitary norm of the borderline
power weight against a compactly supported one, and runs the joint
local/at-infinity concentration diagnostic that separates the two.

Run:  python3 demos/capacity_and_hardy_weights.py
"""

import os

import numpy as np

import fracvar as fv
from fracvar.io import emit_plot

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

s, p = 0.4, 2.0
fp = fv.FracParams(s, p)

# --- capacity of a ball, solved as a constrained convex problem ------------
grid = fv.build_grid(1, 1.0, 64)
kt = fv.build_kernel_table(grid, fp, 4.0)
target = fv.CellSet.ball(grid, (0.0,), 0.3)
res = fv.capacity(target, kt)
print(f"capacity of B(0, 0.3): {res.value:.6f} in {res.iterations} iterations "
      f"(projected-gradient norm {res.grad_norm:.1e})")
print(f"  minimizer stays in [0, 1]: min {res.minimizer.values.min():.3f}, "
      f"max {res.minimizer.values.max():.3f}")
emit_plot(res.minimizer, os.path.join(OUT, "capacity_minimizer.svg"))

# --- homogeneity: capacity of balls scales like r^(dim - sp) ---------------
fit = fv.capacity_ball_scaling([0.25, 0.5, 1.0, 2.0], fp, 1, cells_per_dim=32)
print(f"\nball capacities across radii: {[f'{v:.4f}' for v in fit.values]}")
print(f"fitted log-log slope {fit.slope:.4f} (dim - sp = {1 - s * p:.1f})")
emit_plot((np.log(fit.radii), np.log(fit.values)),
          os.path.join(OUT, "capacity_scaling.svg"))

# --- weight norms: singular versus compactly supported ---------------------
w_singular = fv.sample(grid, fv.PowerLaw(alpha=s * p))
gauss = fv.sample(grid, fv.GaussianBump(sigma=0.3))
cut = fv.sample(grid, fv.Indicator(fv.Ball((0.0,), 0.6)))
w_compact = fv.GridFunction(grid, gauss.values * cut.values)

est_s = fv.hardy_norm_estimate(w_singular, kt)
est_c = fv.hardy_norm_estimate(w_compact, kt)
print(f"\nnorm estimates (lower bounds from the candidate-family sweep):")
print(f"  |x|^(-sp) weight: {est_s.value:.4f}  (argmax set of "
      f"{est_s.argmax.size} cells)")
print(f"  compact weight:   {est_c.value:.4f}")

# --- concentration profiles and the verdict --------------------------------
radii = [0.5, 0.25, 0.125, 0.0625]
prof_s = fv.concentration_at(w_singular, (0.0,), radii, kt)
prof_c = fv.concentration_at(w_compact, (0.0,), radii, kt)
print("\nconcentration at the origin (shrinking balls):")
print("  singular:", [f"{v:.4f}" for v in prof_s.norm_estimates])
print("  compact: ", [f"{v:.4f}" for v in prof_c.norm_estimates])

for name, w in (("singular", w_singular), ("compact", w_compact)):
    verdict = fv.compactness_diagnostic(w, kt)
    print(f"  {name}: compact-indicating = {verdict.compact_indicating} "
          f"(c* = {verdict.c_star:.4f}, c_inf = {verdict.c_infinity:.4f}, "
          f"tolerance {verdict.tolerance:.4f})")
print(f"figures in {OUT}")
