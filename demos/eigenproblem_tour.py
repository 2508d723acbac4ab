"""The weighted eigenproblem end to end.

Solves for the ground state and deflated levels with a flat weight and
with a sign-changing one, cross-checks the p = 2 spectrum against the
dense generalized solver, and demonstrates the qualitative facts: strict
positivity of the ground state, sign change above it, agreement across
restarts, and the nonnegative pairwise comparison term.  A p = 3 block
shows the deflated levels away from the linear case, where no dense
oracle exists.

Run:  python3 demos/eigenproblem_tour.py
"""

import os

import numpy as np

import fracvar as fv
from fracvar.io import emit_plot

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

grid = fv.build_grid(1, 1.0, 64)
kt = fv.build_kernel_table(grid, fv.FracParams(0.5, 2.0), 4.0)
opts = fv.EigenOptions(tol=1e-8, seed=0)
# w = w1 - w2, negative where the indicator w2 exceeds the bump w1
signed = fv.sample(grid, fv.Difference(
    fv.GaussianBump(sigma=0.35),
    fv.Indicator(fv.Ball((0.45,), 0.25), amplitude=0.2)))

for tag, w in (
    ("flat weight", fv.GridFunction(grid, np.ones(grid.n_cells))),
    ("sign-changing weight", signed),
):
    print(f"--- {tag} ---")
    seq = fv.eigen_sequence(w, kt, 4, opts)
    oracle = fv.oracle_levels(w, kt, 4)
    for k, (res, lam) in enumerate(zip(seq, oracle), start=1):
        print(f"  level {k}: lambda {res.lam:12.6f}  dense oracle {lam:12.6f}  "
              f"rel err {abs(res.lam / lam - 1):.1e}  sign: "
              f"{fv.sign_structure(res.u)}")
    ground = seq[0]
    print(f"  ground state strictly positive: {ground.u.values.min() > 0} "
          f"(min {ground.u.values.min():.4f})")
    name = tag.split()[0]
    emit_plot(ground.u, os.path.join(OUT, f"ground_state_{name}.svg"))
    emit_plot(seq[1].u, os.path.join(OUT, f"second_state_{name}.svg"))

    probe = fv.simplicity_probe(w, kt, restarts=6, opts=opts)
    print(f"  6 restarts: lambda spread {probe.lambda_spread:.2e}, "
          f"eigenfunction spread {probe.function_spread:.2e}")
    print(f"  p-th power midpoint energy gap {probe.midpoint_energy_gap:+.2e} "
          "(never above the mean)")

# p = 3: each level descends on the subspace paired to zero with the earlier
# ones, pi_j(u) = sum w |u_j|^(p-2) u_j u m, which is linear in u for every p
print("\n--- sign-changing weight, s = 0.3, p = 3 ---")
kt3 = fv.build_kernel_table(grid, fv.FracParams(0.3, 3.0), 4.0)
seq3 = fv.eigen_sequence(signed, kt3, 3, opts)
for k, res in enumerate(seq3, start=1):
    print(f"  level {k}: lambda {res.lam:12.6f}  residual {res.residual:.1e}  "
          f"sign: {fv.sign_structure(res.u)}")
wm = signed.values * kt3.cell_measure
us = [res.u.values for res in seq3]
defect = max(abs(float((wm * np.abs(us[j]) * us[j] * us[k]).sum()))
             for k in range(len(us)) for j in range(k))
print(f"  largest pairing with an earlier level: {defect:.1e}")

# the comparison term behind sign-change and simplicity
v = fv.GridFunction(grid, np.abs(fv.sample(
    grid, fv.GaussianBump(sigma=0.4)).values) + 0.05)
u = fv.GridFunction(grid, 2.5 * v.values)
res = fv.picone_gap(u, v, p=2.0)
print(f"\npairwise comparison term on the ray u = 2.5 v: min {res.min_value:+.1e}")
rng = np.random.default_rng(3)
u2 = fv.GridFunction(grid, np.abs(rng.standard_normal(grid.n_cells)))
res2 = fv.picone_gap(u2, v, p=2.0)
print(f"off the ray: min {res2.min_value:+.3e} (still >= 0)")
print(f"figures in {OUT}")
