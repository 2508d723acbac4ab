"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import os
import time

import numpy as np
import pytest

import fracvar as fv
import fracvar.checks as chk
from fracvar.eigen import default_start


def report(num, passed, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def spectral_setup():
    g = fv.build_grid(1, 1.0, 64)
    kt = fv.build_kernel_table(g, fv.FracParams(0.5, 2.0), 4.0)
    return g, kt


@pytest.fixture(scope="module")
def hardy_setup():
    g = fv.build_grid(1, 1.0, 64)
    kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
    return g, kt


def random_field(grid, rng, nonneg=False):
    vals = np.zeros(grid.n_cells)
    for _ in range(int(rng.integers(1, 4))):
        c = rng.uniform(-0.6, 0.6, size=grid.dim)
        w = rng.uniform(0.08, 0.35)
        d2 = ((grid.centers - c) ** 2).sum(axis=1)
        vals += rng.uniform(0.2, 1.0) * np.exp(-d2 / (2 * w * w))
    vals += 0.2 * rng.uniform(-1, 1, grid.n_cells)
    return np.abs(vals) if nonneg else vals


def test_criterion_1_p2_oracle_equivalence(spectral_setup):
    g, kt = spectral_setup
    w = fv.GridFunction(g, np.ones(g.n_cells))
    t0 = time.monotonic()
    opts = fv.EigenOptions(tol=1e-8, seed=42)
    seq = fv.eigen_sequence(w, kt, 4, opts)
    oracle = fv.linear_oracle(w, kt)
    elapsed = time.monotonic() - t0
    first_err = abs(seq[0].lam / oracle[0][0] - 1.0)
    level_err = max(abs(r.lam / o[0] - 1.0) for r, o in zip(seq, oracle))
    ok = first_err <= 1e-6 and level_err <= 1e-4 and elapsed < 60.0
    report(1, ok,
           f"lam1 rel err {first_err:.2e} (<=1e-6), levels rel err "
           f"{level_err:.2e} (<=1e-4), runtime {elapsed:.1f}s (<60s)")


def test_criterion_2_gateaux_finite_differences():
    g = fv.build_grid(1, 1.0, 32)
    kt = fv.build_kernel_table(g, fv.FracParams(0.3, 3.0), 4.0)
    p = kt.params.p
    rng = np.random.default_rng(2024)
    steps = np.array([1e-2, 1e-3, 1e-4])
    slopes = []
    for _ in range(20):
        u = fv.GridFunction(g, random_field(g, rng))
        v = fv.GridFunction(g, random_field(g, rng))
        ga = fv.gateaux(u, v, kt)
        errs = []
        for t in steps:
            ep = fv.seminorm_p(fv.GridFunction(g, u.values + t * v.values), kt)
            em = fv.seminorm_p(fv.GridFunction(g, u.values - t * v.values), kt)
            errs.append(abs((ep.value - em.value) / (2 * t * p) - ga))
        slopes.append(float(np.polyfit(np.log(steps), np.log(errs), 1)[0]))
    worst = max(abs(s - 2.0) for s in slopes)
    report(2, worst <= 0.1,
           f"20 pairs, slope range [{min(slopes):.3f}, {max(slopes):.3f}], "
           f"worst deviation {worst:.3f} (<=0.1)")


def test_criterion_3_capacity_scaling():
    fp1 = fv.FracParams(0.4, 2.0)
    fit1 = fv.capacity_ball_scaling([0.25, 0.5, 1.0, 2.0], fp1, 1, 32)
    fp2 = fv.FracParams(0.5, 2.0)
    fit2 = fv.capacity_ball_scaling([0.5, 1.0, 2.0], fp2, 2, 10)
    e1 = abs(fit1.slope - 0.2)
    e2 = abs(fit2.slope - 1.0)
    report(3, e1 <= 0.05 and e2 <= 0.05,
           f"dim1 slope {fit1.slope:.4f} (target 0.2), dim2 slope "
           f"{fit2.slope:.4f} (target 1.0), both within 0.05")


def test_criterion_4_exact_discrete_inequalities():
    g = fv.build_grid(1, 1.0, 32)
    kt = fv.build_kernel_table(g, fv.FracParams(0.4, 2.0), 4.0)
    m = g.cell_measure
    rng = np.random.default_rng(4)

    hl_worst = -np.inf
    for _ in range(1000):
        f = np.abs(random_field(g, rng))
        h = np.abs(random_field(g, rng))
        lhs = (f * h).sum() * m
        rhs = (np.sort(f)[::-1] * np.sort(h)[::-1]).sum() * m
        hl_worst = max(hl_worst, (lhs - rhs) / max(rhs, 1e-300))

    pic_worst = -np.inf
    eq_worst = 0.0
    for _ in range(1000):
        u = fv.GridFunction(g, random_field(g, rng, nonneg=True))
        v = fv.GridFunction(g, random_field(g, rng, nonneg=True) + 0.05)
        p = float(rng.uniform(1.2, 3.5))
        pic_worst = max(pic_worst, -fv.picone_gap(u, v, p).min_value)
        c = float(rng.uniform(0.2, 5.0))
        eq = fv.picone_gap(fv.GridFunction(g, c * v.values), v, p)
        eq_worst = max(eq_worst, abs(eq.min_value))

    hom_worst = 0.0
    for _ in range(1000):
        u = fv.GridFunction(g, random_field(g, rng))
        t = float(rng.uniform(0.1, 10.0)) * float(rng.choice([-1, 1]))
        base = fv.seminorm_p(u, kt).value
        scaled = fv.seminorm_p(fv.GridFunction(g, t * u.values), kt).value
        hom_worst = max(hom_worst, abs(scaled - abs(t) ** 2 * base) / base)

    w = fv.GridFunction(g, np.ones(g.n_cells))
    opts = fv.EigenOptions(tol=1e-8, seed=4)
    start = default_start(w, kt)
    lam0 = fv.first_eigenpair(w, kt, opts, start=start).lam
    q_worst = 0.0
    for _ in range(1000):
        t = float(rng.uniform(0.05, 20.0))
        lam = fv.first_eigenpair(w, kt, opts, start=t * start).lam
        q_worst = max(q_worst, abs(lam / lam0 - 1.0))

    ok = (hl_worst <= 1e-12 and pic_worst <= 1e-12 and eq_worst <= 1e-12
          and hom_worst <= 1e-12 and q_worst <= 1e-12)
    report(4, ok,
           f"1000 samples each: pairing {hl_worst:.1e}, comparison-term "
           f"{pic_worst:.1e}, equality case {eq_worst:.1e}, homogeneity "
           f"{hom_worst:.1e}, eigenvalue scale-invariance {q_worst:.1e} "
           f"(all <=1e-12)")


def test_criterion_5_qualitative_spectral_theorems(spectral_setup):
    g, kt = spectral_setup
    opts = fv.EigenOptions(tol=1e-8, seed=5)
    w1 = fv.sample(g, fv.GaussianBump(sigma=0.35))
    w2 = fv.sample(g, fv.Indicator(fv.Ball((0.45,), 0.25), amplitude=0.2))
    weights = {"signed": fv.GridFunction(g, w1.values - w2.values),
               "flat": fv.GridFunction(g, np.ones(g.n_cells))}
    lines = []
    ok = True
    for tag, w in weights.items():
        seq = fv.eigen_sequence(w, kt, 2, opts)
        strictly_positive = seq[0].u.values.min() > 0.0
        changes_sign = fv.sign_structure(seq[1].u) == "sign_changing"
        gap = seq[1].lam - seq[0].lam
        probe = fv.simplicity_probe(w, kt, restarts=10, opts=opts)
        ok_tag = (strictly_positive and changes_sign and gap > 1e-6
                  and probe.lambda_spread <= 1e-6
                  and probe.function_spread <= 1e-4)
        ok = ok and ok_tag
        lines.append(f"{tag}: positive={strictly_positive}, "
                     f"sign-change={changes_sign}, gap={gap:.3e}, "
                     f"spreads=({probe.lambda_spread:.1e}, "
                     f"{probe.function_spread:.1e})")
    report(5, ok, "; ".join(lines))


def test_criterion_6_hardy_inequality_consistency(hardy_setup):
    g, kt = hardy_setup
    sp = kt.params.sp
    w = fv.sample(g, fv.PowerLaw(alpha=sp))
    lam1 = fv.first_eigenpair(w, kt, fv.EigenOptions(tol=1e-8, seed=6)).lam
    rng = np.random.default_rng(6)
    worst = -np.inf
    for _ in range(500):
        u = fv.GridFunction(g, random_field(g, rng))
        mass = fv.weighted_mass(u, w, kt)
        worst = max(worst, mass * lam1 / fv.seminorm_p(u, kt).value)
    bound_ok = worst <= 1.0 + 1e-8

    est = fv.hardy_norm_estimate(w, kt)
    prof = fv.concentration_at(w, (0.0,), [0.5, 0.25, 0.125, 0.0625], kt)
    singular_ok = est.value > 0 and prof.extrapolated_limit > 0.1 * est.value

    gauss = fv.sample(g, fv.GaussianBump(sigma=0.3))
    cut = fv.sample(g, fv.Indicator(fv.Ball((0.0,), 0.6)))
    compact = fv.GridFunction(g, gauss.values * cut.values)
    verdict = fv.compactness_diagnostic(compact, kt)

    ok = bound_ok and singular_ok and verdict.compact_indicating
    report(6, ok,
           f"500 fields, worst mass*lam1/energy {worst:.10f} (<=1+1e-8); "
           f"norm estimate {est.value:.3f} > 0; concentration limit "
           f"{prof.extrapolated_limit:.3f} bounded away from 0; compact "
           f"weight verdict {verdict.compact_indicating}")


def test_criterion_7_rearrangement_exactness():
    g3 = fv.build_grid(1, 1.5, 3)
    f = fv.GridFunction(g3, np.array([3.0, 2.0, 1.0]))
    mx = fv.maximal_function(fv.decreasing_rearrangement(f))
    running_ok = np.array_equal(mx.levels, [3.0, 2.5, 2.0])

    g = fv.build_grid(1, 6.0, 12)
    rng = np.random.default_rng(7)
    equi_ok = True
    for _ in range(50):
        vals = rng.standard_normal(12)
        fngf = fv.GridFunction(g, vals)
        sf = fv.decreasing_rearrangement(fngf)
        sym = fv.schwarz_symmetrization(fngf)
        for s in np.abs(vals):
            d0 = fv.distribution_function(fngf, [s])[0]
            d1 = float(sf.widths()[sf.levels > s].sum())
            d2 = fv.distribution_function(sym, [s])[0]
            equi_ok = equi_ok and d0 == d1 == d2

    ind = np.zeros(12)
    ind[0] = 1.0
    find = fv.GridFunction(g, ind)
    li = abs(fv.lorentz_quasi_norm(find, 2.0, np.inf) - 1.0)
    p_, q_ = 2.0, 3.0
    lf = abs(fv.lorentz_quasi_norm(find, p_, q_) - (p_ / q_) ** (1 / q_))
    lorentz_ok = li <= 1e-12 and lf <= 1e-12

    sp = 0.8
    gp = fv.build_grid(1, 1.0, 256)
    wp = fv.sample(gp, fv.PowerLaw(alpha=sp, amplitude=2.0 ** -sp))
    sfp = fv.decreasing_rearrangement(wp)
    t = sfp.breakpoints[1:]
    inner = slice(len(t) // 10, (9 * len(t)) // 10)
    profile_err = float(np.max(np.abs(sfp.levels[inner] * t[inner] ** sp - 1.0)))
    profile_ok = profile_err < 0.05

    ok = running_ok and equi_ok and lorentz_ok and profile_ok
    report(7, ok,
           f"running average exact={running_ok}; equimeasurability "
           f"exact={equi_ok}; indicator closed forms off by ({li:.1e}, "
           f"{lf:.1e}); power profile err {profile_err:.3f} (<5%)")


def test_criterion_8_gradient_lemmas():
    fp = fv.FracParams(0.4, 2.0)
    g1 = fv.build_grid(1, 1.0, 64)
    kt1 = fv.build_kernel_table(g1, fp, 4.0)
    d2 = (g1.centers**2).sum(axis=1)
    vals = np.exp(-d2 / (2 * 0.25**2))
    base = fv.nonlocal_gradient(fv.GridFunction(g1, vals), kt1).values ** 2
    scale_worst = 0.0
    for r in (2.0, 4.0):
        g2 = fv.build_grid(1, r, 64)
        kt2 = fv.build_kernel_table(g2, fp, r * 4.0)
        dil = fv.nonlocal_gradient(fv.GridFunction(g2, vals), kt2).values ** 2
        rel = np.max(np.abs(dil - base * r ** -fp.sp) / base)
        scale_worst = max(scale_worst, float(rel))
    scaling_ok = scale_worst <= 0.01

    ge = fv.build_grid(1, 4.0, 128)
    kte = fv.build_kernel_table(ge, fp, 16.0)
    radii = ge.radii()
    bump_vals = np.where(radii < 1.0, np.cos(np.pi * np.minimum(radii, 1.0) / 2) ** 2,
                         0.0)
    dens = fv.nonlocal_gradient(fv.GridFunction(ge, bump_vals), kte).values ** 2
    envelope = np.minimum(1.0, radii ** -(1 + fp.sp))
    fitted = float((dens / envelope)[radii <= 2.0].max())
    decay_ok = bool(np.all(dens <= fitted * envelope * (1 + 1e-12)))

    report(8, scaling_ok and decay_ok,
           f"dilation identity worst rel err {scale_worst:.2e} (<=1%); decay "
           f"envelope holds across the extended grid with one constant "
           f"C={fitted:.3f}: {decay_ok}")


def test_criterion_9_verify_determinism():
    cfg1 = chk.VerifyConfig(seed=42, threads=1)
    cfgN = chk.VerifyConfig(seed=42, threads=max(2, os.cpu_count() or 2))
    rep1 = chk.run_suite(cfg1)
    repN = chk.run_suite(cfgN)
    identical = rep1.to_json_bytes() == repN.to_json_bytes()
    report(9, identical and rep1.all_passed,
           f"reports byte-identical across 1 and {cfgN.threads} threads: "
           f"{identical}; all checks pass: {rep1.all_passed}")
