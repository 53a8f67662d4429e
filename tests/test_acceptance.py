"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest -v`` (captured verdict lines are echoed in the summary) or
``pytest -s`` to see them inline.
"""

import time

import numpy as np

from tlschwarz import (
    ProblemSpec,
    build_harmonic,
    color_subdomains,
    derive_bound_inputs,
    estimate_condition,
    extend_overlap,
    extract_local_blocks,
    generate,
    gmres,
    pcg,
    select_harmonic_modes,
    select_pou_modes,
    setup,
    symmetrized_graph,
    theoretical_bound,
)
from tlschwarz.krylov import DENSE_CUTOFF

from conftest import dense_oracle, interior_mask, random_partition, random_spd
from test_subdomain import spsd_splitting


def verdict(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def subdomain_suite(n, n_sub, delta, seed):
    mat = random_spd(n, seed=seed)
    part = random_partition(n, n_sub, seed=seed + 1000)
    maps = extend_overlap(symmetrized_graph(mat), part, delta)
    return mat, maps


def test_criterion_1_projection_and_splitting():
    """Harmonic extension is an A-orthogonal projection; the splitting is PSD both ways."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_proj = worst_orth = worst_psd = 0.0
    for trial in range(20):
        n = int(rng.integers(40, 201))
        delta = int(rng.integers(1, 4))
        n_sub = int(rng.integers(2, 6))
        mat, maps = subdomain_suite(n, n_sub, delta, seed=trial)
        for smap in maps:
            blocks = extract_local_blocks(mat, smap, mat.symmetric)
            ext = build_harmonic(blocks)
            m, ni, a = blocks.n_local, blocks.n_inner, blocks.a.toarray()
            pi = np.zeros((m, m))
            pi[:, ni:] = ext
            scale = max(1.0, np.abs(pi).max())
            worst_proj = max(worst_proj, np.abs(pi @ pi - pi).max() / scale)
            orth = (np.eye(m) - pi).T @ a @ pi
            worst_orth = max(worst_orth, np.abs(orth).max() / np.abs(a).max())
            tilde = spsd_splitting(blocks, ext)
            amax = np.abs(a).max()
            low = min(np.linalg.eigvalsh(tilde).min(), np.linalg.eigvalsh(a - tilde).min())
            worst_psd = max(worst_psd, max(0.0, -low) / amax)
    elapsed = time.perf_counter() - t0
    ok = worst_proj < 1e-8 and worst_orth < 1e-8 and worst_psd < 1e-10 and elapsed < 60
    verdict(
        "criterion-1 projection/splitting",
        ok,
        f"proj_resid={worst_proj:.1e} orth_resid={worst_orth:.1e} "
        f"psd_defect={worst_psd:.1e} time={elapsed:.1f}s (<60s)",
    )


def test_criterion_2_pencil_multiplicities():
    """Partition-of-unity pencil multiplicities match plain matrix ranks."""
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for trial in range(10):
        mat, maps = subdomain_suite(60 + 8 * trial, 3 + trial % 3, 1 + trial % 2, seed=200 + trial)
        for smap in maps:
            blocks = extract_local_blocks(mat, smap, mat.symmetric)
            mask = interior_mask(smap)
            vals = select_pou_modes(blocks, 1e9).all_values
            d, a = np.diag(mask), blocks.a.toarray()
            dad = d @ a @ d
            n = blocks.n_local
            n_zero = int(np.sum(np.abs(vals) < 1e-8))
            n_one = int(np.sum(np.abs(vals - 1.0) < 1e-8))
            ok &= n_zero == n - np.linalg.matrix_rank(dad, tol=1e-8)
            ok &= n_one == n - np.linalg.matrix_rank(a - dad, tol=1e-8)
            ok &= bool(np.all(vals > -1e-10))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30
    verdict(
        "criterion-2 pencil multiplicities",
        ok,
        f"{checked} subdomain pencils at 1e-8, time={elapsed:.1f}s (<30s)",
    )


def test_criterion_3_color_sum():
    """Stacked splittings stay between zero and k_c times the matrix energy."""
    worst_low = worst_high = 0.0
    rng = np.random.default_rng(3)
    for trial in range(6):
        n = 50 + 15 * trial
        mat, maps = subdomain_suite(n, 3 + trial % 4, 1 + trial % 3, seed=300 + trial)
        k_c, _ = color_subdomains(maps)
        stacked = np.zeros((n, n))
        for smap in maps:
            blocks = extract_local_blocks(mat, smap, mat.symmetric)
            tilde = spsd_splitting(blocks, build_harmonic(blocks))
            ix = np.ix_(smap.indices, smap.indices)
            stacked[ix] += tilde
        dense = mat.to_dense()
        for _ in range(100):
            v = rng.standard_normal(n)
            energy = v @ dense @ v
            val = v @ stacked @ v
            worst_low = max(worst_low, -val / energy)
            worst_high = max(worst_high, val / (k_c * energy) - 1.0)
    ok = worst_low < 1e-10 and worst_high < 1e-10
    verdict(
        "criterion-3 color sum",
        ok,
        f"min_defect={worst_low:.1e} max_excess={worst_high:.1e} "
        f"(0 <= v'Sv <= k_c v'Av, slack 1e-10, 100 vectors x 6 fixtures)",
    )


def test_criterion_4_spectral_coarse_bound():
    """Measured condition number stays under the spectral-coarse bound."""
    t0 = time.perf_counter()
    fixtures = [
        (ProblemSpec("poisson2d", 12), 4),
        (ProblemSpec("poisson2d", 12), 16),
        (ProblemSpec("poisson2d", 20), 4),
        (ProblemSpec("poisson2d", 20), 16),
        (ProblemSpec("hetero-diffusion2d", 20, contrast=1e4), 4),
        (ProblemSpec("hetero-diffusion2d", 20, contrast=1e4), 16),
    ]
    ok = True
    rows = []
    for spec, n_sub in fixtures:
        mat, _ = generate(spec)
        pre = setup(mat, n_sub, overlap=2, tau=0.1, coarse="gevp",
                    one_level="asm", combine="additive")
        measured = estimate_condition(mat, pre)
        inputs = derive_bound_inputs(pre)
        bound = theoretical_bound(inputs)
        ok &= measured <= bound
        rows.append(f"{spec.kind}/m={spec.m}/N={n_sub}: {measured:.2f}<={bound:.1f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    verdict(
        "criterion-4 spectral-coarse bound",
        ok,
        "; ".join(rows) + f"; time={elapsed:.1f}s (<300s)",
    )


def test_criterion_5_full_coarse_bound():
    """Measured condition number stays under the full-coarse bound."""
    mat, _ = generate(ProblemSpec("poisson2d", 12))
    pre = setup(mat, 4, overlap=2, coarse="full", one_level="asm", combine="additive")
    measured = estimate_condition(mat, pre)
    inputs = derive_bound_inputs(pre)
    bound = theoretical_bound(inputs)
    ok = measured <= bound
    verdict(
        "criterion-5 full-coarse bound",
        ok,
        f"poisson2d/m=12/N=4: measured={measured:.2f} <= bound={bound:.1f} "
        f"(k_c={inputs.k_c}, nu={inputs.nu:.2f})",
    )


def test_criterion_6_weak_scaling():
    """Two-level iterations stay flat as problem and subdomain count grow together."""
    t0 = time.perf_counter()
    cases = [(30, 4), (60, 16), (120, 64)]
    two_level, one_level = [], []
    for m, n_sub in cases:
        mat, b = generate(ProblemSpec("poisson2d", m))
        pre2 = setup(mat, n_sub, overlap=2, tau=0.1)
        _, rep2 = pcg(mat, pre2, b, tol=1e-10, maxit=500)
        pre1 = setup(mat, n_sub, overlap=2, coarse="none")
        _, rep1 = pcg(mat, pre1, b, tol=1e-10, maxit=500)
        assert rep2.converged and rep1.converged
        two_level.append(rep2.iterations)
        one_level.append(rep1.iterations)
    spread = max(two_level) / min(two_level)
    growing = all(b > a for a, b in zip(one_level, one_level[1:]))
    elapsed = time.perf_counter() - t0
    ok = spread <= 2.0 and growing
    verdict(
        "criterion-6 weak scaling",
        ok,
        f"two-level its={two_level} (spread {spread:.2f}<=2), "
        f"one-level its={one_level} strictly growing={growing}, time={elapsed:.1f}s",
    )


def test_criterion_7_mode_decay_with_overlap():
    """Wider overlap needs no larger coarse space, subdomain by subdomain."""
    mat, _ = generate(ProblemSpec("poisson2d", 30))
    g = symmetrized_graph(mat)
    from tlschwarz import partition_graph

    part = partition_graph(g, 16)
    counts = {}
    for delta in (1, 3):
        maps = extend_overlap(g, part, delta)
        per = []
        for smap in maps:
            blocks = extract_local_blocks(mat, smap, mat.symmetric)
            basis = select_harmonic_modes(blocks, build_harmonic(blocks), 0.1)
            per.append(basis.n_selected)
        counts[delta] = per
    pairs = list(zip(counts[3], counts[1]))
    frac = sum(1 for wide, narrow in pairs if wide <= narrow) / len(pairs)
    ok = frac >= 0.9
    verdict(
        "criterion-7 mode decay",
        ok,
        f"delta=3 counts <= delta=1 counts on {frac:.0%} of 16 subdomains (>=90%); "
        f"totals {sum(counts[3])} vs {sum(counts[1])}",
    )


def test_criterion_8_nonsymmetric_two_level():
    """Deflated two-level beats one-level on the upwind advection problem."""
    mat, b = generate(ProblemSpec("advection2d", 30, eps=1e-2))
    pre2 = setup(mat, 16, overlap=2, tau=0.1)  # ras + deflated + svd by default
    _, rep2 = gmres(mat, pre2, b, tol=1e-8, maxit=500)
    pre1 = setup(mat, 16, overlap=2, coarse="none")
    _, rep1 = gmres(mat, pre1, b, tol=1e-8, maxit=500)
    ok = rep2.converged and rep1.converged and rep2.iterations < rep1.iterations
    verdict(
        "criterion-8 nonsymmetric two-level",
        ok,
        f"advection2d/m=30: two-level {rep2.iterations} its < one-level "
        f"{rep1.iterations} its, both converged under 500",
    )


def test_criterion_9_operator_equivalence():
    """Every variant matches an independently assembled dense operator."""
    mat, _ = generate(ProblemSpec("poisson2d", 8))
    rng = np.random.default_rng(9)
    worst = 0.0
    combos = 0
    for one_level in ("asm", "ras"):
        for combine in ("none", "additive", "deflated"):
            for coarse in ("full", "gevp", "svd"):
                # combine "none" is the one-level operator, which coarse="none" builds
                kinds = ({"coarse": "none"} if combine == "none"
                         else {"coarse": coarse, "combine": combine})
                pre = setup(mat, 4, overlap=2, tau=0.05, one_level=one_level, **kinds)
                oracle = dense_oracle(pre)
                for _ in range(3):
                    r = rng.standard_normal(mat.nrows)
                    ref = oracle @ r
                    err = np.abs(pre.apply(r) - ref).max() / max(np.abs(ref).max(), 1e-300)
                    worst = max(worst, err)
                combos += 1
    ok = worst < 1e-12
    verdict(
        "criterion-9 operator equivalence",
        ok,
        f"{combos} variant combinations vs dense oracle, worst relative "
        f"deviation {worst:.1e} (<1e-12)",
    )


def test_criterion_10_manufactured_solutions():
    """All four generated problems recover the all-ones solution."""
    runs = [
        ("poisson2d", ProblemSpec("poisson2d", 20), "cg", 1e-10, 16),
        ("poisson3d", ProblemSpec("poisson3d", 7), "cg", 1e-10, 8),
        ("hetero-diffusion2d", ProblemSpec("hetero-diffusion2d", 20, contrast=1e3), "cg", 1e-12, 16),
        ("advection2d", ProblemSpec("advection2d", 20), "gmres", 1e-10, 16),
    ]
    ok = True
    rows = []
    for label, spec, solver, tol, n_sub in runs:
        mat, b = generate(spec)
        pre = setup(mat, n_sub, overlap=2, tau=0.1)
        if solver == "cg":
            x, rep = pcg(mat, pre, b, tol=tol, maxit=500)
        else:
            x, rep = gmres(mat, pre, b, tol=tol, maxit=500)
        err = float(np.abs(x - 1.0).max())
        ok &= rep.converged and err <= 1e-6
        rows.append(f"{label}: err={err:.1e}")
    verdict(
        "criterion-10 manufactured solutions",
        ok,
        "; ".join(rows) + " (all <=1e-6)",
    )


def test_criterion_11_tau_controls_condition():
    """Lowering tau keeps more coarse vectors and lowers the condition number."""
    t0 = time.perf_counter()
    ok = True
    rows = []
    for spec, n_sub in [(ProblemSpec("poisson2d", 20), 16),
                        (ProblemSpec("hetero-diffusion2d", 60), 36)]:
        mat, _ = generate(spec)
        sizes, kappas, bounds = [], [], []
        for tau in (0.5, 0.3, 0.1):
            pre = setup(mat, n_sub, overlap=2, tau=tau)
            sizes.append(pre.report.n_coarse)
            if mat.nrows <= DENSE_CUTOFF:  # the exact condition number can be certified
                kappas.append(estimate_condition(mat, pre))
                bounds.append(theoretical_bound(derive_bound_inputs(pre)))
            else:  # PCG's Lanczos estimate, from below
                b = np.random.default_rng(0).standard_normal(mat.nrows)
                kappas.append(pcg(mat, pre, b, tol=1e-12, maxit=min(mat.nrows, 400))[1]
                              .cond_estimate)
        ok &= all(b > a for a, b in zip(sizes, sizes[1:]))
        ok &= all(b < a for a, b in zip(kappas, kappas[1:]))
        ok &= all(k <= b for k, b in zip(kappas, bounds))
        held = f" <= bounds {[round(b, 1) for b in bounds]}" if bounds else ""
        rows.append(f"{spec.kind}/m={spec.m}/N={n_sub}: n_coarse={sizes} "
                    f"kappa={[round(k, 2) for k in kappas]}{held}")
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion-11 tau controls kappa",
        ok,
        "; ".join(rows) + f" (tau 0.5, 0.3, 0.1: n_coarse strictly growing, kappa strictly "
        f"falling), time={elapsed:.1f}s",
    )


def test_criterion_12_contrast_robustness():
    """Two-level iterations stay flat over coefficient contrast and beat one level."""
    t0 = time.perf_counter()
    contrasts = (1.0, 1e2, 1e4, 1e6, 1e8)
    two_level, one_level = [], []
    ok = True
    for contrast in contrasts:
        mat, b = generate(ProblemSpec("hetero-diffusion2d", 60, contrast=contrast))
        _, rep2 = pcg(mat, setup(mat, 36, overlap=2, tau=0.1), b, tol=1e-8, maxit=500)
        _, rep1 = pcg(mat, setup(mat, 36, overlap=2, coarse="none"), b, tol=1e-8, maxit=500)
        ok &= rep2.converged and rep1.converged
        two_level.append(rep2.iterations)
        one_level.append(rep1.iterations)
    spread = max(two_level) / min(two_level)
    ok &= spread <= 2.0 and all(t < o for t, o in zip(two_level, one_level))
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion-12 contrast robustness",
        ok,
        f"hetero-diffusion2d/m=60/N=36, contrast 1 to 1e8: two-level its={two_level} "
        f"(spread {spread:.2f}<=2) < one-level its={one_level}, time={elapsed:.1f}s",
    )
