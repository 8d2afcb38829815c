"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Every tolerance is pinned here; the master seed for every criterion is 0.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from reviewrate import (
    Dataset,
    ReviewConfig,
    RngStream,
    StratumParams,
    StudySpec,
    estimate_theta,
    generate_stratum,
    run_sweep,
    scenario_rare,
    summarize_comprehensive,
)
from reviewrate import _batch
from reviewrate.cli import main
from reviewrate.distributions import sample_binomial, sample_poisson
from reviewrate.study import _scenario_arrays
from helpers import em_fixed_point_residual_t2

SEED = 0


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def coverage_table(source: str, grid, methods, seed=SEED, reps=1000, B=2000):
    spec = StudySpec(
        source=source, pi1_grid=grid, replications=reps, level=0.9,
        methods=methods, B=B, master_seed=seed,
    )
    return {(row.pi1, row.method): row for row in run_sweep(spec)}


@pytest.fixture(scope="module")
def common_rows():
    return coverage_table("fixed-common", (0.1, 1.0), ("bootstrap", "wald", "gamma_wsip"))


@pytest.fixture(scope="module")
def rare_rows():
    return coverage_table("fixed-rare", (0.1,), ("bootstrap", "wald", "gamma_wsip"))


def test_criterion_1_unbiasedness():
    start = time.perf_counter()
    scen = scenario_rare(0.3)
    lam, pis = _scenario_arrays(scen)
    reps = 100_000
    e, n = _batch.generate_counts(lam, pis, 1.0, reps, RngStream(SEED).generator)
    theta = _batch.estimate_counts(e, n, 1.0).theta
    elapsed = time.perf_counter() - start

    mean = theta.mean()
    se = theta.std(ddof=1) / math.sqrt(reps)
    ok = abs(mean - 11.0) <= 3 * se and elapsed < 120
    report(
        "criterion 1 (unbiasedness, rare scenario, pi1=0.3, 1e5 replications)",
        ok,
        f"mean theta_hat={mean:.4f}, target 11, 3*SE={3 * se:.4f}, runtime {elapsed:.1f}s",
    )


def test_criterion_2a_bootstrap_coverage_common_low_sampling(common_rows):
    row = common_rows[(0.1, "bootstrap")]
    ok = 0.78 <= row.coverage <= 0.86
    report(
        "criterion 2a (common, pi1=0.1, bootstrap coverage = 0.82 +/- 0.04)",
        ok,
        f"coverage={row.coverage:.3f}",
    )


def test_criterion_2b_gamma_coverage_common_low_sampling(common_rows):
    row = common_rows[(0.1, "gamma_wsip")]
    ok = row.coverage >= 0.94
    report(
        "criterion 2b (common, pi1=0.1, gamma coverage >= 0.94)",
        ok,
        f"coverage={row.coverage:.3f}",
    )


def test_criterion_2c_all_methods_near_nominal_at_full_review(common_rows):
    covs = {m: common_rows[(1.0, m)].coverage for m in ("bootstrap", "wald", "gamma_wsip")}
    ok = all(0.86 <= c <= 0.96 for c in covs.values())
    report(
        "criterion 2c (common, pi1=1.0, all methods within [0.86, 0.96])",
        ok,
        ", ".join(f"{m}={c:.3f}" for m, c in covs.items()),
    )


def test_criterion_3_rare_scenario_coverage(rare_rows):
    boot = rare_rows[(0.1, "bootstrap")]
    wald = rare_rows[(0.1, "wald")]
    gamma = rare_rows[(0.1, "gamma_wsip")]
    ok = (
        boot.coverage <= 0.75
        and wald.coverage <= 0.75
        and 0.93 <= gamma.coverage <= 1.0
        and gamma.mean_width >= 2 * boot.mean_width
    )
    report(
        "criterion 3 (rare, pi1=0.1: bootstrap/wald <= 0.75, gamma in [0.93, 1], "
        "gamma width >= 2x bootstrap width)",
        ok,
        f"bootstrap={boot.coverage:.3f}, wald={wald.coverage:.3f}, "
        f"gamma={gamma.coverage:.3f}, width ratio={gamma.mean_width / boot.mean_width:.2f}",
    )


def test_criterion_4_comprehensive_study():
    start = time.perf_counter()
    spec = StudySpec(
        source="comprehensive", replications=1000, level=0.9,
        methods=("wald", "gamma_wsip"), num_scenarios=2000, master_seed=SEED,
    )
    rows = run_sweep(spec)
    elapsed = time.perf_counter() - start

    gamma_rows = [r for r in rows if r.method == "gamma_wsip"]
    wald_rows = [r for r in rows if r.method == "wald"]
    max_x = max(r.expected_tp for r in gamma_rows)
    centers = range(0, int(max_x) + 2)

    def window(rows_m, center):
        return [r for r in rows_m if abs(r.expected_tp - center) <= 1.0]

    worst_gamma = 1.0
    gamma_ok = True
    for c in centers:
        sub = window(gamma_rows, c)
        if len(sub) >= 50:
            mean_cov = float(np.mean([r.coverage for r in sub]))
            worst_gamma = min(worst_gamma, mean_cov)
            gamma_ok = gamma_ok and mean_cov >= 0.89

    wald_upper_miss = [
        float(np.mean([r.upper_miss for r in window(wald_rows, c)]))
        for c in centers
        if c <= 5 and len(window(wald_rows, c)) >= 50
    ]
    wald_ok = any(u > 0.05 for u in wald_upper_miss)

    # the percentile summary must be well formed on the same rows
    summary = summarize_comprehensive(rows, window=1.0, grid=list(centers))
    for s in summary:
        if not s.skipped:
            v = s.stats["coverage"]
            assert v[0] <= v[1] <= v[2] <= v[3] <= v[4]

    ok = gamma_ok and wald_ok and elapsed < 900
    report(
        "criterion 4 (comprehensive, 2000 scenarios: gamma windows >= 0.89, "
        "wald upper-miss > 0.05 at low counts)",
        ok,
        f"worst gamma window={worst_gamma:.3f}, max wald upper-miss="
        f"{max(wald_upper_miss):.3f}, runtime {elapsed:.0f}s",
    )


def test_criterion_5_em_fixed_point_oracle():
    gen = np.random.default_rng(SEED)
    root = RngStream(SEED, (5,))
    checked = 0
    attempts = 0
    worst_at_mle = 0.0
    weakest_rejection = math.inf
    while checked < 1000:
        attempts += 1
        assert attempts < 20_000, "could not produce enough non-terminated datasets"
        params = StratumParams(
            lambdas=tuple(gen.uniform(0.5, 8.0, size=3)),
            pis=tuple(gen.uniform(0.2, 1.0, size=2)),
        )
        _, obs = generate_stratum(params, 1.0, root.child(attempts))
        if obs.e[0] < 1 or obs.e[1] < 1:
            continue
        checked += 1
        dataset = Dataset(config=ReviewConfig(m=1.0, H=1, T=2), strata=(obs,))
        mle = estimate_theta(dataset).lambda_hat[0]
        worst_at_mle = max(worst_at_mle, max(abs(r) for r in em_fixed_point_residual_t2(obs, mle)))
        for k in range(3):
            if mle[k] == 0.0:
                continue
            for factor in (0.9, 1.1):
                perturbed = list(mle)
                perturbed[k] *= factor
                res = em_fixed_point_residual_t2(obs, tuple(perturbed))
                weakest_rejection = min(weakest_rejection, max(abs(r) for r in res))
    ok = worst_at_mle < 1e-10 and weakest_rejection > 1e-6
    report(
        "criterion 5 (EM fixed point: MLE residuals < 1e-10 on 1000 datasets, "
        "perturbations rejected)",
        ok,
        f"worst residual at MLE={worst_at_mle:.2e}, "
        f"weakest rejection={weakest_rejection:.2e}",
    )


def test_criterion_6_poisson_thinning():
    lam, pi = 5.0, 0.3
    target = lam * pi
    trials = 10**6
    rng = RngStream(SEED, (6,))
    draws = np.empty(trials, dtype=np.int64)
    for i in range(trials):
        x = sample_poisson(lam, rng)
        draws[i] = sample_binomial(x, pi, rng)

    mean_ok = abs(draws.mean() - target) <= 3 * math.sqrt(target / trials)
    var_se = math.sqrt((target + 2 * target**2) / trials)
    var_ok = abs(draws.var(ddof=1) - target) <= 3 * var_se

    # chi-square GOF against Poisson(1.5), tail lumped to keep expected counts >= 5
    kmax = 9
    observed = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1).astype(float)
    probs = stats.poisson.pmf(np.arange(kmax), target)
    probs = np.append(probs, 1.0 - probs.sum())
    expected = probs * trials
    assert expected.min() >= 5
    chi2 = ((observed - expected) ** 2 / expected).sum()
    pvalue = stats.chi2.sf(chi2, df=kmax)

    ok = mean_ok and var_ok and pvalue > 0.001
    report(
        "criterion 6 (Poisson thinning at lambda=5, pi=0.3, 1e6 trials)",
        ok,
        f"mean={draws.mean():.4f} (target {target}), var={draws.var(ddof=1):.4f}, "
        f"GOF p={pvalue:.3f}",
    )


def shifted_multinomial_pmf(z, y, s_z, n, rates):
    """Closed-form conditional law of the urn composition given the observed draw."""
    K = len(rates) - 1
    s_y = sum(y)
    base = (n - s_y,) + tuple(y)
    extra = [zk - bk for zk, bk in zip(z, base)]
    if any(v < 0 for v in extra) or sum(extra) != s_z - n:
        return 0.0
    total_rate = sum(rates)
    p = [r / total_rate for r in rates]
    coeff = math.factorial(s_z - n)
    for v in extra:
        coeff //= math.factorial(v)
    return coeff * math.prod(pk**vk for pk, vk in zip(p, extra))


def test_criterion_7_urn_composition_theorem():
    rates = (1.0, 2.0, 1.5)
    n_fixed = 2
    trials = 10**6
    gen = RngStream(SEED, (7,)).generator

    z = np.vstack([gen.poisson(r, size=trials) for r in rates])  # (3, trials)
    s_z = z.sum(axis=0)
    eligible = s_z >= n_fixed
    n_draw = np.where(eligible, n_fixed, 0)
    drawn = _batch.hypergeometric_split(z, n_draw, gen)
    y = drawn[1:]  # classes 1..K per the urn convention; class 0 count is implied

    # condition on the cell (s_z=3, y=(1,0)) and compare in total variation
    cell = eligible & (s_z == 3) & (y[0] == 1) & (y[1] == 0)
    count = int(cell.sum())
    assert count > 20_000, f"conditioning cell unexpectedly small: {count}"
    zs = z[:, cell]

    # with s_z - n = 1 the support is the base composition plus one ball in any class
    support = []
    base = np.array([n_fixed - 1, 1, 0])
    for i in range(3):
        point = base.copy()
        point[i] += 1
        support.append(tuple(point))

    tv = 0.0
    for point in support:
        theoretical = shifted_multinomial_pmf(point, (1, 0), 3, n_fixed, rates)
        empirical = float(np.mean((zs[0] == point[0]) & (zs[1] == point[1]) & (zs[2] == point[2])))
        tv += abs(empirical - theoretical)
    tv /= 2.0

    ok = tv < 0.02
    report(
        "criterion 7 (urn composition vs shifted multinomial, TV < 0.02)",
        ok,
        f"TV={tv:.4f} over {count} conditioned draws",
    )


def test_criterion_8_study_determinism(tmp_path):
    args = ["study", "--study", "rare", "--reps", "3", "--grid", "0.2,0.7",
            "--methods", "bootstrap,wald,gamma", "--B", "150", "--seed", "7"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    ok = out1.read_bytes() == out2.read_bytes()
    report(
        "criterion 8 (fixed seed gives byte-identical study CSV)",
        ok,
        f"{out1.stat().st_size} bytes compared",
    )
