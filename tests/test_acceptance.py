"""Acceptance gate: ten behavioural criteria covering model exactness,
gradients, numerical robustness, protocol fidelity, metric oracles,
baseline closed forms, end-to-end ordering, and determinism.

Each test measures first, prints one [criterion N] PASS/FAIL line on the
real terminal, then asserts, so the line appears exactly once per
criterion whatever the outcome.
"""

import dataclasses
import os
import time
from dataclasses import field

import numpy as np
import pytest
from numpy.testing import assert_allclose

from denguegp.baselines import ARModelState, ar_forecast, lm_fit
from denguegp.cli import main
from denguegp.data import WeeklySeries
from denguegp.evaluation import (CityData, ProtocolConfig, band_auc, pearson,
                                 run_backtest)
from denguegp.gp import (_chol_with_jitter, fit, lml_value_and_gradient,
                         log_marginal_likelihood, predict)
from denguegp.hyperopt import OptimizerConfig, optimize
from denguegp.kernels import PARAM_NAMES, composite_kernel, gram_from_arrays, lag_table
from denguegp.synth import (SynthSpec, draw_from_prior, make_multi_city_fixture,
                            strongly_periodic_spec)

from test_gp import finite_difference_lml
from test_kernels import (finite_difference_kernel, pairwise_gradients,
                          random_design, random_hyperparameters, random_input)


def announce(capsys, text):
    with capsys.disabled():
        print("\n" + text)


def conditioning_instances(seed=101, count=50):
    """Shared fixtures for the exactness criteria: small random problems."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 9))
        h = random_hyperparameters(rng)
        weeks, X = random_design(rng, n, max_week=150)
        y = rng.normal(size=n)
        query = random_input(rng, max_week=150)
        out.append((weeks, X, y, h, query))
    return out


class TestAcceptance:
    def test_criterion_01_predictive_exactness(self, capsys):
        t0 = time.perf_counter()
        max_err = 0.0
        for weeks, X, y, h, query in conditioning_instances():
            model = fit(weeks, X, y, h)
            dist = predict(model, *query)

            K = gram_from_arrays(weeks, X, h, include_noise=True)
            Kinv = np.linalg.inv(K)
            kstar = np.array([composite_kernel(w, x, *query, h)
                              for w, x in zip(weeks, X)])
            kss = composite_kernel(*query, *query, h)
            mean = float(kstar @ Kinv @ y)
            variance = float(kss - kstar @ Kinv @ kstar)
            max_err = max(max_err, abs(dist.mean - mean),
                          abs(dist.variance - max(variance, 0.0)))
        elapsed = time.perf_counter() - t0
        ok = max_err <= 1e-8 and elapsed < 5.0
        announce(capsys, f"[criterion 1] {'PASS' if ok else 'FAIL'} "
                         f"predictive mean/variance vs dense conditioning: "
                         f"max abs err {max_err:.2e} over 50 instances, {elapsed:.2f}s")
        assert max_err <= 1e-8
        assert elapsed < 5.0

    def test_criterion_02_likelihood_exactness(self, capsys):
        t0 = time.perf_counter()
        max_err = 0.0
        for weeks, X, y, h, _ in conditioning_instances():
            got = log_marginal_likelihood(weeks, X, y, h)
            K = gram_from_arrays(weeks, X, h, include_noise=True)
            sign, logdet = np.linalg.slogdet(K)
            assert sign > 0
            expected = -0.5 * (float(y @ np.linalg.inv(K) @ y) + logdet
                               + y.size * np.log(2 * np.pi))
            max_err = max(max_err, abs(got - expected))
        elapsed = time.perf_counter() - t0
        ok = max_err <= 1e-8
        announce(capsys, f"[criterion 2] {'PASS' if ok else 'FAIL'} "
                         f"log marginal likelihood vs dense normal density: "
                         f"max abs err {max_err:.2e} over 50 instances, {elapsed:.2f}s")
        assert max_err <= 1e-8

    def test_criterion_03_gradient_suite(self, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(103)
        worst = 0.0

        def rel_err(analytic, fd):
            scale = max(abs(analytic), abs(fd), 1e-6)
            return abs(analytic - fd) / scale

        for _ in range(20):
            a, b = random_input(rng), random_input(rng)
            h = random_hyperparameters(rng)
            grad = pairwise_gradients(a, b, h)
            for idx in range(len(PARAM_NAMES)):
                fd = finite_difference_kernel(a, b, h, idx, step=1e-5)
                worst = max(worst, rel_err(grad[idx], fd))

        for _ in range(20):
            n = int(rng.integers(3, 11))
            h = random_hyperparameters(rng)
            weeks, X = random_design(rng, n, max_week=150)
            y = rng.normal(size=n)
            _, grad = lml_value_and_gradient(weeks, X, y, h, lag=lag_table(weeks))
            for idx in range(len(PARAM_NAMES)):
                fd = finite_difference_lml(weeks, X, y, h, idx, step=1e-5)
                worst = max(worst, rel_err(grad[idx], fd))

        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-4 and elapsed < 10.0
        announce(capsys, f"[criterion 3] {'PASS' if ok else 'FAIL'} "
                         f"analytic gradients vs central differences: "
                         f"worst rel err {worst:.2e} over 2x20 instances, {elapsed:.2f}s")
        assert worst <= 1e-4
        assert elapsed < 10.0

    def test_criterion_04_psd_suite(self, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(104)
        worst_ratio = 0.0
        for _ in range(100):
            h = random_hyperparameters(rng)
            weeks, X = random_design(rng, 50, max_week=300)
            K = gram_from_arrays(weeks, X, h, include_noise=True)
            _, jitter = _chol_with_jitter(K)
            bound = 1e-8 * float(np.mean(np.diag(K)))
            worst_ratio = max(worst_ratio, jitter / bound)
        elapsed = time.perf_counter() - t0
        ok = worst_ratio <= 1.0 and elapsed < 10.0
        announce(capsys, f"[criterion 4] {'PASS' if ok else 'FAIL'} "
                         f"100 N=50 Gram factorizations, worst jitter at "
                         f"{worst_ratio:.2e} of the 1e-8*mean-diag budget, {elapsed:.2f}s")
        assert worst_ratio <= 1.0
        assert elapsed < 10.0

    def test_criterion_05_hyperparameter_recovery(self, capsys):
        t0 = time.perf_counter()
        successes = 0
        details = []
        for s in range(10):
            spec = strongly_periodic_spec(seed=s)
            draw = draw_from_prior(spec)
            targets = draw.log_observations - draw.log_observations.mean()
            weeks = np.arange(1, spec.weeks + 1)
            X = draw.standardized_covariates
            generating_lml = log_marginal_likelihood(weeks, X, targets,
                                                     spec.hyperparameters)
            h, lml, _ = optimize(weeks, X, targets,
                                 OptimizerConfig(restarts=3, seed=100 + s))
            hit = abs(h.period - 52.0) <= 2.0 and lml >= generating_lml - 1.0
            successes += hit
            details.append(f"{h.period:.1f}")
        elapsed = time.perf_counter() - t0
        ok = successes >= 8 and elapsed < 300.0
        announce(capsys, f"[criterion 5] {'PASS' if ok else 'FAIL'} "
                         f"period recovery {successes}/10 within +-2 of 52 with "
                         f"lml above the generating value - 1.0 "
                         f"(periods: {', '.join(details)}), {elapsed:.0f}s")
        assert successes >= 8
        assert elapsed < 300.0

    def test_criterion_06_protocol_fidelity(self, capsys):
        @dataclasses.dataclass(frozen=True)
        class ViewAudit(CityData):
            requested_end_weeks: list = field(default_factory=list)

            def training_view(self, end_week):
                self.requested_end_weeks.append(end_week)
                return super().training_view(end_week)

        draw = draw_from_prior(SynthSpec(seed=21), city_id="audit")
        city = ViewAudit(city_id="audit", dir_series=draw.dir_series,
                         covariates=draw.raw_covariates)
        report, = run_backtest(city, ("ar",))

        n_rows = len(report.rows)
        first = report.rows[0].target_week
        last = report.rows[-1].target_week
        targets = [r.target_week for r in report.rows]
        log = city.requested_end_weeks
        no_leak = (len(log) == len(targets)
                   and all(end == t - 4 for end, t in zip(log, targets)))
        ok = n_rows == 105 and first == 105 and last == 209 and no_leak
        announce(capsys, f"[criterion 6] {'PASS' if ok else 'FAIL'} "
                         f"209-week series gives {n_rows} forecasts from week {first}; "
                         f"every training view ends exactly 4 weeks before its target "
                         f"(max view end {max(log)})")
        assert n_rows == 105
        assert (first, last) == (105, 209)
        assert no_leak

    def test_criterion_07_metric_oracles(self, capsys):
        rng = np.random.default_rng(107)

        def brute_force_auc(actual, predicted, threshold):
            pos = [p for a, p in zip(actual, predicted) if a >= threshold]
            neg = [p for a, p in zip(actual, predicted) if a < threshold]
            if not pos or not neg:
                return None
            wins = 0.0
            for p in pos:
                for q in neg:
                    wins += 1.0 if p > q else (0.5 if p == q else 0.0)
            return wins / (len(pos) * len(neg))

        auc_mismatches = 0
        for _ in range(200):
            n = int(rng.integers(5, 60))
            actual = rng.uniform(0, 120, size=n)
            predicted = rng.uniform(0, 120, size=n)
            if rng.uniform() < 0.5:
                predicted = np.round(predicted / 10.0) * 10.0  # force ties
            threshold = float(rng.choice([25.0, 75.0, rng.uniform(5, 110)]))
            if band_auc(actual, predicted, threshold) != brute_force_auc(
                    actual, predicted, threshold):
                auc_mismatches += 1

        worst_pearson = 0.0
        for _ in range(50):
            a = rng.normal(size=int(rng.integers(3, 40)))
            p = rng.normal(size=a.size)
            num = np.sum((a - a.mean()) * (p - p.mean()))
            den = np.sqrt(np.sum((a - a.mean()) ** 2) * np.sum((p - p.mean()) ** 2))
            worst_pearson = max(worst_pearson, abs(pearson(a, p) - num / den))

        ok = auc_mismatches == 0 and worst_pearson <= 1e-12
        announce(capsys, f"[criterion 7] {'PASS' if ok else 'FAIL'} "
                         f"band AUC exact on 200/200 random vectors "
                         f"({auc_mismatches} mismatches); pearson within "
                         f"{worst_pearson:.2e} of the definitional formula")
        assert auc_mismatches == 0
        assert worst_pearson <= 1e-12

    def test_criterion_08_baseline_closed_forms(self, capsys):
        rng = np.random.default_rng(108)

        worst_ar = 0.0
        for _ in range(50):
            phi = float(rng.uniform(-0.99, 0.99))
            c = float(rng.normal())
            y0 = float(rng.normal(scale=3.0))
            closed = phi ** 4 * y0 + c * (1 + phi + phi ** 2 + phi ** 3)
            got = ar_forecast(ARModelState(phi, c), y0, 4)
            worst_ar = max(worst_ar, abs(got - closed) / max(abs(closed), 1.0))

        worst_lm = 0.0
        for _ in range(20):
            X = rng.normal(size=(int(rng.integers(8, 40)), 3))
            y = rng.normal(size=X.shape[0])
            state = lm_fit(X, y)
            design = np.column_stack([np.ones(X.shape[0]), X])
            beta = np.linalg.solve(design.T @ design, design.T @ y)
            worst_lm = max(worst_lm, abs(state.intercept - beta[0]),
                           float(np.max(np.abs(state.coefficients - beta[1:]))))

        ok = worst_ar <= 1e-12 and worst_lm <= 1e-8
        announce(capsys, f"[criterion 8] {'PASS' if ok else 'FAIL'} "
                         f"iterated AR forecast within {worst_ar:.2e} of the "
                         f"geometric closed form; OLS within {worst_lm:.2e} of "
                         f"normal equations")
        assert worst_ar <= 1e-12
        assert worst_lm <= 1e-8

    def test_criterion_09_end_to_end_ordering(self, capsys, tmp_path):
        t0 = time.perf_counter()
        ds = make_multi_city_fixture(str(tmp_path / "fixture"), 3,
                                     variations=(strongly_periodic_spec(),), seed=0)
        beats_ar, beats_lm = 0, 0
        lines = []
        for idx, cid in enumerate(sorted(ds.cities)):
            city = CityData.from_dataset(ds, cid)
            gp, ar, lm = run_backtest(city, ("gp", "ar", "lm"),
                                      optimizer_config=OptimizerConfig(restarts=3, seed=idx))
            beats_ar += gp.pearson > ar.pearson
            beats_lm += gp.pearson > lm.pearson
            lines.append(f"{cid}: gp {gp.pearson:.2f} ar {ar.pearson:.2f} "
                         f"lm {lm.pearson:.2f}")
        elapsed = time.perf_counter() - t0
        ok = beats_ar >= 2 and beats_lm >= 2 and elapsed < 600.0
        announce(capsys, f"[criterion 9] {'PASS' if ok else 'FAIL'} "
                         f"backtest Pearson: beats AR in {beats_ar}/3 and LM in "
                         f"{beats_lm}/3 cities ({'; '.join(lines)}), {elapsed:.0f}s")
        assert beats_ar >= 2
        assert beats_lm >= 2
        assert elapsed < 600.0

    def test_criterion_10_determinism(self, capsys, tmp_path):
        data = str(tmp_path / "data")
        assert main(["simulate", "--out-dir", data, "--n-cities", "2",
                     "--weeks", "150", "--variation", "periodic", "--seed", "0"]) == 0
        run_a, run_b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["backtest", "--data-dir", data, "--model", "all",
                "--first-target", "120", "--last-target", "130",
                "--refit-every", "52", "--restarts", "1", "--seed", "0"]
        assert main(args + ["--out-dir", run_a]) == 0
        assert main(args + ["--out-dir", run_b]) == 0

        names = sorted(n for n in os.listdir(run_a)
                       if n.startswith("forecast_") or n == "summary.json")
        diffs = []
        for name in names:
            with open(os.path.join(run_a, name), "rb") as fh:
                a = fh.read()
            with open(os.path.join(run_b, name), "rb") as fh:
                b = fh.read()
            if a != b:
                diffs.append(name)
        ok = not diffs and len(names) == 7
        announce(capsys, f"[criterion 10] {'PASS' if ok else 'FAIL'} "
                         f"repeated backtest runs byte-identical across "
                         f"{len(names)} output files"
                         + (f"; differing: {', '.join(diffs)}" if diffs else ""))
        assert names == sorted([f"forecast_C{c:03d}_{m}.csv"
                                for c in (1, 2) for m in ("gp", "lm", "ar")]
                               + ["summary.json"])
        assert not diffs
