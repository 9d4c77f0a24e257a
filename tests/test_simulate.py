"""Path generation, substream reproducibility, Monte Carlo harness."""

import math

import numpy as np
import pytest

from doublelinear import (
    AdmissibilityError,
    GbmJumpParams,
    MarketBounds,
    PolicyConfig,
    TwoPointModel,
    WeightSpec,
    eval_schedule,
    evolve,
    expected_gain_loss_constant,
    monte_carlo_gain_loss,
    path_rng,
    prices_to_returns,
    simulate_path,
    simulate_two_point,
    sweep_mu_star,
)
from doublelinear import simulate
from doublelinear.simulate import BLOCK, DEFAULT_MU_STAR_GRID, dump_paths_csv

BOUNDS = MarketBounds(-0.5, 1.0)


def make_config(alpha=0.5, v0=1.0, rf=0.0, bounds=BOUNDS):
    return PolicyConfig(alpha=alpha, bounds=bounds, v0=v0, rf=rf)


class TestParams:
    def test_defaults_mirror_reference_experiment(self):
        p = GbmJumpParams(mu_star=0.1)
        assert (p.sigma_star, p.lam, p.delta) == (0.3563, 0.2, 0.1)
        assert p.dt == pytest.approx(1.0 / 252.0)
        assert p.n_periods == 252
        assert p.horizon_years == pytest.approx(1.0)

    def test_degenerate_volatility_allowed(self):
        assert GbmJumpParams(mu_star=0.1, sigma_star=0.0, lam=0.0).sigma_star == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma_star": -0.1},
            {"lam": -0.2},
            {"delta": 1.0},
            {"delta": -0.1},
            {"dt": 0.0},
            {"n_periods": 0},
            {"s0": 0.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            GbmJumpParams(mu_star=0.1, **kwargs)


class TestPathGeneration:
    def test_deterministic_per_seed_and_index(self):
        p = GbmJumpParams(mu_star=0.05, n_periods=30)
        a = simulate_path(p, seed=42, path_index=3)
        b = simulate_path(p, seed=42, path_index=3)
        np.testing.assert_array_equal(a, b)

    def test_distinct_substreams(self):
        p = GbmJumpParams(mu_star=0.05, n_periods=30)
        a = simulate_path(p, seed=42, path_index=0)
        b = simulate_path(p, seed=42, path_index=1)
        assert not np.array_equal(a, b)

    def test_path_does_not_depend_on_population_size(self, tmp_path):
        # core reproducibility contract: path i is a function of (seed, i)
        # alone, not of how many paths a run draws; the last block is
        # drawn at full size and sliced, so partial blocks change nothing
        params = GbmJumpParams(mu_star=0.1, sigma_star=0.2, lam=0.0, n_periods=12)
        cfg = make_config()
        spec = WeightSpec("log_ramp")
        w = eval_schedule(spec, 12)
        sizes = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
        rows = {}
        for n_paths in sizes:
            out = tmp_path / f"paths_{n_paths}.csv"
            dump_paths_csv(out, params, seed=7, n_paths=n_paths)
            rows[n_paths] = out.read_text().splitlines()
        everything = rows[sizes[-1]]
        for n_paths in sizes:
            assert rows[n_paths] == everything[: 1 + 13 * n_paths]

        # per-path gains: each run's sample is exactly the first n_paths
        # per-path evolve gains
        gains = np.array([
            evolve(cfg, w, prices_to_returns(simulate_path(params, 7, i))).final_gain
            for i in range(sizes[-1])
        ])
        for n_paths in sizes:
            res = monte_carlo_gain_loss(cfg, spec, params, n_paths, seed=7)
            assert res.mean_gain == float(np.mean(gains[:n_paths]))
            if n_paths > 1:
                assert res.sample_variance == float(np.var(gains[:n_paths], ddof=1))

    @pytest.mark.parametrize("i", [0, 5, BLOCK - 1, BLOCK, 3 * BLOCK + 5])
    def test_path_is_a_row_of_its_block(self, i):
        # block i // BLOCK draws (BLOCK, n) normals, then (BLOCK, n)
        # Poisson counts, from path_rng(seed, block); path i is one row
        p = GbmJumpParams(mu_star=0.05, lam=30.0, n_periods=30, s0=2.0)
        rng = path_rng(7, i // BLOCK)
        z = rng.standard_normal((BLOCK, 30))
        jumps = rng.poisson(p.lam * p.dt, (BLOCK, 30))
        log_growth = (
            (p.mu_star - 0.5 * p.sigma_star**2) * p.dt
            + p.sigma_star * math.sqrt(p.dt) * z[i % BLOCK]
            + math.log1p(-p.delta) * jumps[i % BLOCK]
        )
        expected = p.s0 * np.exp(np.cumsum(log_growth))
        prices = simulate_path(p, 7, i)
        assert prices[0] == p.s0
        np.testing.assert_array_equal(prices[1:], expected)
        assert jumps[i % BLOCK].any()

    @pytest.mark.parametrize("i", [0, BLOCK - 1, BLOCK, 3 * BLOCK + 5])
    def test_two_point_path_is_a_row_of_its_block(self, i):
        model = TwoPointModel(0.2, -0.1, 0.6)
        u = path_rng(9, i // BLOCK).random((BLOCK, 20))[i % BLOCK]
        expected = np.where(u < model.p_up, model.x_up, model.x_down)
        np.testing.assert_array_equal(simulate_two_point(model, 20, 9, i), expected)

    def test_shape_positivity_start(self):
        p = GbmJumpParams(mu_star=-0.3, n_periods=100, s0=50.0)
        prices = simulate_path(p, seed=0)
        assert prices.shape == (101,)
        assert prices[0] == 50.0
        assert np.all(prices > 0.0)

    def test_degenerate_path_is_pure_drift(self):
        p = GbmJumpParams(mu_star=0.1, sigma_star=0.0, lam=0.0, n_periods=10)
        prices = simulate_path(p, seed=0)
        expected = np.exp(0.1 * p.dt * np.arange(11))
        np.testing.assert_allclose(prices, expected, rtol=1e-12)

    def test_jumps_drag_prices_down(self):
        # all-jump limit: every period takes at least one (1-delta) hit
        p = GbmJumpParams(
            mu_star=0.0, sigma_star=0.0, lam=5000.0, delta=0.5, dt=1.0 / 252.0, n_periods=5
        )
        prices = simulate_path(p, seed=1)
        assert np.all(np.diff(prices) < 0.0)

    def test_jump_drag_matches_poisson_thinning_mean(self):
        # E[(1-delta)^dN] = exp(-lam*dt*delta); with mu_star = lam*delta
        # the per-period expected gross return is exactly 1
        p = GbmJumpParams(mu_star=0.02, n_periods=252)
        gross = []
        for i in range(400):
            prices = simulate_path(p, seed=123, path_index=i)
            gross.append(prices[1:] / prices[:-1])
        gross = np.concatenate(gross)
        se = gross.std(ddof=1) / math.sqrt(gross.size)
        assert abs(gross.mean() - 1.0) < 4.0 * se


class TestReturnsAndTwoPoint:
    def test_prices_to_returns(self):
        np.testing.assert_allclose(
            prices_to_returns([100.0, 110.0, 99.0]), [0.1, -0.1], atol=1e-15
        )

    def test_rejects_nonpositive_and_short_series(self):
        with pytest.raises(ValueError):
            prices_to_returns([100.0])
        with pytest.raises(ValueError):
            prices_to_returns([100.0, -1.0])

    def test_two_point_degenerate_probabilities(self):
        model_up = TwoPointModel(0.1, -0.1, 1.0)
        np.testing.assert_array_equal(simulate_two_point(model_up, 5, 0), [0.1] * 5)
        model_down = TwoPointModel(0.1, -0.1, 0.0)
        np.testing.assert_array_equal(simulate_two_point(model_down, 5, 0), [-0.1] * 5)

    def test_two_point_reproducible(self):
        model = TwoPointModel(0.2, -0.1, 0.6)
        a = simulate_two_point(model, 20, seed=9, path_index=4)
        b = simulate_two_point(model, 20, seed=9, path_index=4)
        np.testing.assert_array_equal(a, b)


class TestMonteCarlo:
    def test_single_degenerate_path_matches_closed_form(self):
        params = GbmJumpParams(mu_star=0.05, sigma_star=0.0, lam=0.0, n_periods=252)
        cfg = make_config()
        res = monte_carlo_gain_loss(cfg, WeightSpec("constant", w=0.8), params, 1, seed=0)
        x = math.exp(0.05 / 252.0) - 1.0
        assert res.mean_gain == pytest.approx(
            expected_gain_loss_constant(cfg, 0.8, x, 252), rel=1e-9
        )
        assert res.std_error == 0.0 and res.sample_variance == 0.0

    def test_gain_agrees_with_account_recursion(self):
        # the vectorized terminal gain must match evolve path by path
        params = GbmJumpParams(mu_star=0.1, n_periods=40)
        cfg = make_config(alpha=0.4)
        spec = WeightSpec("constant", w=0.6)
        res = monte_carlo_gain_loss(cfg, spec, params, 1, seed=5, clip_returns=True)
        prices = simulate_path(params, 5, 0)
        x = np.clip(prices_to_returns(prices), BOUNDS.x_min, BOUNDS.x_max)
        traj = evolve(cfg, [0.6] * 40, x)
        assert res.mean_gain == pytest.approx(traj.final_gain, rel=1e-12)

    def test_workers_do_not_change_results(self):
        params = GbmJumpParams(mu_star=0.1, n_periods=20)
        cfg = make_config()
        spec = WeightSpec("log_ramp")
        serial = monte_carlo_gain_loss(cfg, spec, params, 64, seed=11, workers=1)
        threaded = monte_carlo_gain_loss(cfg, spec, params, 64, seed=11, workers=4)
        assert serial == threaded

    def test_pool_is_bounded_by_the_cpus(self, monkeypatch):
        # a recorder stands in for the pool, so no thread is started
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        params = GbmJumpParams(mu_star=0.1, n_periods=20)
        cfg, spec = make_config(), WeightSpec("log_ramp")
        serial = monte_carlo_gain_loss(cfg, spec, params, 4 * BLOCK, seed=11, workers=1)
        pooled = monte_carlo_gain_loss(cfg, spec, params, 4 * BLOCK, seed=11, workers=3)
        assert sizes == [2]
        assert serial == pooled

    def test_two_point_generator_needs_horizon(self):
        model = TwoPointModel(0.1, -0.1, 0.5)
        cfg = make_config()
        with pytest.raises(ValueError, match="n_periods"):
            monte_carlo_gain_loss(cfg, WeightSpec("constant", w=0.5), model, 10, 0)

    def test_horizon_conflict_rejected(self):
        params = GbmJumpParams(mu_star=0.1, n_periods=20)
        with pytest.raises(ValueError, match="conflicts"):
            monte_carlo_gain_loss(
                make_config(), WeightSpec("constant", w=0.5), params, 10, 0, n_periods=30
            )

    def test_price_driven_spec_needs_price_generator(self):
        model = TwoPointModel(0.1, -0.1, 0.5)
        spec = WeightSpec("ma_indicator", w=0.8, d=5)
        with pytest.raises(ValueError, match="price"):
            monte_carlo_gain_loss(make_config(), spec, model, 10, 0, n_periods=20)

    def test_price_driven_spec_runs_on_gbm_paths(self):
        params = GbmJumpParams(mu_star=0.1, n_periods=30)
        spec = WeightSpec("ma_indicator", w=0.8, d=5)
        res = monte_carlo_gain_loss(make_config(), spec, params, 8, seed=3)
        assert res.n_paths == 8 and math.isfinite(res.mean_gain)

    def test_schedule_admissibility_enforced(self):
        params = GbmJumpParams(mu_star=0.1, n_periods=10)
        cfg = make_config(bounds=MarketBounds(-0.5, 2.0))  # w_max = 0.5
        with pytest.raises(AdmissibilityError):
            monte_carlo_gain_loss(cfg, WeightSpec("constant", w=0.8), params, 4, 0)
        with pytest.raises(AdmissibilityError):
            monte_carlo_gain_loss(
                cfg, WeightSpec("ma_indicator", w=0.8, d=3), params, 4, 0
            )

    def test_two_point_mean_approaches_truth(self):
        model = TwoPointModel(0.1, -0.1, 0.75)  # mu = 0.05
        cfg = make_config()
        res = monte_carlo_gain_loss(
            cfg, WeightSpec("constant", w=0.5), model, 4000, seed=17, n_periods=2
        )
        truth = 0.000625
        assert abs(res.mean_gain - truth) <= 4.0 * res.std_error


class TestSweep:
    def test_default_grid(self):
        assert len(DEFAULT_MU_STAR_GRID) == 41
        assert DEFAULT_MU_STAR_GRID[0] == pytest.approx(-0.95)
        assert DEFAULT_MU_STAR_GRID[-1] == pytest.approx(0.95)

    def test_sweep_deterministic_and_cell_independent(self):
        cfg = make_config()
        spec = WeightSpec("constant", w=0.8)
        params = GbmJumpParams(mu_star=0.0, n_periods=10)
        grid = [-0.2, 0.0, 0.2]
        a = sweep_mu_star(cfg, spec, params, grid, n_paths=50, seed=13)
        b = sweep_mu_star(cfg, spec, params, grid, n_paths=50, seed=13)
        assert a == b
        # distinct cells draw from distinct substream families
        assert a[0][1].mean_gain != a[2][1].mean_gain
        assert [mu for mu, _ in a] == grid

    def test_sweep_cell_matches_direct_run(self):
        import dataclasses

        cfg = make_config()
        spec = WeightSpec("constant", w=0.8)
        params = GbmJumpParams(mu_star=0.0, n_periods=10)
        cells = sweep_mu_star(cfg, spec, params, [0.3], n_paths=20, seed=13)
        mu_star, res = cells[0]
        cell_seed = int(np.random.SeedSequence([13, 0]).generate_state(1, np.uint64)[0])
        direct = monte_carlo_gain_loss(
            cfg, spec, dataclasses.replace(params, mu_star=0.3), 20, cell_seed
        )
        assert res == direct


class TestPathDump:
    def test_dump_format(self, tmp_path):
        params = GbmJumpParams(mu_star=0.05, n_periods=3)
        out = tmp_path / "paths.csv"
        dump_paths_csv(out, params, seed=4, n_paths=2, comment="trial")
        lines = out.read_text().splitlines()
        assert lines[0] == "# trial"
        assert lines[1] == "path_id,stage,price"
        assert len(lines) == 2 + 2 * 4  # two paths, stages 0..3
        first = lines[2].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == 1.0

    def test_dump_rows_are_the_simulated_paths(self, tmp_path):
        # one block draw serves BLOCK paths; the CSV must still be
        # exactly simulate_path, row by row, across a block boundary
        params = GbmJumpParams(mu_star=0.05, n_periods=4)
        n_paths = BLOCK + 3
        out = tmp_path / "paths.csv"
        dump_paths_csv(out, params, seed=4, n_paths=n_paths)
        body = [line.split(",") for line in out.read_text().splitlines()[1:]]
        expected = [
            [str(i), str(stage), repr(price)]
            for i in range(n_paths)
            for stage, price in enumerate(simulate_path(params, 4, i).tolist())
        ]
        assert body == expected
