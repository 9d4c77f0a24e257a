"""Path generation, substream reproducibility, Monte Carlo harness."""

import dataclasses
import gc
import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    parse_weight_spec,
    path_rng,
    prices_to_returns,
    simulate_path,
    simulate_returns,
    simulate_two_point,
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
            {"sigma_star": 1e200},  # sigma_star**2 overflows the log drift
            {"lam": 1e300},  # more jumps than one Poisson draw can hold
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
            evolve(cfg, w, simulate_returns(params, 7, i)).final_gain
            for i in range(sizes[-1])
        ])
        for n_paths in sizes:
            res = monte_carlo_gain_loss(cfg, spec, params, n_paths, seed=7)
            assert res.mean_gain == float(np.mean(gains[:n_paths]))
            if n_paths > 1:
                assert res.sample_variance == float(np.var(gains[:n_paths], ddof=1))

    @pytest.mark.parametrize("i", [0, 5, BLOCK - 1, BLOCK, 3 * BLOCK + 5])
    def test_path_is_a_row_of_its_block(self, i):
        # block i // BLOCK draws (BLOCK, n) normals, then one Poisson jump
        # total per path, then a multinomial per row with a nonzero total,
        # from path_rng(seed, block); path i is one row of the log growth
        p = GbmJumpParams(mu_star=0.05, lam=30.0, n_periods=30, s0=2.0)
        rng = path_rng(7, i // BLOCK)
        z = rng.standard_normal((BLOCK, 30))
        totals = rng.poisson(p.lam * p.dt * 30, BLOCK)
        jumps = np.zeros((BLOCK, 30), dtype=np.int64)
        for r in np.flatnonzero(totals):
            jumps[r] = rng.multinomial(totals[r], [1.0 / 30] * 30)
        log_growth = (
            (p.mu_star - 0.5 * p.sigma_star * p.sigma_star) * p.dt
            + p.sigma_star * math.sqrt(p.dt) * z[i % BLOCK]
            + math.log1p(-p.delta) * jumps[i % BLOCK]
        )
        np.testing.assert_array_equal(simulate_returns(p, 7, i), np.expm1(log_growth))
        prices = simulate_path(p, 7, i)
        assert prices[0] == p.s0
        np.testing.assert_array_equal(prices[1:], p.s0 * np.exp(np.cumsum(log_growth)))
        assert jumps[i % BLOCK].any()

    def test_jump_counts_are_poisson_per_period(self):
        # with sigma_star = 0 a period's log growth is drift + dN*log(1-delta),
        # so its jump count is recoverable exactly from the returns
        p = GbmJumpParams(mu_star=0.1, sigma_star=0.0, lam=126.0, delta=0.1, n_periods=20)
        lam_dt = p.lam * p.dt  # 0.5 jumps per period
        log_growth = np.log1p([simulate_returns(p, 3, i) for i in range(2000)])
        counts = np.round((log_growth - p.mu_star * p.dt) / math.log1p(-p.delta)).ravel()
        size = counts.size
        assert counts.min() >= 0
        mean = counts.mean()
        assert abs(mean - lam_dt) < 4.0 * math.sqrt(lam_dt / size)
        # the sample variance of a Poisson count has variance about
        # (lam_dt + 2*lam_dt^2)/size
        variance = counts.var(ddof=1)
        assert abs(variance - lam_dt) < 4.0 * math.sqrt((lam_dt + 2.0 * lam_dt**2) / size)
        zero_share, p_zero = float(np.mean(counts == 0)), math.exp(-lam_dt)
        assert abs(zero_share - p_zero) < 4.0 * math.sqrt(p_zero * (1.0 - p_zero) / size)

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


FLOAT_RANGE = "simulated prices reached 0 or inf: .* leave the float range"


class TestFloatRange:
    def test_huge_jump_intensity_is_the_float_range_error(self):
        # 1e12 jumps a path: the multinomial holds only the (BLOCK, n)
        # counts, and every return is -1, so the run ends in the named error
        params = GbmJumpParams(mu_star=0.1, lam=1e12, n_periods=252)
        with pytest.raises(ValueError, match=FLOAT_RANGE):
            monte_carlo_gain_loss(make_config(), WeightSpec("constant", w=0.5), params, 3, 0)
        with pytest.raises(ValueError, match=FLOAT_RANGE):
            simulate_returns(params, 0, 5)

    def test_static_schedules_trade_without_prices(self, tmp_path):
        # returns of sqrt(e) - 1 are fine, but s0*e overflows: only the routes
        # that build prices (ma:, simulate_path, dumps) meet the float range
        params = GbmJumpParams(
            mu_star=0.5, sigma_star=0.0, lam=0.0, dt=1.0, n_periods=3, s0=1e308
        )
        config = make_config()
        res = monte_carlo_gain_loss(config, WeightSpec("constant", w=0.5), params, 2, 0)
        x = math.expm1(0.5)
        assert res.mean_gain == pytest.approx(expected_gain_loss_constant(config, 0.5, x, 3))
        np.testing.assert_array_equal(simulate_returns(params, 0, 1), [x] * 3)
        with pytest.raises(ValueError, match=FLOAT_RANGE):
            monte_carlo_gain_loss(config, WeightSpec("ma_indicator", w=0.5, d=2), params, 2, 0)
        with pytest.raises(ValueError, match=FLOAT_RANGE):
            simulate_path(params, 0, 1)
        with pytest.raises(ValueError, match=FLOAT_RANGE):
            dump_paths_csv(tmp_path / "paths.csv", params, 0, 2)


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


class TestPerPathBlocks:
    """Each call of a per-path accessor draws its path's whole block and keeps nothing:
    the package holds no state between calls."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []

        def counted(seed, block):
            calls.append((seed, block))
            return path_rng(seed, block)

        monkeypatch.setattr(simulate, "path_rng", counted)
        return calls

    @pytest.mark.parametrize(
        "accessor, model, more",
        [
            (simulate_returns, GbmJumpParams(0.3, lam=30.0, n_periods=20), ()),
            (simulate_path, GbmJumpParams(0.3, lam=30.0, n_periods=20), ()),
            (simulate_two_point, TwoPointModel(0.2, -0.1, 0.6), (20,)),
        ],
    )
    def test_each_call_draws_its_paths_block(self, draws, accessor, model, more):
        rows = [accessor(model, *more, 5, i) for i in range(2 * BLOCK)]
        assert draws == [(5, i // BLOCK) for i in range(2 * BLOCK)]
        for i, row in enumerate(rows):
            row[:] = -7.0  # a caller's writes do not reach the next call
            fresh = accessor(model, *more, 5, i)
            assert fresh.tobytes() != row.tobytes()
            assert accessor(model, *more, 5, i).tobytes() == fresh.tobytes()

    def test_models_equal_but_for_a_signed_zero_draw_their_own_blocks(self, draws):
        positive, negative = (GbmJumpParams(m, sigma_star=0.0, lam=0.0) for m in (0.0, -0.0))
        assert positive == negative
        assert not np.signbit(simulate_returns(positive, 1, 0)).any()
        assert np.signbit(simulate_returns(negative, 1, 0)).any()  # -0.0 + -0.0 keeps its sign

    def test_a_bad_seed_is_refused_after_an_equal_good_one(self, draws):
        model = GbmJumpParams(0.3, n_periods=5)
        simulate_returns(model, 1, 0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate_returns(model, True, 0)

    def test_other_drawers_draw_fresh_blocks(self, draws, tmp_path):
        model = GbmJumpParams(0.3, n_periods=5)
        simulate_returns(model, 1, 0)
        monte_carlo_gain_loss(make_config(), WeightSpec("constant", w=0.5), model, BLOCK, 1)
        dump_paths_csv(tmp_path / "paths.csv", model, 1, 1)
        assert draws == [(1, 0)] * 3

    def test_a_long_path_keeps_no_block(self, draws):
        # a (64, 200_000) block is 102 MB; the accessor hands out one 1.6 MB row of it
        tracemalloc.start()
        try:
            simulate_returns(GbmJumpParams(0.1, n_periods=200_000), 0, 0)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 << 20, held


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

    def test_two_point_generator_needs_horizon(self):
        model = TwoPointModel(0.1, -0.1, 0.5)
        cfg = make_config()
        with pytest.raises(ValueError, match="n_periods"):
            monte_carlo_gain_loss(cfg, WeightSpec("constant", w=0.5), model, 10, 0)

    def test_unsupported_generator_rejected(self):
        with pytest.raises(TypeError, match="unsupported generator object"):
            monte_carlo_gain_loss(make_config(), WeightSpec("constant", w=0.5), object(), 4, 0)

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

    def test_numpy_counts_are_echoed_as_ints(self):
        params = GbmJumpParams(mu_star=0.1, n_periods=10)
        spec = WeightSpec("constant", w=0.5)
        res = monte_carlo_gain_loss(make_config(), spec, params, np.int64(70), np.int64(5))
        assert (type(res.n_paths), type(res.seed)) == (int, int) and (res.n_paths, res.seed) == (70, 5)
        json.dumps(dataclasses.asdict(res))


class TestSweep:
    def test_default_grid(self):
        assert len(DEFAULT_MU_STAR_GRID) == 41
        assert DEFAULT_MU_STAR_GRID[0] == pytest.approx(-0.95)
        assert DEFAULT_MU_STAR_GRID[-1] == pytest.approx(0.95)


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

    def test_dump_streams_one_block_at_a_time(self, tmp_path):
        # the peak is one block's draws and text, whatever the path count
        params = GbmJumpParams(mu_star=0.05)
        dump_paths_csv(tmp_path / "paths.csv", params, seed=1, n_paths=1)  # one-time setup
        peaks = []
        for n_paths in (2 * BLOCK, 20 * BLOCK):
            tracemalloc.start()
            try:
                dump_paths_csv(tmp_path / "paths.csv", params, seed=1, n_paths=n_paths)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_a_failed_dump_leaves_no_file(self, tmp_path):
        # the prices pass the float range once the header is written
        params = GbmJumpParams(mu_star=0.5, sigma_star=0.0, lam=0.0, dt=1.0, n_periods=3, s0=1e308)
        with pytest.raises(ValueError, match=FLOAT_RANGE):
            dump_paths_csv(tmp_path / "paths.csv", params, 0, 2)
        assert list(tmp_path.iterdir()) == []


class TestBlockThreads:
    """The engine splits its blocks into one contiguous range per CPU of the affinity
    set; results and errors must be those of the one-CPU run, bit for bit."""

    @staticmethod
    def on_cpus(monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    SHORT = GbmJumpParams(mu_star=0.3, sigma_star=0.8, n_periods=9)
    CASES = {
        "constant": (parse_weight_spec("constant:0.8"), SHORT, {}),
        "log_ramp": (parse_weight_spec("log_ramp"), SHORT, {}),
        "ma:5": (parse_weight_spec("ma:5"), SHORT, {}),
        "clip_returns": (parse_weight_spec("constant:0.8"), SHORT, {"clip_returns": True}),
        "two-point": (
            parse_weight_spec("log_ramp"), TwoPointModel(x_up=0.05, x_down=-0.04, p_up=0.55),
            {"n_periods": 9},
        ),
        # past the group bound: a group is one block
        "long": (
            parse_weight_spec("constant:0.8"), GbmJumpParams(mu_star=0.3, sigma_star=0.8, n_periods=1100),
            {},
        ),
    }

    @settings(max_examples=40, deadline=None)
    @given(
        n_paths=st.integers(1, 700),
        seed=st.integers(0, 2**32),
        cpus=st.integers(1, 4),
        case=st.sampled_from(sorted(CASES)),
    )
    def test_every_split_gives_the_one_cpu_result(self, n_paths, seed, cpus, case):
        spec, generator, kwargs = self.CASES[case]
        config = make_config(rf=1e-4)
        results = []
        # the split runs first: a slice it failed to fill cannot hold the one-CPU values
        for count in (cpus, 1):
            with pytest.MonkeyPatch.context() as monkeypatch:
                self.on_cpus(monkeypatch, count)
                results.append(monte_carlo_gain_loss(config, spec, generator, n_paths, seed, **kwargs))
        split, one = results
        assert repr(split) == repr(one)  # bit for bit, and nan-safe

    def test_an_error_in_the_second_range_is_the_one_cpu_error(self, monkeypatch):
        # at seed 3 only block 2 of 0..3 has a return of -1: two CPUs trade it on their thread
        model = GbmJumpParams(mu_star=0.0, sigma_star=5.5, lam=0.0, dt=1.0, n_periods=40)
        spec, errors = parse_weight_spec("constant:0.8"), []
        for cpus in (1, 2):
            self.on_cpus(monkeypatch, cpus)
            before = threading.active_count()
            with pytest.raises(ValueError, match="float range") as caught:
                monte_carlo_gain_loss(make_config(), spec, model, 4 * BLOCK, 3)
            assert threading.active_count() == before
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        self.on_cpus(monkeypatch, 2)  # the first range alone succeeds
        monte_carlo_gain_loss(make_config(), spec, model, 2 * BLOCK, 3)

    @pytest.mark.parametrize("failing", [{1, 3}, {0, 5}, {4}, {2, 7}, {7}])
    def test_the_lowest_failing_block_is_raised_and_no_thread_outlives_the_call(
        self, monkeypatch, failing
    ):
        real = simulate._log_growth_block
        traded = []
        unhandled = []

        def draw(params, seed, block):
            traded.append(block)
            if block in failing:
                raise ValueError(f"block {block}")
            return real(params, seed, block)

        monkeypatch.setattr(simulate, "_log_growth_block", draw)
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        self.on_cpus(monkeypatch, 4)  # ranges 0-1, 2-3, 4-5, 6-7
        before = threading.active_count()
        with pytest.raises(ValueError, match=f"^block {min(failing)}$"):
            monte_carlo_gain_loss(
                make_config(), parse_weight_spec("constant:0.8"), GbmJumpParams(mu_star=0.1, n_periods=5),
                8 * BLOCK, 1,
            )
        assert threading.active_count() == before and unhandled == []
        # every block below the lowest failure was traded, as the loop in order trades them
        assert set(range(min(failing) + 1)) <= set(traded)

    def test_an_interrupt_of_the_calling_thread_stops_and_joins_the_others(self, monkeypatch):
        real = simulate._log_growth_block
        traded = []

        def draw(params, seed, block):
            traded.append(block)
            if block == 1:  # the calling thread's second block
                raise KeyboardInterrupt
            return real(params, seed, block)

        monkeypatch.setattr(simulate, "_log_growth_block", draw)
        self.on_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            monte_carlo_gain_loss(
                make_config(), parse_weight_spec("constant:0.8"), GbmJumpParams(mu_star=0.1),
                400 * BLOCK, 1,
            )
        assert threading.active_count() == before
        assert len(traded) < 100  # the other range, blocks 200..399, stopped between blocks

    def test_an_interrupt_while_the_calling_thread_joins_stops_and_joins_the_others(
        self, monkeypatch
    ):
        real_draw, real_join = simulate._log_growth_block, threading.Thread.join
        joining = threading.Event()
        traded = []

        def draw(params, seed, block):
            if block >= 200:  # the other range waits until the calling thread joins it
                assert joining.wait(30)
            traded.append(block)
            return real_draw(params, seed, block)

        def join(thread, timeout=None):
            if not joining.is_set():
                joining.set()
                raise KeyboardInterrupt
            return real_join(thread, timeout)

        monkeypatch.setattr(simulate, "_log_growth_block", draw)
        monkeypatch.setattr(threading.Thread, "join", join)
        self.on_cpus(monkeypatch, 2)  # ranges 0..199 and 200..399
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            monte_carlo_gain_loss(
                make_config(), parse_weight_spec("constant:0.8"), GbmJumpParams(mu_star=0.1, n_periods=5),
                400 * BLOCK, 1,
            )
        assert threading.active_count() == before
        assert len(traded) < 300  # the other range stopped between groups

    @pytest.mark.parametrize("n_paths", [1, BLOCK])
    def test_one_block_starts_no_thread(self, monkeypatch, n_paths):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        self.on_cpus(monkeypatch, 4)
        monte_carlo_gain_loss(
            make_config(), parse_weight_spec("constant:0.8"), GbmJumpParams(mu_star=0.1, n_periods=5),
            n_paths, 1,
        )


class TestGroupedFold:
    """The engine folds the legs of a group of blocks in one call.  Errors must stay
    those of the lowest failing block, and memory that of a fold per block past the
    group bound."""

    SPEC = parse_weight_spec("constant:0.8")

    @staticmethod
    def on_cpus(monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    @staticmethod
    def draws_failing_in_block_1(monkeypatch, error):
        # block 0 draws a row whose legs overflow (a nan total), block 1 raises error
        real = simulate._log_growth_block

        def draw(params, seed, block):
            if block == 1:
                raise error
            g = real(params, seed, block)
            if block == 0:
                g[5] = 400.0
            return g

        monkeypatch.setattr(simulate, "_log_growth_block", draw)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_lower_blocks_fold_error_comes_before_a_later_draw_error(self, monkeypatch, cpus):
        self.draws_failing_in_block_1(monkeypatch, ValueError("block 1"))
        self.on_cpus(monkeypatch, cpus)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^the account value leaves the float range"):
            monte_carlo_gain_loss(
                make_config(), self.SPEC, GbmJumpParams(mu_star=0.1, n_periods=5), 8 * BLOCK, 1
            )
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_an_interrupt_propagates_without_folding_the_blocks_before_it(self, monkeypatch, cpus):
        self.draws_failing_in_block_1(monkeypatch, KeyboardInterrupt())
        self.on_cpus(monkeypatch, cpus)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            monte_carlo_gain_loss(
                make_config(), self.SPEC, GbmJumpParams(mu_star=0.1, n_periods=5), 8 * BLOCK, 1
            )
        assert threading.active_count() == before

    def peak(self, monkeypatch, cpus, params, n_paths):
        self.on_cpus(monkeypatch, cpus)
        monte_carlo_gain_loss(make_config(), self.SPEC, params, 1, 1)  # one-time setup
        tracemalloc.start()
        try:
            monte_carlo_gain_loss(make_config(), self.SPEC, params, n_paths, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_long_horizon_folds_one_block_at_a_time(self, monkeypatch):
        n = 20_000
        matrix = BLOCK * (n + 1) * 8  # one block's leg
        # a fold per block holds a block's draws and its two legs; a group of four
        # blocks would hold eight legs
        no_jumps = GbmJumpParams(mu_star=0.1, lam=0.0, n_periods=n)
        assert self.peak(monkeypatch, 1, no_jumps, 4 * BLOCK) < 4 * matrix
        # a draw with jumps takes about four matrices of its own: the legs of the block
        # before are freed by then, as a fold per block frees them
        params = GbmJumpParams(mu_star=0.1, n_periods=n)
        tracemalloc.start()
        try:
            simulate._log_growth_block(params, 1, 0)
            draw = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert self.peak(monkeypatch, 1, params, 4 * BLOCK) < draw + (1 << 20)

    def test_the_mc_static_shape_holds_one_group_per_cpu(self, monkeypatch):
        n_paths, n = 20_000, 252
        group_legs = 2 * simulate._GROUP * BLOCK * (n + 1) * 8
        block_draws = BLOCK * n * 8
        peak = self.peak(monkeypatch, 2, GbmJumpParams(mu_star=0.3), n_paths)
        # the gain and compensator arrays, then per CPU one group's legs and one block's draws
        assert peak < 2 * 8 * n_paths + 2 * (group_legs + block_draws) + (1 << 20)
