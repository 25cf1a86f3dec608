import functools
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from ballbot_lab import cli, harness
from ballbot_lab.control import MpcController, SmoothStepRef, design_lqr, smooth_step
from ballbot_lab.errors import (ConfigError, IdentificationFailedError,
                                MassMatrixSingularError, PlantFellOverError)
from ballbot_lab.harness import (TELEMETRY_COLUMNS, TELEMETRY_DTYPE,
                                 config_hash, load_config, run_balance,
                                 run_identify, run_lqr, run_track,
                                 write_telemetry_csv)
from ballbot_lab.numerics import zoh_discretize
from ballbot_lab.plant import Plant, PhysicalParams, build_linear_ss, linearize
from ballbot_lab.qp import QpSettings

from oracles import dot_order_bound, plain_dot


INF = float("inf")


def quiet_config(**run_overrides):
    cfg = load_config()
    cfg["run"]["noise"] = False
    for k, v in run_overrides.items():
        cfg["run"][k] = v
    return cfg


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config()
        assert cfg["run"]["Ts_inner"] == 0.005
        assert cfg["mpc"]["N"] == 40

    def test_unknown_key_reports_path(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"mpc": {"horizon": 10}}))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert "mpc.horizon" in str(exc.value)

    def test_bad_mode(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"plant": {"mode": "rocket"}}))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_non_integral_rate_ratio(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"mpc": {"Ts_mpc": 0.012}}))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_hash_stable_and_sensitive(self):
        cfg = load_config()
        h1 = config_hash(cfg)
        assert h1 == config_hash(load_config())
        cfg["run"]["seed"] = 1
        assert config_hash(cfg) != h1

    def test_bad_physical_section(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"plant": {"mode": "nonlinear",
                                           "physical": {"b1": 1.0, "bogus": 2.0}}}))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert "plant.physical" in str(exc.value)

    def test_bad_terminal_weight_length(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"mpc": {"Q_N": [1.0, 2.0]}}))
        with pytest.raises(ConfigError):
            load_config(p)

    @pytest.mark.parametrize("mpc", [{"R": -5.0}, {"Q": [1000.0, -1.0, 0.0, 0.0]},
                                     {"Q_N": [1000.0, 0.0, 0.0, -1e-3]}, {"R": 0.0}])
    def test_nonpositive_mpc_weights_rejected(self, mpc):
        # a negative weight makes the MPC cost nonconvex; the QP would
        # return a stationary point, not a minimizer. R = 0 takes away the
        # strict convexity (P >= 2R I) that the dual active-set method needs
        with pytest.raises(ConfigError) as exc:
            load_config(overrides={"mpc": mpc})
        assert f"mpc.{next(iter(mpc))}" in str(exc.value)

    def test_sensor_period_must_equal_inner_tick(self, tmp_path, capsys):
        # the sensor is read once per tick at the loop's period: no key sets
        # its own, and a config that still does names an unknown key
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"run": {"Ts_inner": 0.01}}))
        assert load_config(p)["run"]["Ts_inner"] == 0.01
        p.write_text(json.dumps({"plant": {"sensor": {"Ts_sensor": 0.005}}}))
        assert cli.main(["track", "--config", str(p), "--out", str(tmp_path / "out")]) == 2
        assert "'plant.sensor.Ts_sensor': unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # at 10 ms: the measured velocity integrates to the measured travel
        cfg = load_config(overrides={"run": {"Ts_inner": 0.01, "theta0_deg": 8.0}})
        tel = run_lqr(cfg, duration=3.0).telemetry
        travel = tel["y_meas_cm"][-1] - tel["y_meas_cm"][0]
        assert abs(travel) >= 0.4  # eight trackball counts or more
        assert abs(np.sum(tel["ydot_meas_cms"][1:]) * 0.01 - travel) <= 1e-9


class TestBalance:
    def test_zero_tilt_stays_zero(self):
        cfg = quiet_config(theta0_deg=0.0)
        res = run_balance(cfg, duration=2.0)
        assert not res.summary["aborted"]
        assert res.summary["metrics"]["max_abs_theta_deg"] == 0.0
        assert all(row["u_y_ticks"] == 0.0 for row in res.telemetry)

    def test_two_degrees_balances(self):
        cfg = quiet_config(theta0_deg=2.0)
        res = run_balance(cfg)
        assert not res.summary["aborted"]
        assert res.summary["metrics"]["balanced_after_10s"]
        assert abs(res.summary["metrics"]["final_theta_x_deg"]) < 1e-4

    def test_run_without_a_tick_after_ten_seconds_is_not_judged(self):
        # 2 s from 2 deg: no tick starts after 10 s, so there is nothing
        # to check, which is neither a pass nor a fail
        res = run_balance(quiet_config(theta0_deg=2.0), duration=2.0)
        assert not res.summary["aborted"]
        assert res.summary["metrics"]["balanced_after_10s"] is None

    def test_beyond_envelope_aborts(self):
        # the linear loop recovers from any sub-envelope tilt, so the abort
        # path is exercised from beyond the envelope
        cfg = quiet_config(theta0_deg=50.0)
        res = run_balance(cfg, duration=2.0)
        assert res.summary["aborted"]
        assert res.summary["abort_time_s"] is not None
        assert "fell over" in res.summary["abort_reason"]

    def test_beyond_envelope_logs_the_starting_tick_only(self):
        # the first step of the y plane leaves the envelope, after the
        # starting tick was logged
        res = run_balance(quiet_config(theta0_deg=50.0), duration=2.0)
        assert len(res.telemetry) == 1
        assert res.telemetry[0]["theta_x_deg"] == 50.0
        assert res.telemetry[0]["t_s"] == 0.0

    def test_beyond_envelope_reports_the_starting_tilt(self):
        # no tick completes, so the max tilt is the tilt the run started from
        res = run_balance(quiet_config(theta0_deg=50.0), duration=2.0)
        assert res.summary["metrics"]["max_abs_theta_deg"] == 50.0

    def test_summary_written_for_aborted_runs(self):
        cfg = quiet_config(theta0_deg=50.0)
        res = run_balance(cfg, duration=2.0)
        assert res.summary["experiment"] == "balance"
        assert res.summary["config_hash"] == config_hash(cfg)


class TestIdentify:
    def test_noiseless_recovery(self):
        cfg = quiet_config()
        res = run_identify(cfg, duration=60.0)
        assert not res.summary["aborted"]
        rel = np.array(res.summary["metrics"]["rel_error_vs_truth"])
        assert np.max(rel) < 1e-3
        fits = res.summary["metrics"]["fit_rates_percent"]
        assert all(v > 99.9 for v in fits.values())

    def test_identified_model_document(self):
        cfg = quiet_config()
        res = run_identify(cfg, duration=60.0)
        doc = res.extra["model"]
        assert len(doc["p_hat"]) == 8
        A = np.array(doc["A"])
        assert A.shape == (4, 4)
        assert np.all(A[:, 0] == 0.0)  # augmented integrator layout

    def test_model_diagnostics_keep_the_one_start_entry(self):
        # the benchmark reads diagnostics.starts of identified_model.json on
        # every identify experiment (perfbench/worker.py:234) and each
        # entry's iterations and cost (perfbench/run.py:186): dropping the
        # list or a key fails every identify benchmark run
        res = run_identify(quiet_config(), duration=5.0)
        doc = res.extra["model"]
        starts = doc["diagnostics"]["starts"]
        assert isinstance(starts, list) and len(starts) == 1
        assert set(starts[0]) == {"start", "cost", "iterations", "converged"}
        assert starts[0]["start"] == 0
        assert starts[0]["cost"] == doc["final_cost"]
        assert starts[0]["iterations"] == doc["iterations"]
        assert starts[0]["converged"] == doc["converged"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_noisy_fit_rejects_overflowing_candidates_quietly(self):
        # at this seed and length an LM trial step lands on a candidate
        # whose squared residual norm overflows; it must be rejected as
        # divergent without a RuntimeWarning
        cfg = load_config(overrides={"run": {"seed": 1}})
        assert cfg["run"]["noise"]
        res = run_identify(cfg, duration=120.0)
        assert not res.summary["aborted"]
        assert np.isfinite(res.summary["metrics"]["final_cost"])

    def test_max_tilt_is_the_true_state(self, tmp_path):
        # the summary's tilt peak is the logged true tilt, as in balance and
        # track, not the noisy measurement
        rc = cli.main(["identify", "--out", str(tmp_path), "--duration", "20"])
        assert rc == 0
        summary = json.loads((tmp_path / "identify_summary.json").read_text())
        csv = np.genfromtxt(tmp_path / "identify_telemetry.csv", delimiter=",",
                            skip_header=1, names=True)
        true_peak = np.max(np.abs(csv["theta_x_deg"]))
        measured_peak = np.max(np.abs(csv["theta_x_meas_deg"]))
        reported = summary["metrics"]["max_abs_theta_deg"]
        assert abs(reported - true_peak) <= 1e-8 * true_peak
        assert abs(reported - measured_peak) > 1e-3

    def test_excitation_on_tracking_plane_only(self):
        cfg = quiet_config()
        res = run_identify(cfg, duration=20.0)
        rows = res.telemetry
        assert any(abs(r["d_cms"]) > 0.1 for r in rows)
        # the mirror plane stays at rest without noise
        assert all(abs(r["x_cm"]) < 1e-12 for r in rows)


class TestLqr:
    def test_balances_from_two_degrees(self):
        cfg = quiet_config(theta0_deg=2.0)
        res = run_lqr(cfg)
        m = res.summary["metrics"]
        assert m["theta_settle_time_s"] is not None
        assert m["theta_settle_time_s"] < 5.0
        assert m["spectral_radius"] < 1.0
        # position is left to drift a little and is not pulled back fast
        assert abs(m["final_y_cm"]) > 1e-4

    def test_zero_state_zero_input(self):
        cfg = quiet_config(theta0_deg=0.0)
        res = run_lqr(cfg, duration=1.0)
        assert all(abs(row["u_y_ticks"]) < 1e-12 for row in res.telemetry)

    @pytest.mark.parametrize("runner", [run_lqr, run_track])
    def test_inputs_sum_in_the_documented_order(self, runner):
        # each tick's LQR input -K x of each plane's measurement is the
        # left-to-right float sum bit for bit, and the BLAS product, whose
        # order the kernel picks, within two summation orders' error bound.
        # The y plane's is logged as u_lqr_y_ticks, the mirror plane's is
        # its command.
        cfg = load_config()
        res = runner(cfg, duration=2.0)
        k = harness._design(cfg, None).K[0]
        for row in res.telemetry:
            for x, u in ((row[["y_meas_cm", "theta_x_meas_deg", "ydot_meas_cms",
                               "thetadot_x_meas_degs"]], row["u_lqr_y_ticks"]),
                         (row[["x_meas_cm", "theta_y_meas_deg", "xdot_meas_cms",
                               "thetadot_y_meas_degs"]], row["u_x_ticks"])):
                x = list(x.item())
                assert u == -plain_dot(k, x)
                assert abs(u + k.dot(x)) <= dot_order_bound(k, x)


class TestTrack:
    def test_zero_amplitude_stays_at_equilibrium(self):
        cfg = quiet_config()
        cfg["reference"]["amplitude"] = 0.0
        res = run_track(cfg, duration=5.0)
        m = res.summary["metrics"]
        assert m["max_abs_theta_deg"] < 1e-6
        assert m["constraint_violation_count"] == 0

    def test_multirate_bookkeeping(self):
        cfg = quiet_config()
        cfg["reference"]["t0"] = 0.5
        res = run_track(cfg, duration=4.0)
        raw = [row["u_mpc_raw_ticks"] for row in res.telemetry]
        filt = [row["u_mpc_filt_ticks"] for row in res.telemetry]
        changes = [k for k in range(1, len(raw)) if raw[k] != raw[k - 1]]
        assert all(k % 20 == 0 for k in changes)
        # at least one mpc period actually changed the command
        assert changes
        # once the command is nonzero the filter output moves every tick
        active = range(int(1.0 / 0.005), int(3.0 / 0.005))
        filt_changes = sum(1 for k in active if filt[k] != filt[k - 1])
        assert filt_changes == len(active)

    def test_latency_option_delays_application(self):
        cfg = quiet_config()
        cfg["run"]["latency_mpc_periods"] = 1
        res = run_track(cfg, duration=2.0)
        raw = [row["u_mpc_raw_ticks"] for row in res.telemetry]
        assert all(v == 0.0 for v in raw[:20])  # first period runs on zero

    @pytest.mark.parametrize("latency", [0, 1])
    def test_each_solve_gets_its_ticks_preview(self, monkeypatch, latency):
        # the previews are built before the loop; solve i, at tick k = 20 i,
        # receives exactly the preview a per-tick smooth_step would give and
        # the measurement logged at that tick
        cfg = load_config()
        cfg["run"]["latency_mpc_periods"] = latency
        cfg["reference"]["t0"] = 0.5
        seen = []
        step = MpcController.mpc_step

        def recording_step(ctrl, x0, ref):
            seen.append((list(x0), np.array(ref)))
            return step(ctrl, x0, ref)

        monkeypatch.setattr(MpcController, "mpc_step", recording_step)
        res = run_track(cfg, duration=3.0)
        ctrl = res.extra["controller"]
        ref_spec = SmoothStepRef(t0=0.5, amplitude=cfg["reference"]["amplitude"],
                                 T_rise=cfg["reference"]["T_rise"])
        Ts = cfg["run"]["Ts_inner"]
        m = int(round(cfg["mpc"]["Ts_mpc"] / Ts))
        preview_lag = np.arange(ctrl.cfg.N + 1) * ctrl.cfg.Ts_mpc
        assert len(seen) == 30
        meas = ["y_meas_cm", "theta_x_meas_deg", "ydot_meas_cms", "thetadot_x_meas_degs"]
        for i, (x0, ref) in enumerate(seen):
            k = i * m
            assert_array_equal(ref, smooth_step(ref_spec, k * Ts + preview_lag))
            assert x0 == [res.telemetry[k][c] for c in meas]
        # the previews cover the rise, not just the two plateaus
        y_previews = np.array([ref[:, 0] for _, ref in seen])
        assert np.any((y_previews > 0.0) & (y_previews < ref_spec.amplitude))

    def test_plane_decoupling(self):
        cfg_a = quiet_config()
        cfg_b = quiet_config()
        cfg_b["reference"]["amplitude"] = 5.0
        ra = run_track(cfg_a, duration=3.0)
        rb = run_track(cfg_b, duration=3.0)
        for rowa, rowb in zip(ra.telemetry, rb.telemetry):
            assert rowa["x_cm"] == rowb["x_cm"]
            assert rowa["theta_y_deg"] == rowb["theta_y_deg"]

    def test_every_solve_converges_within_bound(self):
        # default config (noise on), truth model, through the step onset
        res = run_track(load_config(), duration=8.0)
        m = res.summary["metrics"]
        assert m["solver_iterations_max"] <= 25
        assert m["degraded_event_count"] == 0
        assert m["infeasible_event_count"] == 0

    def test_unconstrained_solves_counted(self):
        # default config (noise on), 80 solves: from 3.3 s to 5.7 s the
        # 4 s preview of the rising step puts a box in play (25 solves);
        # every other solve returns its unconstrained optimum at once
        m = run_track(load_config(), duration=8.0).summary["metrics"]
        assert m["unconstrained_solve_count"] == 55
        assert m["solver_iterations_max"] > 0

    def test_capped_solves_reported(self, monkeypatch):
        capped = functools.partial(MpcController, settings=QpSettings(max_iter=2))
        monkeypatch.setattr(harness, "MpcController", capped)
        cfg = quiet_config()
        # a step from t = 0 puts a box in play on every solve, so none is
        # returned unconstrained before the cap
        cfg["reference"]["t0"] = 0.0
        cfg["reference"]["amplitude"] = 50.0
        res = run_track(cfg, duration=1.0)
        m = res.summary["metrics"]
        assert m["solver_iterations_max"] == 2
        assert m["degraded_event_count"] == 10  # every solve of 1 s at 10 Hz

    def test_correction_clamped_to_box(self, monkeypatch):
        solve = MpcController.mpc_step

        def overshoot(self, x0, ref):
            u, info = solve(self, x0, ref)
            return u + 2.0 * self.cfg.u_max, info

        monkeypatch.setattr(MpcController, "mpc_step", overshoot)
        cfg = quiet_config()
        cfg["mpc"]["u_max"] = 50.0
        res = run_track(cfg, duration=1.0)
        m = res.summary["metrics"]
        assert m["clamped_event_count"] == 10
        assert m["max_abs_u_mpc_ticks"] == 50.0
        assert all(row["u_mpc_raw_ticks"] == 50.0 for row in res.telemetry)

    @pytest.mark.parametrize("noise", [True, False], ids=["noisy", "noiseless"])
    def test_small_step_that_is_not_reached_is_not_settled(self, noise):
        # a 1 cm step ends about 0.9 cm short: every error stays above the
        # 5 % band (0.05 cm), where an absolute 1 cm band read it as settled
        cfg = quiet_config(noise=noise)
        cfg["reference"]["amplitude"] = 1.0
        m = run_track(cfg).summary["metrics"]
        assert m["final_y_cm"] < 0.5
        assert m["settling_time_s"] is None

    def test_track_with_identified_model(self):
        cfg = quiet_config()
        ident = run_identify(cfg, duration=40.0)
        lp = ident.extra["id_result"].linear_params(r=cfg["plant"]["linear"]["r"])
        res = run_track(cfg, duration=3.0, model_lp=lp)
        assert not res.summary["aborted"]
        assert res.summary["metrics"]["infeasible_event_count"] == 0


class TestSettlingTime:
    @staticmethod
    def brute_force(t, err, t0, band):
        # the definition: the first tick at or after t0 from which every
        # remaining error is below the band
        for idx in np.nonzero(t >= t0)[0]:
            if err[idx] < band and np.all(err[idx:] < band):
                return float(t[idx] - t0)
        return None

    @pytest.mark.parametrize("err, expected", [
        (np.full(40, 2.0), None),                              # never settles
        (np.concatenate([np.full(10, 3.0), np.full(30, 0.5)]), 0.0),  # from t0
        (np.array([3.0] * 12 + [0.5, 0.2, 1.0, 0.9, 2.0, 0.1, 0.99]
                  + [0.3] * 21), 0.035),                      # re-exits the band
        (np.array([0.5] * 30 + [np.nan] + [0.5] * 9), 0.105),  # NaN counts as outside
        (np.array([0.5] * 39 + [1.0]), None),                  # leaves on the last tick
    ])
    def test_matches_brute_force(self, err, expected):
        t = np.arange(len(err)) * 0.005
        t0 = 0.05
        got = harness._settling_time(t, err, t0, 1.0)
        assert got == self.brute_force(t, err, t0, 1.0)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_on_dithering_error(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            err = np.abs(1.0 + 0.3 * rng.standard_normal(300) - np.linspace(0, 0.5, 300))
            t = np.arange(300) * 0.005
            for band in (0.6, 1.0):
                assert (harness._settling_time(t, err, 0.2, band)
                        == self.brute_force(t, err, 0.2, band))


def fall_on_call(monkeypatch, n):
    """Make Plant.step raise on its n-th call; return the states it returned.

    The tick loop steps the y plane first, so the odd calls (even list
    indices) are the y plane and the even calls the mirror plane.
    """
    step = Plant.step
    calls = []
    returned = []

    def step_then_fall(plant, x, u):
        calls.append(1)
        if len(calls) == n:
            raise PlantFellOverError(plant.t + plant.Ts, np.asarray(x))
        returned.append(step(plant, x, u))
        return returned[-1]

    monkeypatch.setattr(Plant, "step", step_then_fall)
    return returned


class TestAbortTruncation:
    # Plant.step raises on its 11th call. Both planes step once per tick,
    # so that is the y plane of tick 5, whose row was already logged.
    FAIL_ON_CALL = 11
    LOGGED_TICKS = 6

    @pytest.fixture
    def falls_over(self, monkeypatch):
        fall_on_call(monkeypatch, self.FAIL_ON_CALL)

    @pytest.mark.parametrize("runner", [run_balance, run_identify, run_lqr,
                                        run_track])
    def test_telemetry_cut_to_logged_ticks(self, runner, falls_over):
        res = runner(quiet_config(), duration=1.0)
        assert res.summary["aborted"]
        assert len(res.telemetry) == self.LOGGED_TICKS
        assert res.telemetry[-1]["t_s"] == (self.LOGGED_TICKS - 1) * 0.005

    @pytest.mark.parametrize("name", ["balance", "identify", "lqr", "track"])
    def test_cli_csv_has_one_row_per_logged_tick(self, name, falls_over,
                                                 tmp_path):
        rc = cli.main([name, "--out", str(tmp_path), "--duration", "1",
                       "--noise", "off"])
        assert rc == 1
        lines = (tmp_path / f"{name}_telemetry.csv").read_text().splitlines()
        data = lines[2:]
        assert len(data) == self.LOGGED_TICKS
        assert float(data[-1].split(",")[0]) == (self.LOGGED_TICKS - 1) * 0.005

    # Call 11 fails on the y plane of tick 5; call 12 on the mirror plane of
    # tick 5, after the y plane has already stepped. Either way ticks 0-4 are
    # the completed ones, their states are the logged rows 1-5, and every
    # final state is the state after tick 4 (returned[0::2][4] for the y
    # plane): the y step of the aborted tick is not part of the run.
    @pytest.mark.parametrize("fail_on", [11, 12])
    def test_balance_summary_covers_completed_ticks(self, monkeypatch, fail_on):
        returned = fall_on_call(monkeypatch, fail_on)
        res = run_balance(quiet_config(), duration=1.0)
        tel, m = res.telemetry, res.summary["metrics"]
        assert len(tel) == self.LOGGED_TICKS
        assert m["final_theta_x_deg"] == returned[0::2][4][1] == tel[-1]["theta_x_deg"]
        assert m["final_theta_y_deg"] == returned[1::2][4][1] == tel[-1]["theta_y_deg"]
        assert m["max_abs_theta_deg"] == max(np.max(np.abs(tel["theta_x_deg"][1:])),
                                             np.max(np.abs(tel["theta_y_deg"][1:])))
        assert m["balanced_after_10s"] is False

    @pytest.mark.parametrize("fail_on", [11, 12])
    def test_lqr_summary_reads_y_plane_at_abort(self, monkeypatch, fail_on):
        returned = fall_on_call(monkeypatch, fail_on)
        res = run_lqr(quiet_config(), duration=1.0)
        m = res.summary["metrics"]
        y_state = returned[0::2][4]
        assert np.array_equal(y_state, [res.telemetry[-1][c] for c in
                                        ("y_cm", "theta_x_deg", "ydot_cms",
                                         "thetadot_x_degs")])
        assert m["final_y_cm"] == y_state[0]
        assert m["final_theta_x_deg"] == y_state[1]
        assert m["theta_settle_time_s"] is None

    # Call 1 fails on the y plane of tick 0, call 2 on the mirror plane of
    # tick 0 after the y plane has stepped: no tick completes, so every
    # final state is the logged initial state.
    @pytest.mark.parametrize("fail_on", [1, 2])
    @pytest.mark.parametrize("runner, finals", [
        (run_balance, {"final_theta_x_deg": 2.0, "final_theta_y_deg": 2.0}),
        (run_lqr, {"final_y_cm": 0.0, "final_theta_x_deg": 2.0}),
    ], ids=["balance", "lqr"])
    def test_first_tick_abort_reports_initial_state(self, monkeypatch, fail_on,
                                                    runner, finals):
        fall_on_call(monkeypatch, fail_on)
        res = runner(quiet_config(theta0_deg=2.0), duration=1.0)
        assert res.summary["aborted"]
        assert len(res.telemetry) == 1
        assert {k: res.summary["metrics"][k] for k in finals} == finals

    @pytest.mark.parametrize("fail_on", [1, 2])
    def test_track_first_tick_abort_reports_starting_tick(self, monkeypatch,
                                                          fail_on):
        # no tick completes: the maxima and the final read the state tick 0
        # started from, with the MPC input of that tick
        cfg = load_config()
        cfg["reference"]["t0"] = 0.0
        fall_on_call(monkeypatch, fail_on)
        res = run_track(cfg, duration=1.0)
        tel, m = res.telemetry, res.summary["metrics"]
        assert res.summary["aborted"]
        assert len(tel) == 1
        assert m["final_y_cm"] == tel[0]["y_cm"]
        for key, col in (("max_abs_theta_deg", "theta_x_deg"),
                         ("max_abs_ydot_cms", "ydot_cms"),
                         ("max_abs_thetadot_degs", "thetadot_x_degs")):
            assert m[key] == abs(tel[0][col])
        assert m["max_abs_u_mpc_ticks"] == abs(tel[0]["u_mpc_raw_ticks"]) > 0.0

    @pytest.mark.parametrize("fail_on", [11, 12])
    def test_track_summary_covers_completed_ticks(self, monkeypatch, fail_on):
        # noise on and a reference from t = 0 make every state differ from
        # the next; the tight tilt-rate box makes some ticks violate it
        cfg = load_config()
        cfg["reference"]["t0"] = 0.0
        cfg["mpc"]["thetadot_max"] = 1e-3
        returned = fall_on_call(monkeypatch, fail_on)
        res = run_track(cfg, duration=1.0)
        tel, m = res.telemetry, res.summary["metrics"]
        assert len(tel) == self.LOGGED_TICKS
        after = tel[1:]          # tracking plane after ticks 0-4
        during = tel[:-1]        # MPC input and reference of ticks 0-4
        # final_y_cm is y after the last completed tick, so a mirror-plane
        # abort leaves out the y step of the aborted tick
        assert m["final_y_cm"] == after[-1]["y_cm"]
        if fail_on == 11:
            assert m["final_y_cm"] == returned[0::2][-1][0]
        for key, col in (("max_abs_theta_deg", "theta_x_deg"),
                         ("max_abs_ydot_cms", "ydot_cms"),
                         ("max_abs_thetadot_degs", "thetadot_x_degs")):
            assert m[key] == np.max(np.abs(after[col]))
        assert m["max_abs_u_mpc_ticks"] == np.max(np.abs(during["u_mpc_raw_ticks"]))
        violations = ((np.abs(after["theta_x_deg"]) > cfg["mpc"]["theta_max"])
                      | (np.abs(after["ydot_cms"]) > cfg["mpc"]["ydot_max"])
                      | (np.abs(after["thetadot_x_degs"]) > cfg["mpc"]["thetadot_max"])
                      | (np.abs(during["u_mpc_raw_ticks"]) > cfg["mpc"]["u_max"]))
        assert m["constraint_violation_count"] == np.count_nonzero(violations) > 0
        cost = np.sum((after["y_cm"] - during["y_ref_cm"]) ** 2) * 0.005
        assert m["tracking_cost"] == pytest.approx(cost, rel=1e-12, abs=0.0)
        assert cost > 0.0


class TestNonFiniteState:
    """A plant step that is not finite, or that meets a singular mass
    matrix, ends the run as a fall does: exit 1, every output written, the
    reason and the tick's end time in the summary."""

    # Plant.step's 9th call, the y plane's step of tick 4, returns its state
    # with one entry made NaN. The y plane's step of tick 5 takes it, so
    # ticks 0-5 are logged and the run ends at 6 ticks. Noise is off: the
    # trackball's counter, like the hardware one, cannot count a NaN, and
    # in a run no state reaches the sensor before a step has checked it.
    CORRUPT_CALL = 9

    def run_balance_cli(self, tmp_path, mode):
        rc = cli.main(["balance", "--plant", mode, "--noise", "off", "--duration", "1",
                       "--out", str(tmp_path)])
        assert rc == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "balance_summary.json", "balance_telemetry.csv"]
        summary = json.loads((tmp_path / "balance_summary.json").read_text())
        assert summary["aborted"]
        rows = (tmp_path / "balance_telemetry.csv").read_text().splitlines()[2:]
        return summary, len(rows)

    @pytest.mark.parametrize("mode", ["linear", "nonlinear"])
    @pytest.mark.parametrize("slot", range(4))
    def test_nan_state_aborts_with_outputs(self, tmp_path, monkeypatch, mode, slot):
        step = Plant.step
        calls = []

        def corrupting_step(plant, x, u):
            xn = step(plant, x, u)
            calls.append(1)
            if len(calls) == self.CORRUPT_CALL:
                xn[slot] = float("nan")
            return xn

        monkeypatch.setattr(Plant, "step", corrupting_step)
        summary, n_rows = self.run_balance_cli(tmp_path, mode)
        assert summary["abort_reason"].startswith("non-finite")
        assert summary["abort_time_s"] == 6 * 0.005
        assert n_rows == 6

    def test_singular_mass_matrix_aborts_with_outputs(self, tmp_path, monkeypatch):
        def singular(pp, x, tau):
            raise MassMatrixSingularError(f"mass matrix singular at theta={x[1]} deg")

        monkeypatch.setattr("ballbot_lab.plant.nonlinear_dynamics", singular)
        summary, n_rows = self.run_balance_cli(tmp_path, "nonlinear")
        assert summary["abort_reason"].startswith("mass matrix singular")
        assert summary["abort_time_s"] == 0.005
        assert n_rows == 1


class TestNonlinearPlant:
    def test_track_and_lqr_run_on_the_rigid_body_model(self):
        cfg = load_config(overrides={"plant": {"mode": "nonlinear"}})
        runs = [(run_track(cfg, duration=2.0), run_lqr(cfg, duration=2.0))
                for _ in range(2)]
        track, lqr = runs[0]
        assert not track.summary["aborted"] and not lqr.summary["aborted"]
        assert len(track.telemetry) == len(lqr.telemetry) == 400
        # designed on the ZOH of the linearized reference rigid body
        dss = zoh_discretize(build_linear_ss(linearize(PhysicalParams.reference())),
                             cfg["run"]["Ts_inner"])
        K = design_lqr(dss, np.diag(cfg["lqr"]["Q"]), [[cfg["lqr"]["R"]]]).K
        assert np.array_equal(lqr.extra["lqr"].K, K)
        for first, second in zip(runs[0], runs[1]):
            assert first.telemetry.tobytes() == second.telemetry.tobytes()


class TestSweep:
    def test_over_excitation_sweep(self):
        # the noiseless identification loop at three excitation scales: the
        # usable ones keep it upright with max |theta| <= 3 deg
        sweep = {}
        for alpha in (0.5, 1.0, 1.5):
            cfg = quiet_config()
            cfg["excitation"]["alpha"] = alpha
            tel, states, abort, _ = harness._identification_loop(cfg, 10.0)
            theta = harness._after_steps(tel, 0, states[0], abort)[:, 1]
            sweep[alpha] = (float(np.max(np.abs(theta))), abort is not None)
        usable = [a for a, (tilt, fell) in sweep.items() if not fell and tilt <= 3.0]
        assert max(usable) >= 1.0
        assert all(tilt <= 3.0 for a, (tilt, _) in sweep.items() if a <= 1.0)


class TestOutputs:
    def test_csv_format(self, tmp_path):
        cfg = quiet_config(theta0_deg=1.0)
        res = run_balance(cfg, duration=0.05)
        path = tmp_path / "t.csv"
        write_telemetry_csv(path, res.telemetry, config_hash(cfg))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        header = lines[1].split(",")
        assert header == harness.TELEMETRY_COLUMNS
        assert "theta_x_deg" in header
        assert len(lines) == 2 + len(res.telemetry)

    @pytest.mark.parametrize("n_rows", [0, 1, harness._CSV_CHUNK_ROWS,
                                        harness._CSV_CHUNK_ROWS + 5])
    def test_csv_values_match_per_value_format(self, n_rows, tmp_path):
        edge = [-0.0, 5e-324, 1e21, 0.1 + 0.2, 123456789012.0,
                float("nan"), float("inf"), float("-inf"), 1.0 / 3.0, -2.5e-7]
        flat = np.resize(np.array(edge), n_rows * len(TELEMETRY_COLUMNS))
        tel = np.zeros(n_rows, dtype=TELEMETRY_DTYPE)
        for j, c in enumerate(TELEMETRY_COLUMNS):
            tel[c] = flat[j::len(TELEMETRY_COLUMNS)]
        path = tmp_path / "edge.csv"
        write_telemetry_csv(path, tel, "abc")
        expected = ["# config_hash=abc", ",".join(TELEMETRY_COLUMNS)]
        expected += [",".join(f"{v:.9g}" for v in row.tolist()) for row in tel]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_csv_rejects_other_layouts(self, tmp_path):
        with pytest.raises(ValueError):
            write_telemetry_csv(tmp_path / "x.csv", np.zeros((3, 29)), "abc")

    def test_csv_determinism(self, tmp_path):
        outs = []
        for i in (1, 2):
            cfg = load_config()
            cfg["run"]["theta0_deg"] = 1.0
            res = run_balance(cfg, duration=1.0)
            p = tmp_path / f"run{i}.csv"
            write_telemetry_csv(p, res.telemetry, config_hash(cfg))
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]


class TestCli:
    def test_balance_subcommand(self, tmp_path):
        rc = cli.main(["balance", "--out", str(tmp_path), "--duration", "1",
                       "--noise", "off"])
        assert rc == 0
        assert (tmp_path / "balance_telemetry.csv").exists()
        summary = json.loads((tmp_path / "balance_summary.json").read_text())
        assert summary["experiment"] == "balance"
        assert not summary["aborted"]

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        rc = cli.main(["balance", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2

    def test_abort_exits_1(self, tmp_path):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"run": {"theta0_deg": 50.0, "noise": False}}))
        rc = cli.main(["balance", "--config", str(over), "--out", str(tmp_path),
                       "--duration", "2"])
        assert rc == 1
        summary = json.loads((tmp_path / "balance_summary.json").read_text())
        assert summary["aborted"]

    def test_identify_writes_model(self, tmp_path):
        rc = cli.main(["identify", "--out", str(tmp_path), "--duration", "40",
                       "--noise", "off"])
        assert rc == 0
        doc = json.loads((tmp_path / "identified_model.json").read_text())
        assert len(doc["p_hat"]) == 8

    @pytest.mark.parametrize("duration", ["0", "-5"])
    def test_nonpositive_duration_exits_2(self, tmp_path, duration):
        # neither is a run length: a configuration error, before any output
        out = tmp_path / "out"
        rc = cli.main(["balance", "--out", str(out), "--duration", duration])
        assert rc == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("name, duration, minimum", [
        ("identify", "0.001", "1.0 s"), ("identify", "0.005", "1.0 s"),
        ("identify", "0.05", "1.0 s"), ("track", "0.001", "one tick")])
    def test_run_too_short_for_its_experiment_exits_2(self, tmp_path, capsys,
                                                       name, duration, minimum):
        # shorter than one tick, or than the record a fit needs: a
        # configuration error that names the minimum, before any output
        out = tmp_path / "out"
        rc = cli.main([name, "--out", str(out), "--duration", duration])
        assert rc == 2
        assert minimum in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("section, key, value", [
        ("mpc", "N", 0), ("mpc", "N", 2.5), ("mpc", "theta_max", 0),
        ("mpc", "u_max", -1), ("mpc", "filter_fc_hz", 0), ("mpc", "filter_fc_hz", 150),
        ("reference", "T_rise", 0), ("plant.sensor", "sigma_theta", -1),
        ("run", "seed", -1), ("lqr", "R", 0), ("lqr", "R", -5),
        ("excitation", "components", []), ("excitation", "components", [[1.0, -0.5]]),
        ("plant.linear", "r", 0), ("plant.linear", "r", -1),
        ("lqr", "Q", [-1.0, 0.0, 0.0, 0.0]),
        # each of these ended in a traceback, or hung, before the rule table
        ("plant.linear", "r", INF), ("plant.linear", "r", 1e-300), ("plant.linear", "r", 5e-324),
        ("lqr", "Q", [INF, 100.0, 10.0, 50.0]), ("lqr", "R", INF),
        ("mpc", "Q", [INF, 0.0, 0.0, 0.0]), ("mpc", "R", INF),
        ("plant.sensor", "trackball_quantum", INF), ("plant.sensor", "trackball_quantum", 5e-324),
        ("excitation", "alpha", INF), ("excitation", "alpha", -INF),
        ("excitation", "components", [[INF, 1.0]]),
        ("mpc", "filter_fc_hz", 1e-300), ("mpc", "filter_fc_hz", 5e-324),
        ("excitation", "alpha", 0), ("excitation", "alpha", 1e-300),
        ("excitation", "alpha", 5e-324),
        ("mpc", "Ts_mpc", INF), ("mpc", "Ts_mpc", -INF), ("mpc", "Ts_mpc", 1e300),
        ("run", "theta0_deg", INF), ("reference", "amplitude", INF), ("mpc", "N", 100000),
        ("run", "Ts_inner", 1e-7), ("run", "Ts_inner", 1e-300), ("id", "initial_guess_scale", -1)])
    def test_value_a_section_rejects_exits_2(self, tmp_path, capsys, section, key, value):
        # rejected by the rule table or the rules that tie keys together:
        # a configuration error at the key path, before any output
        doc = {key: value}
        for name in reversed(section.split(".")):
            doc = {name: doc}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main(["track", "--config", str(cfg), "--out", str(out), "--duration", "2"])
        assert rc == 2
        assert f"'{section}.{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, wanted", [
        ("mpc", "N", True, "an integer"), ("run", "seed", "a", "an integer"),
        ("reference", "amplitude", "x", "a number"), ("mpc", "theta_max", "3", "a number"),
        ("mpc", "theta_max", float("nan"), "a number"), ("run", "noise", "off", "true or false"),
        ("lqr", "Q", [1.0, 2.0, "3", 4.0], "a list of numbers")])
    def test_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, section, key, value,
                                             wanted):
        # each value is checked against the JSON type of its default before
        # any range check reads it: a configuration error, not a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        out = tmp_path / "out"
        rc = cli.main(["track", "--config", str(cfg), "--out", str(out), "--duration", "2"])
        assert rc == 2
        assert f"'{section}.{key}': must be {wanted}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, key", [
        ({"id": {"multistart_count": 1}}, "id.multistart_count"),
        ({"gains": {"k_y": 0.0}}, "gains.k_y")], ids=["multistart_count", "k_y"])
    def test_removed_multistart_key_exits_2(self, tmp_path, capsys, doc, key):
        # the fit has one start, and the outer loop has no position gain; a
        # config that still sets either removed key is an unknown key,
        # rejected before any output
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli.main(["identify", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert f"config error at '{key}': unknown key" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["identify", "--out", str(out), "--seed", "-1", "--duration", "1.5"])
        assert rc == 2
        assert "'run.seed': must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, text", [
        ("--config", None), ("--config", "{"), ("--config", "[]"),
        ("--model", None), ("--model", "{"), ("--model", "[]"), ("--model", "{}"),
        ("--model", '{"p_hat": [1, 2, 3, 4, 5, 6, 7]}'),
        ("--model", '{"p_hat": [1, 2, 3, 4, 5, 6, 7, NaN]}'),
        ("--model", '{"p_hat": [0, 0, 0, 0, 0, 0, 0, 0]}')])
    def test_unusable_file_exits_2(self, tmp_path, capsys, flag, text):
        # a missing file (None), one that is not a JSON object, a model
        # without eight finite p_hat entries, or one that no LQR stabilizes:
        # a configuration error at the flag, before any output
        path = tmp_path / "in.json"
        if text is not None:
            path.write_text(text)
        for command in ("lqr", "track"):
            out = tmp_path / f"out-{command}"
            rc = cli.main([command, flag, str(path), "--out", str(out), "--duration", "2"])
            assert rc == 2
            assert f"'{flag}'" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("config, reason", [
        ({"id": {"initial_guess": [1e5] * 8}}, "the initial guess is a divergent candidate"),
        ({"excitation": {"alpha": 1e-6}}, "a measured channel is constant"),
        ({}, "candidate diverges on the holdout data")])
    def test_failed_fit_aborts_with_outputs(self, tmp_path, monkeypatch, config, reason):
        # a fit that cannot finish aborts the run as a fall does: exit 1,
        # telemetry and summary written, no model and no abort time
        def diverges(*args):
            raise IdentificationFailedError("candidate diverges on the holdout data")

        if not config:  # no config is known to reach it: the holdout check diverges
            monkeypatch.setattr(harness.sysid, "validate", diverges)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        rc = cli.main(["identify", "--config", str(path), "--out", str(tmp_path),
                       "--duration", "1.5"])
        assert rc == 1
        assert sorted(p.name for p in tmp_path.glob("identify_*")) == [
            "identify_summary.json", "identify_telemetry.csv"]
        assert not (tmp_path / "identified_model.json").exists()
        summary = json.loads((tmp_path / "identify_summary.json").read_text())
        assert summary["aborted"] and summary["abort_time_s"] is None
        assert summary["abort_reason"].startswith(reason)

    def test_shortest_identify_record_is_fitted(self, tmp_path):
        rc = cli.main(["identify", "--out", str(tmp_path), "--duration", "1"])
        assert rc == 0
        assert (tmp_path / "identified_model.json").exists()

    def test_seed_flag_changes_hash(self, tmp_path):
        rc = cli.main(["balance", "--out", str(tmp_path), "--duration", "0.5",
                       "--seed", "7"])
        assert rc == 0
        text = (tmp_path / "balance_telemetry.csv").read_text().splitlines()[0]
        cfg = load_config(overrides={"run": {"seed": 7}})
        assert text == f"# config_hash={config_hash(cfg)}"
