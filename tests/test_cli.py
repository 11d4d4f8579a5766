import contextlib
import hashlib
import io
import json
import logging
import math
import os
import re
import sys
import warnings
from dataclasses import MISSING, fields, replace
from pathlib import Path

import mpmath
import numpy as np
import pytest

from bcfeedback import cli
from bcfeedback.channel import ChannelConfig
from bcfeedback.cli import ConfigError, RunConfig, main, parse_run_config
from bcfeedback.fixedpoint import FixedPointError, solve_lambda_bc, solve_lambda_mac
from bcfeedback.montecarlo import default_policies, prepare_scheme, run_batch, write_csv
from bcfeedback.numerics import RootFindingError
from bcfeedback.schedules import SCHEME_IDS, make_schedule, rate_report
from oracles import mp_lambda


def base_config(**kw):
    cfg = {
        "scheme": "symmetric",
        "num_receivers": 2,
        "power_budget": 10.0,
        "common_noise_var": 0.0,
        "private_noise_vars": [1.0, 1.0],
        "seed": 7,
    }
    cfg.update(kw)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ----------------------------------------------------------------------------
# config schema
# ----------------------------------------------------------------------------


def test_parse_run_config_defaults():
    (cfg,) = parse_run_config(base_config())
    assert cfg.trials == 10_000
    assert cfg.horizon == 200
    assert cfg.rate_fraction == 0.5
    assert cfg.rho_mode == "tracked"
    assert cfg.g == 1.0
    assert cfg.channel.power_budget == 10.0


def test_readme_config_schema_parses_to_the_defaults():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"#### JSON config schema\n\n```json\n(.*?)```", text, re.S)
    assert block, "README has no JSON config schema block"
    raw = json.loads(re.sub(r"\s*//[^\n]*", "", block.group(1)))
    (cfg,) = parse_run_config(raw)
    defaults = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}
    del defaults["out"]  # the schema shows an example path
    assert set(defaults) <= set(raw)
    for key, want in defaults.items():
        assert getattr(cfg, key) == want, key


def test_parse_run_config_unknown_keys_named():
    with pytest.raises(ConfigError, match="trails"):
        parse_run_config(base_config(trails=5))
    with pytest.raises(ConfigError, match="color"):
        parse_run_config(base_config(color="red"))


def test_parse_run_config_missing_required_named():
    cfg = base_config()
    del cfg["seed"]
    with pytest.raises(ConfigError, match="seed"):
        parse_run_config(cfg)
    cfg = base_config()
    del cfg["private_noise_vars"]
    with pytest.raises(ConfigError, match="private_noise_vars"):
        parse_run_config(cfg)


@pytest.mark.parametrize("kw", [
    dict(scheme="mystery"),
    dict(num_receivers=0),
    dict(num_receivers=2.5),
    dict(seed=True),                      # bool is not an integer here
    dict(trials=99),
    dict(horizon=-1),
    dict(rate_fraction=0.0),
    dict(rate_fraction=1.0),
    dict(rho_mode="loose"),
    dict(g=0.0),
    dict(private_noise_vars=[1.0, "x"]),
    dict(private_noise_vars=[1.0]),       # length mismatch
    dict(power_budget=-1.0),
    dict(interval_base_halfwidth=0.0),
    dict(interval_growth_fraction=1.0),
    dict(out=7),
])
def test_parse_run_config_rejections(kw):
    with pytest.raises(ConfigError):
        parse_run_config(base_config(**kw))


@pytest.mark.parametrize("kw, allow_list, match", [
    (dict(power_budget="10"), False, "'power_budget' must be a number"),
    (dict(power_budget=[1.0, -1]), True, "'power_budget' entries must be positive numbers"),
])
def test_parse_run_config_names_the_bad_power(kw, allow_list, match):
    with pytest.raises(ConfigError, match=match):
        parse_run_config(base_config(**kw), allow_power_list=allow_list)


def test_parse_run_config_scheme_channel_compat():
    with pytest.raises(ConfigError):
        parse_run_config(base_config(common_noise_var=1.0))  # symmetric wants 0
    with pytest.raises(ConfigError):
        parse_run_config(base_config(scheme="degraded"))  # wants private vars 0
    with pytest.raises(ConfigError):
        parse_run_config(base_config(scheme="ozarow2", num_receivers=4,
                                     private_noise_vars=[1.0] * 4))
    with pytest.raises(ConfigError):
        parse_run_config(base_config(num_receivers=3, private_noise_vars=[1.0] * 3))


# (M, common variance, private variances) and the schemes that accept it
SCHEME_CHANNEL_GRID = [
    ((1, 0.0, (1.0,)), {"symmetric"}),
    ((2, 0.0, (1.0, 1.0)), {"ozarow2", "symmetric"}),
    ((2, 1.0, (0.0, 0.0)), {"ozarow2", "degraded"}),
    ((2, 0.5, (1.0, 1.0)), {"ozarow2"}),
    ((2, 0.0, (1.0, 0.0)), set()),
    ((3, 0.0, (1.0,) * 3), set()),
    ((3, 1.0, (0.0,) * 3), set()),
    ((4, 0.0, (1.0,) * 4), {"symmetric"}),
    ((4, 1.0, (0.0,) * 4), {"degraded"}),
    ((2048, 0.0, (1.0,) * 2048), set()),  # beyond the Hadamard limit 2**10
    ((2048, 1.0, (0.0,) * 2048), set()),
]


@pytest.mark.parametrize("noise, accepting", SCHEME_CHANNEL_GRID)
@pytest.mark.parametrize("scheme", SCHEME_IDS)
def test_layers_agree_on_scheme_channel(scheme, noise, accepting, capsys):
    m, common, priv = noise
    channel = ChannelConfig(m, 10.0, common, priv)
    cfg = base_config(scheme=scheme, num_receivers=m, common_noise_var=common,
                      private_noise_vars=list(priv))
    argv = ["solve", "--scheme", scheme, "-M", str(m),
            "--noise", ",".join(str(v) for v in (common, *priv))]
    if scheme in accepting:
        report = rate_report(scheme, channel)
        sched = make_schedule(scheme, channel)
        assert np.array_equal(sched.rate_limits(), report.per_user)
        parse_run_config(cfg)
        assert main(argv) == 0
    else:
        with pytest.raises(ValueError):
            rate_report(scheme, channel)
        with pytest.raises(ValueError):
            make_schedule(scheme, channel)
        with pytest.raises(ConfigError):
            parse_run_config(cfg)
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err


def test_parse_run_config_power_list_only_for_sweep():
    cfg = base_config(power_budget=[1.0, 10.0])
    with pytest.raises(ConfigError):
        parse_run_config(cfg, allow_power_list=False)
    out = parse_run_config(cfg, allow_power_list=True)
    assert [c.channel.power_budget for c in out] == [1.0, 10.0]
    with pytest.raises(ConfigError):
        parse_run_config(base_config(power_budget=[]), allow_power_list=True)


# ----------------------------------------------------------------------------
# subcommands (in-process)
# ----------------------------------------------------------------------------


def test_solve_json_output(capsys):
    rc = main(["solve", "--scheme", "symmetric", "-M", "2", "-P", "10", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scheme"] == "symmetric"
    assert payload["M"] == 2
    assert payload["lambda"] == pytest.approx(1.610586077871747, abs=1e-12)
    assert len(payload["per_user_rate_bits"]) == 2


def test_solve_text_output(capsys):
    rc = main(["solve", "--scheme", "ozarow2", "-M", "2", "-P", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rho:" in out
    assert "sum_rate_bits:" in out
    # README's complete solve example, byte for byte
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"\$ bcfeedback solve --scheme symmetric -M 2 -P 10\n(.*?\n)\n", text, re.S)
    assert block, "README has no complete solve example"
    assert main(["solve", "--scheme", "symmetric", "-M", "2", "-P", "10"]) == 0
    assert capsys.readouterr().out == block.group(1)


def test_solve_rejects_mismatched_receivers(capsys):
    rc = main(["solve", "--scheme", "ozarow2", "-M", "4"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_solve_noise_flag_validation(capsys):
    rc = main(["solve", "--scheme", "symmetric", "-M", "2", "--noise", "0,1"])
    assert rc == 2  # needs 1 + M = 3 values
    rc = main(["solve", "--scheme", "symmetric", "-M", "2", "--noise", "0,one,1"])
    assert rc == 2


@pytest.mark.parametrize("scheme, noise", [
    ("ozarow2", "0,1,1"), ("degraded", "1,0,0"), ("symmetric", "0,1,1"),
])
def test_solve_defaults_to_the_scheme_noise(capsys, scheme, noise):
    assert main(["solve", "--scheme", scheme]) == 0
    default = capsys.readouterr().out
    assert main(["solve", "--scheme", scheme, "--noise", noise]) == 0
    assert capsys.readouterr().out == default


def test_rates_degraded_reports_power_and_capacity(capsys):
    rc = main(["rates", "--scheme", "degraded", "-M", "2", "-P", "1",
               "--noise", "1,0,0", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["avg_power"] == pytest.approx(1.1939365664746304, abs=1e-9)
    assert payload["capacity_at_budget_bits"] == pytest.approx(0.5, abs=1e-12)
    assert payload["rate_fraction"] == 0.5
    assert len(payload["target_rate_bits"]) == 2
    assert all(b > 1.0 for b in payload["error_exponent_bases"])


def test_duality_csv_all_ok(capsys):
    rc = main(["duality", "-M", "1,2,4", "-P", "0.5,10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "M,P,rate_bc_bits,rate_mac_bits,abs_diff,ok"
    assert len(lines) == 1 + 6
    assert all(line.endswith(",yes") for line in lines[1:])


def test_duality_at_the_top_of_the_power_range(capsys):
    # the log terms are ~20 here, so an absolute 1e-12 on |f| is below float resolution
    assert main(["duality", "-M", "2", "-P", "1e9"]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1]
    assert row.startswith("2,1000000000,") and row.endswith(",yes")


# sha256 of the solve path's stdout over M = 2 ... 1024 and P = 1e-9 ... 1e9:
# the bytes of the sum-rate and rho scans, as GOLDEN_CSV pins the Monte Carlo's
SOLVE_PATH_P = ("1e-9", "1e-6", "1e-3", "1", "10", "1e3", "1e6", "1e9")
DUALITY_SHA256 = "e31411df8fd3161a68fd0804f51ffb9a9e7f15395de46a8ec18715bf93775c6a"
OZAROW2_SHA256 = "4f69a3fd939eef289e75076ffef8a1330dad336007e710f3de69b6f112afafe1"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_solve_path_output_bytes_are_pinned(capsys):
    ms = ",".join(str(2**k) for k in range(1, 11))
    assert main(["duality", "-M", ms, "-P", ",".join(SOLVE_PATH_P)]) == 0
    assert _sha256(capsys.readouterr().out) == DUALITY_SHA256
    for p in SOLVE_PATH_P:
        assert main(["solve", "--scheme", "ozarow2", "-M", "2", "-P", p, "--json"]) == 0
    assert _sha256(capsys.readouterr().out) == OZAROW2_SHA256


@pytest.mark.parametrize("m, p", [("2", "5e-324"), ("4", "1e-323")])
def test_duality_names_the_twin_power_that_underflows(m, p, capsys):
    # P is positive and finite, but the multiple-access twin's P/M rounds to 0
    assert main(["duality", "-M", m, "-P", p]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: P/M = ") and "underflows to 0" in err


def test_duality_gap_above_tolerance_exits_1(monkeypatch, capsys):
    # the twin is solved only where M·(P/M) != P: 11·(100/11) = 100.00000000000001
    real = cli.solve_lambda_mac

    def widened(m, p):
        sol = real(m, p)
        gap = 2.0 * cli.DUALITY_TOL if m == 11 else 0.0
        return replace(sol, sum_rate=sol.sum_rate + gap)

    monkeypatch.setattr(cli, "solve_lambda_mac", widened)
    assert main(["duality", "-M", "2,11", "-P", "100"]) == 1
    out, err = capsys.readouterr()
    rows = out.strip().split("\n")[1:]
    assert [row.startswith("11,") for row in rows] == [False, True]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["yes", "no"]
    assert err == "ERROR bcfeedback.cli: duality gap 2e-10 exceeds 1e-10\n"


# M = 1 .. 39 and wide M, over P from the smallest subnormal to 1e200: the
# twin's gain M·(P/M) rounds to P at most points and away from it at some
# (11 at P = 100, 15 at 1e3, 3 at 1e-320, ...); P/M underflows at the
# smallest P and the broadcast scan fails at the largest for small M
TWIN_M = tuple(range(1, 40)) + (64, 100, 128, 255, 256, 1000, 1024)
TWIN_P = (5e-324, 1e-320, 1e-300, 1e-200, 1e-100, 1e-30, 1e-9, 1e-3, 0.5, 1.0, 10.0,
          100.0, 1e3, 1e9, 1e100, 1e200)


def _duality_row(m: int, p: float) -> tuple[int, str | None]:
    """The exit code and row that direct solves give for one duality point."""
    try:
        bc = solve_lambda_bc(m, p)
    except ValueError:
        return 2, None
    except RootFindingError:
        return 1, None
    if p / m == 0.0:
        return 2, None
    mac = solve_lambda_mac(m, p / m)
    diff = abs(bc.sum_rate - mac.sum_rate)
    ok = diff <= cli.DUALITY_TOL
    return (0 if ok else 1), (f"{m},{format(p, '.12g')},{bc.sum_rate:.12g},"
                              f"{mac.sum_rate:.12g},{diff:.3g},{'yes' if ok else 'no'}")


def test_duality_scan_solves_the_twin_only_where_its_gain_differs(monkeypatch, capsys):
    calls = []

    def counted(m, p):
        calls.append((m, p))
        return solve_lambda_mac(m, p)

    monkeypatch.setattr(cli, "solve_lambda_mac", counted)
    expected_calls, solved = [], 0
    for m in TWIN_M:
        for p in TWIN_P:
            rc = main(["duality", "-M", str(m), "-P", repr(p)])
            out = capsys.readouterr().out
            want_rc, want_row = _duality_row(m, p)
            assert rc == want_rc, (m, p)
            assert out == ("" if want_row is None
                           else f"M,P,rate_bc_bits,rate_mac_bits,abs_diff,ok\n{want_row}\n")
            if want_row is not None and m * (p / m) != p:
                expected_calls.append((m, p / m))
            solved += want_row is not None
    assert calls == expected_calls
    assert (11, 100.0 / 11) in calls
    assert solved == 653 and len(calls) == 59  # the rest reuse the broadcast solve


def test_duality_bad_grid(capsys):
    assert main(["duality", "-M", "1,two"]) == 2


@pytest.mark.parametrize("argv, code", [
    (["solve", "--scheme", "ozarow2", "--g", "0"], 2),
    (["solve", "--scheme", "ozarow2", "--g", "nan"], 2),
    (["solve", "--scheme", "symmetric", "--g", "0"], 0),  # only ozarow2 mixes with g
    (["rates", "--scheme", "symmetric", "--rate-fraction", "1.5"], 2),
    (["duality", "-M", "0"], 2),
    (["duality", "-P", "-1"], 2),
    (["duality", "-P", "nan"], 2),
    # gain·M overflows, and with it the residual tolerance of the lambda scan
    (["solve", "--scheme", "degraded", "-M", "2", "-P", "1.7e308"], 2),
    (["duality", "-M", "2,4", "-P", "1.7e308"], 2),
])
def test_values_the_library_checks_exit_2(argv, code, capsys):
    assert main(argv) == code
    assert ("config error" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("argv, message", [
    # (M/P)**2 overflows in the symmetric (b, gamma) closed form
    (["solve", "--scheme", "symmetric", "-M", "2", "-P", "1e-160"],
     "(M/P)**2 overflows at M=2, P=1e-160"),
    (["solve", "--scheme", "symmetric", "-M", "2", "-P", "1e-320"],
     "(M/P)**2 overflows at M=2, P=1e-320"),
    (["rates", "--scheme", "symmetric", "-M", "1024", "-P", "1e-155"],
     "(M/P)**2 overflows at M=1024, P=1e-155"),
    # (M/P)**2 is finite but 4 (M/P)**2 is not, so b**2 rounds to 0
    (["solve", "--scheme", "symmetric", "-M", "2", "-P", "2e-154"],
     "b**2 underflows to 0 at M=2, P=2e-154"),
])
def test_symmetric_b_gamma_out_of_float_range_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


@pytest.mark.parametrize("p", ["1e160", "1e200", "1.7e308"])
def test_ozarow2_scan_of_nan_prints_only_the_config_error(p, capsys):
    # the rho map overflows to NaN in the bracket at these powers: exit 2,
    # and stderr holds the one config error line, no numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--scheme", "ozarow2", "-P", p]) == 2
    assert capsys.readouterr().err == "config error: f evaluated to NaN in the bracket\n"


def test_ozarow2_scan_of_nan_exits_2_on_solve_and_on_simulate(tmp_path, capsys):
    # one config, one verdict: simulate reports the fixed point's input error
    # as solve does
    assert main(["solve", "--scheme", "ozarow2", "-P", "1e160", "--noise", "0.5,1,2"]) == 2
    solve_err = capsys.readouterr().err
    path = write_config(tmp_path, base_config(
        scheme="ozarow2", power_budget=1e160, common_noise_var=0.5,
        private_noise_vars=[1.0, 2.0], trials=100, horizon=5))
    assert main(["simulate", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == solve_err == "config error: f evaluated to NaN in the bracket\n"


def test_simulate_names_the_power_where_tracked_rho_rounds_past_1(tmp_path, capsys):
    # at unit noise and g = 1.3 the first tracked step from rho = 0 returns
    # rho = -1.0000000000000002 at P = 1e17: rates answers on that channel,
    # simulate stops before stepping on that rho and names P and g
    def simulate(p):
        path = write_config(tmp_path, base_config(
            scheme="ozarow2", power_budget=p, g=1.3, trials=100, horizon=5))
        return main(["simulate", "--config", path])

    assert main(["rates", "--scheme", "ozarow2", "-P", "1e17", "--g", "1.3"]) == 0
    capsys.readouterr()
    assert simulate(1e17) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: tracked rho = -1.0000000000000002 ")
    assert "P=1e+17, g=1.3" in err
    assert simulate(1e16) == 0


def test_solve_below_gain_1e_10_gives_the_60_digit_lambda(capsys):
    # the effective power P/sigma² = 1e-307 lies far below gain 1e-10; the
    # sum rate is log1p(P·lambda)/(2 ln 2), where 1 + P·lambda rounds to 1
    assert main(["solve", "--scheme", "degraded", "-M", "8", "-P", "1e-307", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda"] == 1.0 == pytest.approx(mp_lambda(8, 1e-307), rel=1e-15)
    with mpmath.workdps(60):
        want = mpmath.log1p(mpmath.mpf(1e-307)) / (2 * mpmath.log(2))
    assert out["sum_rate_bits"] == pytest.approx(float(want), rel=1e-15, abs=0.0)
    assert main(["solve", "--scheme", "degraded", "-M", "8", "-P", "1e-307"]) == 0
    assert "sum_rate_bits: 7.21347520444e-308\n" in capsys.readouterr().out


def test_duality_below_gain_1e_10_gives_the_60_digit_rates(capsys):
    # 192·2**-52: 1 + P·lambda rounds to 1 + P, so the printed rate loses no digit
    p = 4.263256414560601e-14
    assert main(["duality", "-M", "1000", "-P", repr(p)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[2] == row[3] == "3.07528944366e-14"
    with mpmath.workdps(60):  # broadcast at P, its twin at P/M
        for rate, lam, gain in ((row[2], mp_lambda(1000, p), mpmath.mpf(p)),
                                (row[3], mp_lambda(1000, p / 1000, twin=True),
                                 1000 * mpmath.mpf(p / 1000))):
            want = mpmath.log(1 + gain * lam, 2) / 2
            assert float(rate) == pytest.approx(float(want), rel=1e-11)


def test_runtime_failure_exits_1(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise FixedPointError("solver gave up")

    monkeypatch.setattr(cli, "rate_report", fail)
    assert main(["solve", "--scheme", "symmetric"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: solver gave up\n"


def test_simulate_roundtrip(tmp_path, capsys):
    path = write_config(tmp_path, base_config(trials=200, horizon=12))
    rc = main(["simulate", "--config", path, "--threads", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("scheme,M,P,")
    assert len(lines) == 1 + 4 * 2  # four checkpoints, two receivers
    assert all(line.startswith("symmetric,2,10,") for line in lines[1:])


def test_simulate_deterministic_across_threads(tmp_path, capsys):
    path = write_config(tmp_path, base_config(trials=300, horizon=10))
    main(["simulate", "--config", path, "--threads", "1"])
    out1 = capsys.readouterr().out
    main(["simulate", "--config", path, "--threads", "4"])
    out4 = capsys.readouterr().out
    assert out1 == out4


def test_simulate_threads_default_to_the_usable_cpus():
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    for name in ("simulate", "sweep"):
        assert cli.build_parser().parse_args([name, "--config", "c.json"]).threads == usable


def test_simulate_cli_overrides(tmp_path, capsys):
    path = write_config(tmp_path, base_config(trials=200, horizon=12))
    rc = main(["simulate", "--config", path, "--trials", "256", "--horizon", "8",
               "--seed", "99"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert all(",256," in line for line in lines[1:])
    assert lines[-1].split(",")[3] == "8"


def test_simulate_interval_keys_reach_the_policies(tmp_path, capsys):
    # README's decay example, shortened
    cfg = base_config(seed=0, trials=400, horizon=40, interval_base_halfwidth=1.479,
                      interval_growth_fraction=0.021)
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--threads", "1"]) == 0
    got = capsys.readouterr().out
    prep = prepare_scheme("symmetric", ChannelConfig(2, 10.0, 0.0, (1.0, 1.0)), 40)
    pols = default_policies(prep, 0.5, base_halfwidth=1.479, growth_fraction=0.021)
    buf = io.StringIO()
    write_csv(buf, prep, run_batch(prep, 40, pols, 0, 400), 0.5)
    assert got == buf.getvalue()
    del cfg["interval_base_halfwidth"]
    assert main(["simulate", "--config", write_config(tmp_path, cfg), "--threads", "1"]) == 0
    assert capsys.readouterr().out != got


def test_verbose_simulate_logs_its_run(tmp_path, capsys):
    path = write_config(tmp_path, base_config(trials=100, horizon=4))
    assert main(["-v", "simulate", "--config", path, "--threads", "1"]) == 0
    assert capsys.readouterr().err == (
        "INFO bcfeedback.cli: simulating symmetric: M=2 P=10 trials=100 horizon=4 "
        "rate_fraction=0.5\n"
    )


def test_simulate_long_horizon_at_high_power(tmp_path, capsys):
    # the pivot halfwidth passes 2**1024 before step 1000 here; it saturates
    # to +inf instead of overflowing, and every trial succeeds
    path = write_config(tmp_path, base_config(power_budget=1e5, trials=100, horizon=1000))
    assert main(["simulate", "--config", path]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    last = [row for row in rows if row[3] == "1000"]
    assert len(last) == 2
    assert all(row[6] == "0" for row in last)


@pytest.mark.parametrize("m, p", [(4, 1e6), (1, 1e8)])
def test_simulate_symmetric_checks_hold_at_high_power(tmp_path, m, p):
    # the invariant checks run on the exact Hadamard eigenvalues, not on a
    # float64 R that drifts past their tolerance at these powers
    path = write_config(tmp_path, base_config(num_receivers=m, power_budget=p,
                                              private_noise_vars=[1.0] * m, trials=100))
    assert main(["simulate", "--config", path, "--threads", "1"]) == 0


@pytest.mark.parametrize("g, weak", [(1e-9, 1), (1e9, 0), (1e12, 0)])
def test_ozarow2_at_extreme_g_gives_one_receiver_its_capacity(tmp_path, capsys, g, weak):
    # the weak receiver's contraction rounds to 1.0, a rate below float
    # resolution: it reports 0.0 (not -0.0) and the other receiver gets
    # the Schalkwijk-Kailath capacity 1/2 log2(1 + P / N)
    capacity = 0.5 * math.log2(1.0 + 10.0 / 1.0)
    for cmd in ("solve", "rates"):
        argv = [cmd, "--scheme", "ozarow2", "-P", "10", "--noise", "0,1,1", "--g", repr(g), "--json"]
        assert main(argv) == 0
        rates = json.loads(capsys.readouterr().out)["per_user_rate_bits"]
        assert rates[weak] == 0.0 and math.copysign(1.0, rates[weak]) == 1.0
        assert abs(rates[1 - weak] - capacity) <= 1e-12
    path = write_config(tmp_path, base_config(scheme="ozarow2", g=g, trials=100, horizon=20))
    assert main(["simulate", "--config", path, "--threads", "1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert {row[5] for row in rows if row[4] == str(weak + 1)} == {"0"}


def test_simulate_out_file(tmp_path):
    out = tmp_path / "res.csv"
    path = write_config(tmp_path, base_config(trials=150, horizon=6))
    rc = main(["simulate", "--config", path, "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("scheme,M,P,")


def test_simulate_honours_config_out_key(tmp_path):
    out = tmp_path / "fromcfg.csv"
    path = write_config(tmp_path, base_config(trials=150, horizon=6, out=str(out)))
    rc = main(["simulate", "--config", path])
    assert rc == 0
    assert out.exists()


def test_simulate_config_errors_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, base_config(trails=1))
    assert main(["simulate", "--config", path]) == 2
    assert "trails" in capsys.readouterr().err
    missing = str(tmp_path / "absent.json")
    assert main(["simulate", "--config", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2


@pytest.mark.parametrize("root", ["null", '"ab"', "3", "[]", '[["seed", 1]]'])
@pytest.mark.parametrize("extra", [[], ["--seed", "4"]])
def test_simulate_non_object_config_root_exits_2(tmp_path, capsys, root, extra):
    path = tmp_path / "root.json"
    path.write_text(root)
    assert main(["simulate", "--config", str(path), *extra]) == 2
    assert capsys.readouterr().err == "config error: config root must be a JSON object\n"


@pytest.mark.parametrize("key", ["power_budget", "rate_fraction"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_simulate_nonfinite_json_literals_exit_2(tmp_path, capsys, key, value):
    # json writes and reads the literals NaN and Infinity
    path = write_config(tmp_path, base_config(**{key: value}))
    assert ("NaN" if math.isnan(value) else "Infinity") in Path(path).read_text()
    assert main(["simulate", "--config", path]) == 2
    assert f"config key '{key}' must be finite" in capsys.readouterr().err


def test_simulate_bad_seed_and_threads_exit_2(tmp_path, capsys):
    good = write_config(tmp_path, base_config(trials=100, horizon=4))
    bad_seed = write_config(tmp_path, base_config(seed=-1), name="neg.json")
    for argv in (["--config", bad_seed], ["--config", good, "--seed", "-1"],
                 ["--config", good, "--threads", "0"]):
        assert main(["simulate", *argv]) == 2, argv
        err = capsys.readouterr().err
        assert "config error" in err and ("seed" in err or "threads" in err), argv


def test_simulate_rejects_power_list(tmp_path):
    path = write_config(tmp_path, base_config(power_budget=[1.0, 2.0]))
    assert main(["simulate", "--config", path]) == 2


def test_sweep_over_power_budgets(tmp_path, capsys):
    cfg = {
        "scheme": "degraded",
        "num_receivers": 2,
        "power_budget": [1.0, 10.0],
        "common_noise_var": 1.0,
        "private_noise_vars": [0.0, 0.0],
        "seed": 5,
        "trials": 150,
        "horizon": 8,
    }
    path = write_config(tmp_path, cfg)
    rc = main(["sweep", "--config", path])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 2 * 4 * 2  # two budgets x four checkpoints x two receivers
    assert sum(line.startswith("degraded,2,1,") for line in lines[1:]) == 8
    assert sum(line.startswith("degraded,2,10,") for line in lines[1:]) == 8
    assert lines.count(lines[0]) == 1  # single header


def test_console_script_end_to_end(fresh_python):
    proc = fresh_python("-m", "bcfeedback", "solve", "--scheme", "degraded",
                        "-M", "1", "-P", "10", "--noise", "1,0", "--json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    # single receiver: the full point-to-point capacity
    assert payload["sum_rate_bits"] == pytest.approx(1.7297158093186487, abs=1e-12)


def test_no_subcommand_loads_scipy(tmp_path, capsys, fresh_python):
    # scipy is a test dependency only: the quantile is a numpy port of Cephes
    # ndtri.  The child, whose first batch imports montecarlo and numpy,
    # prints the same CSVs as this process, and no subcommand loads scipy
    sim = write_config(tmp_path, base_config(trials=200, horizon=12))
    swp = write_config(tmp_path, base_config(power_budget=[1.0, 10.0], trials=150, horizon=8),
                       name="sweep.json")
    argvs = [["simulate", "--config", sim, "--threads", "1"], ["sweep", "--config", swp]]
    for argv in argvs:
        assert main(argv) == 0
    want = capsys.readouterr().out
    code = "\n".join([
        "import sys",
        "from bcfeedback.cli import main",
        "assert main(['duality', '-M', '2,64', '-P', '1e-9,10']) == 0",
        "assert main(['solve', '--scheme', 'ozarow2', '-P', '10']) == 0",
        *(f"assert main({argv!r}) == 0" for argv in argvs),
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')",
        "assert not loaded, loaded",
    ])
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(want)


# numpy and scipy load only with the Monte Carlo code: each of these, in a
# fresh interpreter, leaves both out of sys.modules
NUMPY_FREE = [
    "import bcfeedback",
    "import bcfeedback.cli",
    *(f"from bcfeedback.cli import main; assert main({argv!r}) == 0" for argv in (
        ["duality", "-M", "2", "-P", "10"],
        ["solve", "--scheme", "ozarow2", "-P", "10"],
        ["rates", "--scheme", "symmetric", "-M", "1024", "-P", "100"],
        ["rates", "--scheme", "degraded", "-M", "8", "-P", "100"],
    )),
]


@pytest.mark.parametrize("code", NUMPY_FREE)
def test_solve_path_never_loads_numpy(code, fresh_python):
    proc = fresh_python("-c", code + "\nimport sys\nprint(sorted(m for m in sys.modules "
                        "if m.partition('.')[0] in ('numpy', 'scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"



def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    assert main(["solve", "--scheme", "ozarow2", "--json"]) == 0
    json.loads(capsys.readouterr().out)
    assert main(["solve", "--scheme", "ozarow2"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("scheme: ozarow2\n")
    assert main(["duality", "-M", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3
    assert main(["duality"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 9  # -M 2,4,8 by -P 1,10,100
    with pytest.raises(SystemExit):  # its output: test_main_parses_as_the_full_parser
        main(["solve", "--scheme", "ozarow2", "--bogus"])
    capsys.readouterr()
    assert main(["solve", "--scheme", "ozarow2"]) == 0
    assert capsys.readouterr().out == text


# main parses an argv that starts with a subcommand by that subcommand's
# parser alone; every argv must come out as the full parser's parse_args has it
PARSED = [
    ["solve", "--scheme", "ozarow2", "-M", "2", "-P", "10", "--json"],
    ["solve", "--scheme", "symmetric", "-M", "4", "-P", "1e-3",
     "--noise", "0,1,1,1,1", "--out", "o.txt"],
    ["rates", "--scheme", "degraded", "-P", "1", "--noise", "1,0,0",
     "--rate-fraction", "0.3", "--g", "2"],
    ["duality", "-M", "2,4", "-P", "1,10"],
    ["duality"],
    ["duality", "-M2", "--out=-"],
    ["simulate", "--config", "c.json", "--threads", "2", "--seed", "3",
     "--trials", "200", "--horizon", "8"],
    ["sweep", "--config", "c.json", "--out", "o.csv"],
    ["-v", "duality", "-M", "64", "-P", "10"],
    ["--verbose", "solve", "--scheme", "ozarow2"],
    ["simulate", "--conf", "c.json", "--thr", "1"],
    ["solve", "--scheme", "ozarow2", "--js"],
    ["solve", "--scheme", "ozarow2", "-P", "-1"],
    ["duality", "-P", "-1"],
]
EXITED = [
    ([], 2),
    (["-h"], 0),
    (["--help"], 0),
    (["duality", "-h"], 0),
    (["sweep", "--config", "c.json", "--help"], 0),
    (["bogus"], 2),
    (["-v"], 2),
    (["duality", "-M", "2", "--bogus"], 2),
    (["solve", "--scheme", "ozarow2", "--bogus"], 2),
    (["solve", "-v", "--scheme", "ozarow2", "-P", "10"], 2),
    (["duality", "--verb"], 2),
    (["duality", "-M"], 2),
    (["solve", "--scheme", "ozarow2", "-M", "x"], 2),
    (["solve", "--scheme", "nope"], 2),
    (["solve", "-P", "10"], 2),
    (["simulate", "--threads", "2"], 2),
    (["duality", "--", "-M", "2"], 2),
]


def _parse_outcome(parse, argv, capsys):
    try:
        args = vars(parse(argv))
        code = None
    except SystemExit as exc:
        args, code = None, exc.code
    return args, code, *capsys.readouterr()


@pytest.mark.parametrize(
    "argv, code", [(argv, None) for argv in PARSED] + EXITED,
    ids=lambda v: " ".join(v) or "<none>" if isinstance(v, list) else str(v),
)
def test_main_parses_as_the_full_parser(argv, code, capsys):
    got = _parse_outcome(cli._parse_args, argv, capsys)
    assert got == _parse_outcome(cli.build_parser().parse_args, argv, capsys)
    assert got[1] == code
    assert (got[0] is None) == (code is not None)


def test_main_names_an_argument_starting_with_double_dash_equals_ambiguous(capsys):
    # the one argv the two ways write differently: the full parser sorts every
    # argument first, against its own -h and -v, the subcommand parser against
    # the subcommand's options
    argv = ["duality", "-M", "2", "--=x"]
    one = _parse_outcome(cli._parse_args, argv, capsys)
    full = _parse_outcome(cli.build_parser().parse_args, argv, capsys)
    assert one[:3] == full[:3] == (None, 2, "")
    assert one[3].endswith(
        "bcfeedback duality: error: ambiguous option: --=x could match --help, --out\n")
    assert full[3].endswith(
        "bcfeedback: error: ambiguous option: --=x could match --help, --verbose\n")


def test_verbose_applies_to_its_own_call_only(capsys):
    solve = ["solve", "--scheme", "ozarow2", "-P", "10"]
    info = "INFO bcfeedback.cli: solved ozarow2 at M=2 P=10\n"
    handlers = logging.getLogger("bcfeedback").handlers[:], logging.getLogger().handlers[:]
    for first, second in ((["-v"], []), ([], ["-v"])):
        assert main(first + solve) == 0
        assert capsys.readouterr().err == (info if first else "")
        err = io.StringIO()  # the log goes to the stderr of the call
        with contextlib.redirect_stderr(err):
            assert main(second + solve) == 0
        assert err.getvalue() == (info if second else "")
        assert capsys.readouterr().err == ""
    assert (logging.getLogger("bcfeedback").handlers, logging.getLogger().handlers) == handlers
