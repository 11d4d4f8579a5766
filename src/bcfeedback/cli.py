"""Command-line interface.

Subcommands: ``solve`` (fixed-point constants and rate limits), ``rates``
(full rate report), ``duality`` (broadcast vs multiple-access sum-rate
check), ``simulate`` (Monte Carlo error estimation from a JSON config), and
``sweep`` (the same over a list of power budgets).

Data goes to stdout or --out; logs go to stderr.  Exit codes: 0 success,
1 runtime failure, 2 configuration/usage error.  JSON configs are validated
before any computation; unknown keys are rejected by name.

``solve``, ``rates`` and ``duality`` compute on floats and never load numpy.
``montecarlo``, and numpy and the batch threads with it, is imported only when
``simulate`` or ``sweep`` runs a batch.  No subcommand loads scipy: the
normal quantile is a numpy port of Cephes ndtri (``core``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import dataclass

from .channel import ChannelConfig, _usable_cpus
from .fixedpoint import solve_lambda_bc, solve_lambda_mac
from .schedules import DEFAULT_NOISE, SCHEME_IDS, check_channel, rate_report

__all__ = ["main"]

DUALITY_TOL = 1e-10


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@contextlib.contextmanager
def _input_errors():
    """Report the library's ValueError (its verdict on bad input) as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """A validated simulation request (one scheme, one power budget)."""

    scheme: str
    channel: ChannelConfig
    seed: int
    trials: int = 10_000
    horizon: int = 200
    rate_fraction: float = 0.5
    rho_mode: str = "tracked"
    g: float = 1.0
    out: str | None = None
    interval_base_halfwidth: float | None = None
    interval_growth_fraction: float = 0.5


_REQUIRED_KEYS = (
    "scheme", "num_receivers", "power_budget", "common_noise_var",
    "private_noise_vars", "seed",
)
_OPTIONAL_KEYS = (
    "trials", "horizon", "rate_fraction", "rho_mode", "g", "out",
    "interval_base_halfwidth", "interval_growth_fraction",
)


def _want_int(raw: dict, key: str, *, minimum: int | None = None) -> int:
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"config key {key!r} must be an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"config key {key!r} must be >= {minimum}")
    return v


def _want_number(raw: dict, key: str) -> float:
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number")
    if not math.isfinite(float(v)):
        raise ConfigError(f"config key {key!r} must be finite")
    return float(v)


def parse_run_config(raw: dict, *, allow_power_list: bool = False) -> list[RunConfig]:
    """Validate a raw JSON object into RunConfigs (one per power budget)."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(raw) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required config key: {key}")

    scheme = raw["scheme"]
    if scheme not in SCHEME_IDS:
        raise ConfigError(f"config key 'scheme' must be one of {SCHEME_IDS}")
    m = _want_int(raw, "num_receivers", minimum=1)
    seed = _want_int(raw, "seed", minimum=0)
    common = _want_number(raw, "common_noise_var")
    priv = raw["private_noise_vars"]
    if not isinstance(priv, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in priv
    ):
        raise ConfigError("config key 'private_noise_vars' must be a list of numbers")
    powers_raw = raw["power_budget"]
    if isinstance(powers_raw, list):
        if not allow_power_list:
            raise ConfigError(
                "config key 'power_budget' must be a single number here; "
                "a list is only accepted by the sweep command"
            )
        if not powers_raw:
            raise ConfigError("config key 'power_budget' list must be nonempty")
        powers = []
        for v in powers_raw:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not v > 0:
                raise ConfigError("config key 'power_budget' entries must be positive numbers")
            powers.append(float(v))
    else:
        powers = [_want_number(raw, "power_budget")]

    kwargs = {}
    if "trials" in raw:
        kwargs["trials"] = _want_int(raw, "trials", minimum=100)
    if "horizon" in raw:
        kwargs["horizon"] = _want_int(raw, "horizon", minimum=0)
    if "rate_fraction" in raw:
        f = _want_number(raw, "rate_fraction")
        if not 0.0 < f < 1.0:
            raise ConfigError("config key 'rate_fraction' must lie strictly between 0 and 1")
        kwargs["rate_fraction"] = f
    if "rho_mode" in raw:
        mode = raw["rho_mode"]
        if mode not in ("tracked", "pinned"):
            raise ConfigError("config key 'rho_mode' must be 'tracked' or 'pinned'")
        kwargs["rho_mode"] = mode
    if "g" in raw:
        g = _want_number(raw, "g")
        if not g > 0:
            raise ConfigError("config key 'g' must be positive")
        kwargs["g"] = g
    if "out" in raw:
        if not isinstance(raw["out"], str):
            raise ConfigError("config key 'out' must be a string path")
        kwargs["out"] = raw["out"]
    if raw.get("interval_base_halfwidth") is not None:  # null: the embedding std
        v = _want_number(raw, "interval_base_halfwidth")
        if not v > 0:
            raise ConfigError("config key 'interval_base_halfwidth' must be positive")
        kwargs["interval_base_halfwidth"] = v
    if "interval_growth_fraction" in raw:
        v = _want_number(raw, "interval_growth_fraction")
        if not 0.0 < v < 1.0:
            raise ConfigError(
                "config key 'interval_growth_fraction' must lie strictly between 0 and 1"
            )
        kwargs["interval_growth_fraction"] = v

    configs = []
    for p in powers:
        with _input_errors():
            channel = ChannelConfig(
                num_receivers=m, power_budget=p,
                common_noise_var=common, private_noise_vars=tuple(priv),
            )
            check_channel(scheme, channel)
        configs.append(RunConfig(scheme=scheme, channel=channel, seed=seed, **kwargs))
    return configs


# ----------------------------------------------------------------------------
# channel assembly for solve/rates
# ----------------------------------------------------------------------------


def _parse_noise_flag(noise: str | None, scheme: str, m: int) -> tuple[float, tuple[float, ...]]:
    if noise is None:
        common, private = DEFAULT_NOISE[scheme]
        return common, (private,) * m
    try:
        vals = [float(v) for v in noise.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--noise must be comma-separated numbers, got {noise!r}") from exc
    if len(vals) != m + 1:
        raise ConfigError(
            f"--noise needs 1 + M = {m + 1} values (common, then per-receiver), got {len(vals)}"
        )
    return vals[0], tuple(vals[1:])


def _channel_from_args(args) -> ChannelConfig:
    m = args.M
    common, priv = _parse_noise_flag(args.noise, args.scheme, m)
    with _input_errors():
        return ChannelConfig(num_receivers=m, power_budget=args.P,
                             common_noise_var=common, private_noise_vars=priv)


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------


def _info(args, msg: str) -> None:
    """Under -v, one progress line to the stderr of the moment."""
    if args.verbose:
        print(f"INFO bcfeedback.cli: {msg}", file=sys.stderr)


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _emit(path: str | None, text: str) -> None:
    fh, close = _open_out(path)
    try:
        fh.write(text)
    finally:
        if close:
            fh.close()


def _report_payload(report) -> dict:
    payload = {
        "scheme": report.scheme,
        "M": report.M,
        "P": report.P,
        "residual": report.residual,
        "per_user_rate_bits": list(report.per_user),
        "sum_rate_bits": report.sum_rate,
    }
    if report.lam is not None:
        payload["lambda"] = report.lam
    if report.rho is not None:
        payload["rho"] = report.rho
    return payload


def _format_kv(payload: dict) -> str:
    lines = []
    for key, val in payload.items():
        if isinstance(val, list):
            lines.append(f"{key}: " + " ".join(format(v, ".12g") for v in val))
        elif isinstance(val, float):
            lines.append(f"{key}: {val:.12g}")
        else:
            lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    """solve and rates: the fixed point and rate limits; rates adds targets and exponents."""
    channel = _channel_from_args(args)
    with _input_errors():
        report = rate_report(args.scheme, channel, g=args.g,
                             rate_fraction=args.rate_fraction)
    payload = _report_payload(report)
    _info(args, f"solved {args.scheme} at M={report.M} P={report.P:g}")
    if args.command == "rates":
        payload["rate_fraction"] = report.rate_fraction
        payload["target_rate_bits"] = list(report.target_rates)
        payload["error_exponent_bases"] = list(report.exponent_bases)
        if report.avg_power is not None:
            payload["avg_power"] = report.avg_power
        if report.capacity_at_budget is not None:
            payload["capacity_at_budget_bits"] = report.capacity_at_budget
    _emit(args.out, json.dumps(payload) + "\n" if args.json else _format_kv(payload))
    return 0


def _parse_grid(text: str, name: str, cast):
    try:
        return [cast(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{name} must be comma-separated values, got {text!r}") from exc


def cmd_duality(args) -> int:
    ms = _parse_grid(args.M, "-M", int)
    ps = _parse_grid(args.P, "-P", float)
    lines = ["M,P,rate_bc_bits,rate_mac_bits,abs_diff,ok"]
    worst = 0.0
    for m in ms:
        for p in ps:
            with _input_errors():
                bc = solve_lambda_bc(m, p)
            p_mac = p / m
            if p_mac == 0.0:
                raise ConfigError(f"P/M = {p!r}/{m} underflows to 0: the multiple-access "
                                  "twin needs a positive power")
            # the twin solves _log_gap(m, p_mac, m·p_mac) with gain m·p_mac; where
            # m·p_mac == p that is the broadcast equation float for float (same
            # closure, tol and sum_rate), so its solution is bc's
            if m * p_mac == p:
                mac = bc
            else:
                with _input_errors():
                    mac = solve_lambda_mac(m, p_mac)
            diff = abs(bc.sum_rate - mac.sum_rate)
            worst = max(worst, diff)
            ok = "yes" if diff <= DUALITY_TOL else "no"
            lines.append(
                f"{m},{format(p, '.12g')},{bc.sum_rate:.12g},{mac.sum_rate:.12g},"
                f"{diff:.3g},{ok}"
            )
    _emit(args.out, "\n".join(lines) + "\n")
    if worst > DUALITY_TOL:
        print(f"ERROR bcfeedback.cli: duality gap {worst:.3g} exceeds {DUALITY_TOL:.1g}",
              file=sys.stderr)
        return 1
    return 0


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc


def _apply_overrides(raw, args):
    if not isinstance(raw, dict):
        return raw  # parse_run_config rejects the root by name
    raw = dict(raw)
    for key in ("seed", "trials", "horizon"):
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    return raw


def prepare_scheme(scheme: str, channel: ChannelConfig, horizon: int, **options):
    """``montecarlo.prepare_scheme``; its module, and numpy, load at the first call."""
    from . import montecarlo

    return montecarlo.prepare_scheme(scheme, channel, horizon, **options)


def _run_simulation(cfg: RunConfig, args):
    """The CSV rows of one power budget."""
    from . import montecarlo

    with _input_errors():  # the fixed points, as solve and rates report them
        prepared = prepare_scheme(cfg.scheme, cfg.channel, cfg.horizon,
                                  g=cfg.g, rho_mode=cfg.rho_mode)
    policies = montecarlo.default_policies(
        prepared, cfg.rate_fraction,
        base_halfwidth=cfg.interval_base_halfwidth,
        growth_fraction=cfg.interval_growth_fraction,
    )
    _info(args, f"simulating {cfg.scheme}: M={cfg.channel.num_receivers} "
                f"P={cfg.channel.power_budget:g} trials={cfg.trials} horizon={cfg.horizon} "
                f"rate_fraction={cfg.rate_fraction:g}")
    # called through the module, so a wrapper set on montecarlo.run_batch sees it
    stats = montecarlo.run_batch(prepared, cfg.horizon, policies, cfg.seed, cfg.trials,
                                 threads=args.threads)
    return montecarlo.csv_rows(prepared, stats, cfg.rate_fraction)


def cmd_simulate(args) -> int:
    """simulate and sweep: run each power budget of the config, then write one CSV."""
    from .montecarlo import CSV_HEADER

    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    raw = _apply_overrides(_load_config_file(args.config), args)
    configs = parse_run_config(raw, allow_power_list=args.command == "sweep")
    lines = [CSV_HEADER + "\n"]
    for cfg in configs:
        lines.extend(_run_simulation(cfg, args))
    _emit(args.out if args.out is not None else configs[0].out, "".join(lines))
    return 0


# ----------------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------------


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name, built once."""
    parser = argparse.ArgumentParser(
        prog="bcfeedback",
        description="Feedback coding over the Gaussian broadcast channel",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scheme_flags(p, with_fraction=False):
        p.add_argument("--scheme", required=True, choices=SCHEME_IDS)
        p.add_argument("-M", type=int, default=2, help="number of receivers")
        p.add_argument("-P", type=float, default=10.0, help="power budget")
        p.add_argument("--g", type=float, default=1.0,
                       help="receiver-2 mixing gain (two-user scheme)")
        p.add_argument("--noise", default=None,
                       help="comma list: common variance, then M private variances")
        p.add_argument("--json", action="store_true", help="emit a JSON object")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.set_defaults(func=cmd_report, rate_fraction=0.5)
        if with_fraction:
            p.add_argument("--rate-fraction", dest="rate_fraction", type=float,
                           default=0.5, help="operating rate as a fraction of R*")

    add_scheme_flags(sub.add_parser("solve", help="solve the scheme's fixed point"))
    add_scheme_flags(sub.add_parser("rates", help="full rate report with exponent bases"),
                     with_fraction=True)

    p_dual = sub.add_parser("duality", help="broadcast vs multiple-access sum rates")
    p_dual.add_argument("-M", default="2,4,8", help="comma list of receiver counts")
    p_dual.add_argument("-P", default="1,10,100", help="comma list of power budgets")
    p_dual.add_argument("--out", default=None)
    p_dual.set_defaults(func=cmd_duality)

    for name in ("simulate", "sweep"):
        p_sim = sub.add_parser(name, help=f"{name} from a JSON config")
        p_sim.add_argument("--config", required=True, help="JSON config path")
        p_sim.add_argument("--out", default=None,
                           help="CSV output path (default: config 'out' or stdout)")
        p_sim.add_argument("--threads", type=int, default=_usable_cpus(),
                           help="threads to use (default: the CPUs this process may "
                                "run on); the output does not depend on it")
        p_sim.add_argument("--seed", type=int, default=None, help="override config seed")
        p_sim.add_argument("--trials", type=int, default=None)
        p_sim.add_argument("--horizon", type=int, default=None)
        p_sim.set_defaults(func=cmd_simulate)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The one parser; ``parse_args`` keeps its state in the namespace it returns."""
    return _parsers()[0]


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, parsing once where it can (see ``main``)."""
    parser, subparsers = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    sub = subparsers.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(
            argv[1:], argparse.Namespace(verbose=False, command=argv[0]))
    if sub is None or rest:
        args = parser.parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one command line (default ``sys.argv[1:]``) and return its exit code.

    An argv that starts with a subcommand name is parsed once, by that
    subcommand's parser, into a namespace seeded with the top-level defaults.
    The full parser would hand that parser the same arguments after sorting
    each of them into option or value, then copy its namespace over.
    Everything else -- no arguments, ``-v`` or ``-h`` before the command, an
    unknown command, or an argument the subcommand's parser leaves over --
    goes to the full parser, which alone writes the top-level usage, help and
    errors.  Both ways give the same namespace and the same output, except for
    an argument that starts with ``--=``: the full parser rejects it as
    ambiguous between its own options, the subcommand parser between the
    subcommand's.  Either way the exit code is 2.
    """
    args = _parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: solver, IO, invariants
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
