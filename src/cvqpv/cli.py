"""Command-line front end.

Subcommands:

* ``feasibility`` -- margin grid of 4t - e(1+2u) over a (u,t) rectangle
* ``bounds``      -- maximize eps_tilde over alpha, report the honest entropy and
  the attacker floor, emit the condition surface
* ``resources``   -- rounding size k, qubit budget q_max, cutoff error scale
* ``rounds``      -- Chebyshev round count N with gamma and Delta
* ``simulate``    -- honest and pessimistic-attacker Monte Carlo batches
* ``sweep``       -- (n, m0) resource sweep table

Parameters resolve as: built-in defaults < config file (flat key=value,
'#' comments) < command-line flags. Every run echoes its fully resolved
configuration into the output metadata. Exit code 0 on success, 2 on
structured infeasible-parameter outcomes, 1 on errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shutil
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .attack import (
    NoMarginError,
    attacker_entropy_floor,
    make_pessimistic_attacker,
    rounds_required,
)
from .bounds import condition_surface, eps_cap, max_eps_tilde
from .channel import ChannelParams, feasibility_margin
from .gaussian import h_U_given_P_limit
from .protocol import (
    MAX_STRING_BITS,
    HonestProver,
    ProtocolParams,
    acceptance_rate,
    run_session,
    write_rounds_csv,
    write_session_json,
)
from .resources import resource_report

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

# zero-config defaults reproduce the perfect-channel headline numbers
DEFAULTS = {
    "eps": 0.1,
    "energy": 1e3,
    "t": 1.0,
    "u": 0.0,
    "sigma": 10.0,
    "n": 30,
    "m0": 5,
    "eps_tilde": 0.004,
    "eps_hon": 0.01,
    "rounds": 0,  # 0: derive from the Chebyshev plan
    "sessions": 200,
    "seed": 0,
    "eps_unit": "nats",
    "format": "csv",
    "u_steps": 31,
    "t_steps": 26,
    "n_lo": 22,
    "n_hi": 40,
    "m0_lo": 1,
    "m0_hi": 10,
}

TABLE_POINTS = [  # reference (eps, t, u) channel points
    (0.03, 0.8, 0.05),
    (0.03, 0.9, 0.12),
    (0.07, 0.95, 0.075),
]

_FLOAT_KEYS = {"eps", "energy", "t", "u", "sigma", "eps_tilde", "eps_hon"}
_INT_KEYS = {"n", "m0", "rounds", "sessions", "seed", "u_steps", "t_steps",
             "n_lo", "n_hi", "m0_lo", "m0_hi"}


def read_config_file(path) -> dict:
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        cfg[key.replace("-", "_")] = value
    return cfg


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        for key, value in read_config_file(args.config).items():
            if key not in DEFAULTS:
                raise ValueError(f"unknown config key {key!r}")
            cfg[key] = value
    for key in DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = flag_value
    errors = []
    for key in _FLOAT_KEYS:
        try:
            cfg[key] = float(cfg[key])
        except (TypeError, ValueError):
            errors.append(f"{key}: not a number ({cfg[key]!r})")
            continue
        if not math.isfinite(cfg[key]):
            errors.append(f"{key}: must be finite ({cfg[key]!r})")
    for key in _INT_KEYS:
        try:
            cfg[key] = int(cfg[key])
        except (TypeError, ValueError):
            errors.append(f"{key}: not an integer ({cfg[key]!r})")
    if not errors:
        if not (0.0 <= cfg["t"] <= 1.0):
            errors.append("t: must lie in [0,1]")
        if cfg["u"] < 0.0:
            errors.append("u: must be nonnegative")
        if cfg["sigma"] <= 0.0:
            errors.append("sigma: must be positive")
        if not (0.0 < cfg["eps_hon"] < 1.0):
            errors.append("eps_hon: must lie in (0,1)")
        if not (0.0 < cfg["eps_tilde"] < 1.0):
            errors.append("eps_tilde: must lie in (0,1)")
        if cfg["eps_unit"] not in ("nats", "bits"):
            errors.append("eps_unit: must be 'nats' or 'bits'")
        if cfg["format"] not in ("csv", "json"):
            errors.append("format: must be 'csv' or 'json'")
        if cfg["rounds"] < 0:
            errors.append("rounds: must be >= 0 (0 derives it from the Chebyshev plan)")
        if cfg["sessions"] < 1:
            errors.append("sessions: must be >= 1")
        if args.command == "simulate" and not (1 <= cfg["n"] <= MAX_STRING_BITS):
            errors.append(f"n: must lie in [1, {MAX_STRING_BITS}] for simulate")
        if args.command == "simulate" and not (0 <= cfg["seed"] < 2**64):
            errors.append("seed: must lie in [0, 2^64) for simulate")
    if errors:
        raise ValueError("invalid configuration:\n  " + "\n  ".join(errors))
    cfg["command"] = args.command
    return cfg


def _make_out_dir(out: Path) -> Path | None:
    """Create --out and its missing parents; return the topmost directory created, if any."""
    created = next((p for p in reversed([out, *out.parents]) if not p.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    return created


def _write_json(path: Path, payload: dict, sort_keys: bool = False) -> None:
    """Strict JSON: a non-finite float raises ValueError instead of being written."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=sort_keys, allow_nan=False) + "\n")


def _finite_or_none(x: float) -> float | None:
    """JSON has no infinities or NaN: a non-finite result is written as null."""
    return x if math.isfinite(x) else None


def _fixed_or_exp(x: float) -> str:
    """Six decimals, in exponent form from 1e6 up so a huge value stays short."""
    return f"{x:.6f}" if abs(x) < 1e6 else f"{x:.6e}"


def _write_metadata(out: Path | None, cfg: dict) -> None:
    if out is None:
        return
    meta = {"schema": "cvqpv.run/1", "version": __version__, "config": cfg}
    _write_json(out / "metadata.json", meta, sort_keys=True)


def _int_cell(value) -> str:
    """The digits of an int table cell; a cell neither str nor int raises."""
    if type(value) is int:
        return int.__repr__(value)
    raise ValueError(f"table cell {value!r}: only str and int cells are written")


def _csv_line(row) -> str:
    line = ",".join([v if type(v) is str else _int_cell(v) for v in row])
    # csv.writer quotes a field holding a comma, quote or line break, and a lone empty field
    if ('"' in line or "\r" in line or "\n" in line
            or (line.count(",") != len(row) - 1 if line else len(row) == 1)):
        raise ValueError(f"table row {row!r}: a field would need CSV quoting")
    return line + "\r\n"


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of encoded items, laid out as json.dumps(indent=2) at this indent."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _json_cells(row, indent: str) -> str:
    return _json_array([encode_basestring_ascii(v) if type(v) is str else _int_cell(v)
                        for v in row], indent)


def _write_table(out: Path, name: str, header, rows, fmt: str) -> None:
    """Write str and int cells as CSV or as cvqpv.table/1 JSON, built as one text.

    The bytes are those of csv.writer(lineterminator="\\r\\n") and of
    json.dumps(indent=2) + "\\n". Any other cell type, and a CSV field that
    csv.writer would quote, raise ValueError instead.
    """
    if fmt == "json":
        rows_text = _json_array([_json_cells(row, "    ") for row in rows], "  ")
        (out / f"{name}.json").write_text(
            '{\n  "schema": "cvqpv.table/1",\n  "columns": ' + _json_cells(header, "  ")
            + ',\n  "rows": ' + rows_text + "\n}\n")
    else:
        text = "".join([_csv_line(row) for row in [header, *rows]])
        with open(out / f"{name}.csv", "w", newline="") as fh:
            fh.write(text)


def cmd_feasibility(cfg: dict, out: Path | None) -> int:
    us = np.linspace(0.0, 0.3, cfg["u_steps"])
    ts = np.linspace(0.5, 1.0, cfg["t_steps"])
    if len(us) == 0 or len(ts) == 0:
        raise ValueError("empty (u,t) range")
    t_values = ts.tolist()
    t_texts = [repr(t) for t in t_values]
    rows = []
    for u in us.tolist():
        u_text = repr(u)
        for t, t_text in zip(t_values, t_texts):
            margin = feasibility_margin(t, u)
            rows.append([u_text, t_text, repr(margin), int(margin > 0.0)])
    points = [[repr(u), repr(t), int(ChannelParams(t, u).feasible())]
              for (_eps, t, u) in TABLE_POINTS]
    print("feasibility grid: 4t - e(1+2u) over u in [0,0.3], t in [0.5,1]")
    for (eps, t, u), row in zip(TABLE_POINTS, points):
        print(f"  reference point eps={eps} t={t} u={u}: feasible={bool(row[2])}")
    if out is not None:
        _write_table(out, "feasibility_grid", ["u", "t", "margin", "feasible"], rows, cfg["format"])
        _write_table(out, "reference_points", ["u", "t", "feasible"], points, cfg["format"])
    return EXIT_OK


def cmd_bounds(cfg: dict, out: Path | None) -> int:
    eps, E, t, u = cfg["eps"], cfg["energy"], cfg["t"], cfg["u"]
    result = max_eps_tilde(eps, E, t, u)
    cap = eps_cap(t, u) if t > 0 else float("-inf")
    print(f"eps cap (1/2)log2(4t/(e(1+2u))) = {cap:.6f}")
    if not result.feasible:
        print("no positive eps_tilde: channel infeasible or eps above its cap")
        if out is not None:
            _write_json(out / "bounds.json", {"schema": "cvqpv.bounds/1", "feasible": False,
                                              "eps_cap": _finite_or_none(cap)})
        return EXIT_INFEASIBLE
    print(f"max eps_tilde = {result.eps_tilde_max:.6g} at alpha = {result.alpha_star:.6g}")
    honest = h_U_given_P_limit(t, u).bits
    floor = attacker_entropy_floor(ChannelParams(t, u), eps).bits
    print(f"honest entropy h(U|P) = {honest:.6f} bits, attacker floor h(U|P) + eps/4 = "
          f"{floor:.6f} bits")
    if out is not None:
        _write_json(out / "bounds.json", {
            "schema": "cvqpv.bounds/1",
            "feasible": True,
            "eps_cap": _finite_or_none(cap),
            "eps_tilde_max": result.eps_tilde_max,
            "alpha_star": result.alpha_star,
            "honest_entropy_bits": honest,
            "attacker_floor_bits": floor,
        })
        alphas = np.logspace(-4, math.log10(0.5), 80)
        ets = np.linspace(1e-5, max(4.0 * result.eps_tilde_max, 1e-4), 80)
        grid = condition_surface(eps, E, t, u, alphas, ets)
        et_texts = [repr(et) for et in ets.tolist()]
        rows = [[a_text, et_text, repr(margin)]
                for a_text, grid_row in zip(map(repr, alphas.tolist()), grid.tolist())
                for et_text, margin in zip(et_texts, grid_row)]
        _write_table(out, "condition_surface", ["alpha", "eps_tilde", "margin_vs_eps0"],
                     rows, cfg["format"])
    return EXIT_OK


def cmd_resources(cfg: dict, out: Path | None) -> int:
    report = resource_report(cfg["n"], cfg["m0"], cfg["eps_tilde"], cfg["sigma"])
    print(f"rounding factor log2(1+4/(cbrt(4(2+et))-2)) = {report.k_factor_real:.4f} "
          f"(ceiled {report.k_factor_int}), k = {report.k_factor_int}*2^(2q+2m0)")
    if report.corollary_q is None:
        print(f"warning: n={cfg['n']} <= 2(m0+5)={2 * (cfg['m0'] + 5)}: "
              "outside the closed-form regime")
    else:
        print(f"closed-form budget q <= {report.corollary_q}")
    print(f"numeric q_max = {report.q_max}")
    print(f"cutoff error scale log2(lambda^(2^m0)) = {report.cutoff_error_log2:.4f}")
    if out is not None:
        payload = {"schema": "cvqpv.resources/1", **report.__dict__}
        payload["cutoff_error_log2"] = _finite_or_none(report.cutoff_error_log2)
        _write_json(out / "resources.json", payload)
    return EXIT_OK if report.q_max >= 0 else EXIT_INFEASIBLE


def cmd_rounds(cfg: dict, out: Path | None) -> int:
    try:
        plan = rounds_required(cfg["eps"], cfg["u"], cfg["eps_hon"], eps_unit=cfg["eps_unit"])
    except NoMarginError as exc:
        print(f"no margin: {exc}")
        if out is not None:
            _write_json(out / "rounds.json",
                        {"schema": "cvqpv.rounds/1", "feasible": False, "reason": str(exc)})
        return EXIT_INFEASIBLE
    print(f"N = {plan.N}, gamma = {_fixed_or_exp(plan.gamma)}, "
          f"Delta = {_fixed_or_exp(plan.delta)}, "
          f"score variance = {_fixed_or_exp(plan.score_variance)}")
    if out is not None:
        _write_json(out / "rounds.json",
                    {"schema": "cvqpv.rounds/1", "feasible": True, **plan.__dict__})
    return EXIT_OK


def cmd_simulate(cfg: dict, out: Path | None, trace: bool = False) -> int:
    ch = ChannelParams(cfg["t"], cfg["u"])
    N = cfg["rounds"]
    if N == 0:
        try:
            plan = rounds_required(cfg["eps"], cfg["u"], cfg["eps_hon"],
                                   eps_unit=cfg["eps_unit"])
        except NoMarginError as exc:
            print(f"no margin: {exc}")
            if out is not None:
                _write_json(out / "simulate.json",
                            {"schema": "cvqpv.simulate/1", "feasible": False, "reason": str(exc)})
            return EXIT_INFEASIBLE
        N = plan.N
    params = ProtocolParams(sigma=cfg["sigma"], n=cfg["n"], N=N, eps_hon=cfg["eps_hon"],
                            f_seed=cfg["seed"])
    honest = HonestProver(ch)
    attacker = make_pessimistic_attacker(cfg["eps"], ch, cfg["eps_unit"])
    honest_rate = acceptance_rate(params, ch, honest, cfg["sessions"], cfg["seed"])
    attack_rate = acceptance_rate(params, ch, attacker, cfg["sessions"], cfg["seed"] + 1)
    flags = sorted(ch.regime_flags())
    print(f"N = {N}, sessions = {cfg['sessions']}, gamma = {params.gamma:.6f}")
    print(f"honest acceptance rate   = {honest_rate:.4f}")
    print(f"attacker acceptance rate = {attack_rate:.4f}")
    if flags:
        print(f"regime flags: {', '.join(flags)}")
    if out is not None:
        _write_json(out / "simulate.json", {
            "schema": "cvqpv.simulate/1",
            "rounds": N,
            "sessions": cfg["sessions"],
            "gamma": params.gamma,
            "honest_acceptance": honest_rate,
            "attacker_acceptance": attack_rate,
            "regime_flags": flags,
        })
        if trace:
            traced = run_session(params, ch, honest, cfg["seed"], trace=True)
            if not math.isfinite(traced.mean_score):  # r draws overflow at sigma near 1e308
                raise ValueError("score terms leave float range: sigma is too large to trace")
            write_rounds_csv(traced, out / "honest_rounds.csv")
            write_session_json(traced, out / "honest_session.json")
    return EXIT_OK


def cmd_sweep(cfg: dict, out: Path | None) -> int:
    ns, m0s = range(cfg["n_lo"], cfg["n_hi"] + 1), range(cfg["m0_lo"], cfg["m0_hi"] + 1)
    if not ns or not m0s:
        raise ValueError("empty (n, m0) range")
    rows = []
    for n in ns:
        for m0 in m0s:
            report = resource_report(n, m0, cfg["eps_tilde"])
            rows.append([n, m0, report.k_factor_int, report.q_max,
                         report.corollary_q if report.corollary_q is not None else ""])
    print(f"swept {len(rows)} (n, m0) points at eps_tilde = {cfg['eps_tilde']}")
    if out is not None:
        _write_table(out, "resource_sweep", ["n", "m0", "k_factor", "q_max", "corollary_q"],
                     rows, cfg["format"])
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main() call."""
    parser = argparse.ArgumentParser(
        prog="cvqpv",
        description="Coherent-state position-verification security calculator and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("feasibility", "channel feasibility margin grid over (u,t)"),
        ("bounds", "maximize eps_tilde over alpha for the separation condition"),
        ("resources", "rounding size, counting bound and attacker qubit budget"),
        ("rounds", "Chebyshev round count for honest/attacker separation"),
        ("simulate", "Monte Carlo honest and attacker session batches"),
        ("sweep", "resource sweep over (n, m0)"),
    ]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", help="flat key=value config file")
        cmd.add_argument("--eps", type=float)
        cmd.add_argument("--energy", type=float)
        cmd.add_argument("--t", type=float)
        cmd.add_argument("--u", type=float)
        cmd.add_argument("--sigma", type=float)
        cmd.add_argument("--n", type=int)
        cmd.add_argument("--m0", type=int)
        cmd.add_argument("--eps-tilde", dest="eps_tilde", type=float)
        cmd.add_argument("--eps-hon", dest="eps_hon", type=float)
        cmd.add_argument("--rounds", type=int)
        cmd.add_argument("--sessions", type=int)
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--eps-unit", dest="eps_unit", choices=["nats", "bits"])
        cmd.add_argument("--out", help="output directory")
        cmd.add_argument("--format", choices=["csv", "json"])
        if name == "feasibility":
            cmd.add_argument("--u-steps", dest="u_steps", type=int)
            cmd.add_argument("--t-steps", dest="t_steps", type=int)
        if name == "sweep":
            cmd.add_argument("--n-lo", dest="n_lo", type=int)
            cmd.add_argument("--n-hi", dest="n_hi", type=int)
            cmd.add_argument("--m0-lo", dest="m0_lo", type=int)
            cmd.add_argument("--m0-hi", dest="m0_hi", type=int)
        if name == "simulate":
            cmd.add_argument("--trace", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = created = None
    try:
        cfg = resolve_config(args)
        if args.out is not None:
            out = Path(args.out)
            created = _make_out_dir(out)
        if args.command == "simulate":
            code = cmd_simulate(cfg, out, trace=args.trace)
        else:
            handler = {"feasibility": cmd_feasibility, "bounds": cmd_bounds,
                       "resources": cmd_resources, "rounds": cmd_rounds, "sweep": cmd_sweep}
            code = handler[args.command](cfg, out)
        _write_metadata(out, cfg)
        return code
    except (ValueError, OSError) as exc:
        # exit 1 leaves no partial output: drop what this call created, never more
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
