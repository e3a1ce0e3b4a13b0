"""Command-line front end.

``PARAMS`` has one row per configuration key: its type, default, domain,
the subcommands that take it and its help. The parser, the validation and
the metadata echo are built from it. Each subcommand (see ``COMMANDS``)
takes --config, --out, --seed and the keys of the rows that list it:

    feasibility  --u-steps --t-steps --format
    bounds       --eps --energy --t --u --format
    resources    --n --m0 --eps-tilde --sigma
    rounds       --eps --u --eps-hon --eps-unit
    simulate     --eps --t --u --sigma --n --eps-hon --rounds --sessions --eps-unit --trace
    sweep        --eps-tilde --n-lo --n-hi --m0-lo --m0-hi --format

A key resolves as: default < config file (flat key=value, '#' comments) <
flag. A config file may set any key of the table; a subcommand ignores the
keys it does not take, and a key outside the table is an error. An int key
with domain [0, 1], such as trace, also takes a bare flag, meaning 1. eps
is converted once, here, to the nats that cvqpv.attack works in. Every run
echoes its resolved keys into the output metadata; every file under --out,
the simulate trace included, is written by this module. Exit code 0 on
success, 2 on structured infeasible-parameter outcomes, 1 on errors, usage
errors and running out of memory included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .attack import (
    NoMarginError,
    attacker_entropy_floor,
    make_pessimistic_attacker,
    rounds_required,
)
from .bounds import condition_surface, eps_cap, linspace, log_grid, max_eps_tilde
from .channel import ChannelParams, feasibility_margin
from .gaussian import h_U_given_P_limit
from .protocol import (
    HonestProver,
    ProtocolParams,
    acceptance_rate,
    run_session,
)
from .resources import N_MAX, resource_report

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

COMMANDS = {
    "feasibility": "channel feasibility margin grid over (u,t)",
    "bounds": "maximize eps_tilde over alpha for the separation condition",
    "resources": "rounding size, counting bound and attacker qubit budget",
    "rounds": "Chebyshev round count for honest/attacker separation",
    "simulate": "Monte Carlo honest and attacker session batches",
    "sweep": "resource sweep over (n, m0)",
}


def _bound_text(x) -> str:
    """A domain bound as text; a power of two past 2^53, such as the seed's 2^64, as 2^k."""
    if type(x) is int and x > 2**53 and x & (x - 1) == 0:
        return f"2^{x.bit_length() - 1}"
    return f"{x:g}"


@dataclass(frozen=True)
class Interval:
    """The numbers from lo to hi; an open end leaves its bound out."""

    lo: float
    hi: float = math.inf
    open_lo: bool = False
    open_hi: bool = False

    def __contains__(self, x) -> bool:
        return ((self.lo < x if self.open_lo else self.lo <= x)
                and (x < self.hi if self.open_hi else x <= self.hi))

    def __str__(self) -> str:
        lo = _bound_text(self.lo)
        if self.hi == math.inf:
            return f"be {'>' if self.open_lo else '>='} {lo}"
        return (f"lie in {'(' if self.open_lo else '['}{lo}, "
                f"{_bound_text(self.hi)}{')' if self.open_hi else ']'}")


class Choices(tuple):
    """The allowed strings of a key."""

    def __str__(self) -> str:
        return "be " + " or ".join(map(repr, self))


class Param(NamedTuple):
    """One configuration key: a float or int must be finite and lie in domain."""

    name: str
    type: type
    default: object
    domain: Interval | Choices
    commands: str  # the subcommands that take the key, space-separated
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


UNIT, COUNT = Interval(0.0, 1.0, open_lo=True, open_hi=True), Interval(1)
SWITCH = Interval(0, 1)  # an int key in this domain also takes a bare flag, meaning 1
STRING_BITS = Interval(1, N_MAX)
NATS_PER = {"nats": 1.0, "bits": math.log(2.0)}  # nats in one unit of each eps_unit
# zero-config defaults reproduce the perfect-channel headline numbers
PARAMS = {p.name: p for p in [
    Param("eps", float, 0.1, Interval(0.0), "bounds rounds simulate", "entropy gap eps"),
    Param("energy", float, 1e3, Interval(0.0, open_lo=True), "bounds", "attacker energy bound E"),
    Param("t", float, 1.0, Interval(0.0, 1.0), "bounds simulate", "channel transmission t"),
    Param("u", float, 0.0, Interval(0.0), "bounds rounds simulate", "channel excess noise u"),
    Param("sigma", float, 10.0, Interval(0.0, open_lo=True), "resources simulate",
          "standard deviation of the Gaussian modulation"),
    Param("n", int, 30, STRING_BITS, "resources simulate", "input string bits"),
    Param("m0", int, 5, COUNT, "resources", "photon-number cutoff exponent: cutoff 2^m0"),
    Param("eps_tilde", float, 0.004, UNIT, "resources sweep", "entropy slack of the rounding"),
    Param("eps_hon", float, 0.01, UNIT, "rounds simulate", "honest failure budget"),
    Param("rounds", int, 0, Interval(0), "simulate", "rounds N per session, 0: Chebyshev plan"),
    Param("sessions", int, 200, COUNT, "simulate", "sessions per acceptance-rate batch"),
    Param("seed", int, 0, Interval(0, 2**64, open_hi=True), " ".join(COMMANDS), "master seed"),
    Param("eps_unit", str, "nats", Choices(NATS_PER), "rounds simulate", "unit of eps"),
    Param("trace", int, 0, SWITCH, "simulate", "1: also write one traced honest session"),
    Param("format", str, "csv", Choices(["csv", "json"]), "feasibility bounds sweep",
          "table file format"),
    Param("u_steps", int, 31, COUNT, "feasibility", "grid points in u over [0, 0.3]"),
    Param("t_steps", int, 26, COUNT, "feasibility", "grid points in t over [0.5, 1]"),
    Param("n_lo", int, 22, STRING_BITS, "sweep", "smallest n of the sweep"),
    Param("n_hi", int, 40, STRING_BITS, "sweep", "largest n of the sweep"),
    Param("m0_lo", int, 1, COUNT, "sweep", "smallest m0 of the sweep"),
    Param("m0_hi", int, 10, COUNT, "sweep", "largest m0 of the sweep"),
]}

TABLE_POINTS = [  # reference (eps, t, u) channel points
    (0.03, 0.8, 0.05),
    (0.03, 0.9, 0.12),
    (0.07, 0.95, 0.075),
]


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


def _checked(p: Param, raw):
    """raw as the key's type, if it converts, is finite and lies in the key's domain."""
    try:
        value = p.type(raw)
    except (TypeError, ValueError):
        kind = "a number" if p.type is float else "an integer"
        raise ValueError(f"{p.name}: not {kind} ({raw!r})") from None
    if p.type is float and not math.isfinite(value):
        raise ValueError(f"{p.name}: must be finite ({value!r})")
    if value not in p.domain:
        raise ValueError(f"{p.name}: must {p.domain}")
    return value


def resolve_config(args: argparse.Namespace) -> dict:
    params = [p for p in PARAMS.values() if args.command in p.commands.split()]
    raw = {p.name: p.default for p in params}
    if args.config:
        for key, value in read_config_file(args.config).items():
            if key not in PARAMS:
                raise ValueError(f"unknown config key {key!r}")
            if key in raw:
                raw[key] = value
    cfg, errors = {}, []
    for p in params:
        flag_value = getattr(args, p.name)
        try:
            cfg[p.name] = _checked(p, raw[p.name] if flag_value is None else flag_value)
        except ValueError as exc:
            errors.append(str(exc))
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


_CSV_CHUNK_ROWS = 8192  # rows per write
# ",theta," by basis bit, theta = pi/2 * bit, in repr's text
_THETA_CELLS = tuple(f",{theta!r},".encode() for theta in (0.0, math.pi / 2.0))
# orjson prints a float in repr's text wherever repr uses plain decimals, and for +-0.0
_PLAIN_LO, _PLAIN_HI = 1e-4, 1e16


def _csv_chunk(trace, lo: int, hi: int) -> bytes:
    """The CSV bytes of the trace's rows lo <= i < hi.

    r, r_prime and score_term are one (m, 3) float array, dumped once by
    orjson and split into row texts; a row holding a float outside orjson's
    repr range is rewritten from repr. The index cells come from one dump of
    the indices and the theta cells from _THETA_CELLS. No cell holds a comma
    or quote, so this is RFC-4180 as it stands. Its temporaries die when it
    returns, before the next chunk's are made.
    """
    import orjson  # not at module top: its import would slow every subcommand's start

    block = trace.r[lo:hi].repeat(3).reshape(-1, 3)  # C order, r in column 0
    block[:, 1] = trace.r_prime[lo:hi]
    block[:, 2] = trace.score_term[lo:hi]
    floats = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).split(b"],[")
    floats[0] = floats[0][2:]  # "[[" opens the first row; a one-row chunk is one element
    floats[-1] = floats[-1][:-2]  # and "]]" closes the last
    size = abs(block)
    odd = ((size < _PLAIN_LO) & (block != 0.0) | ~(size < _PLAIN_HI)).any(axis=1)
    for k in odd.nonzero()[0].tolist():  # NaN and +-inf land here: orjson writes them as null
        floats[k] = ("%r,%r,%r" % tuple(block[k].tolist())).encode()
    parts = [b"\r\n"] * (4 * (hi - lo))
    parts[0::4] = orjson.dumps(list(range(lo, hi)))[1:-1].split(b",")
    parts[1::4] = map(_THETA_CELLS.__getitem__, trace.basis[lo:hi].tolist())
    parts[2::4] = floats
    return b"".join(parts)


def _csv_rows(trace):
    """The CSV bytes of the trace's rows, _CSV_CHUNK_ROWS rows at a time."""
    n = len(trace.r)
    for lo in range(0, n, _CSV_CHUNK_ROWS):
        yield _csv_chunk(trace, lo, min(lo + _CSV_CHUNK_ROWS, n))


def write_rounds_csv(trace, path: Path) -> None:
    """Per-round trace of a traced session as CSV; a failed write leaves no file.

    Every cell holds repr's text of its value: theta is pi/2 * f(x, y),
    looked up by basis bit.
    """
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(b"index,theta,r,r_prime,score_term\r\n")
            fh.writelines(_csv_rows(trace))
    except BaseException:
        os.unlink(path)
        raise


def write_session_json(result, path: Path, responder: str, flags: list) -> None:
    _write_json(path, {
        "schema": "cvqpv.session/1",
        "responder": responder,
        "n_rounds": result.n_rounds,
        "mean_score": result.mean_score,
        "gamma": result.gamma,
        "accepted": result.accepted,
        "regime_flags": flags,
    }, sort_keys=True)


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
    csv.writer would quote, raise ValueError instead. The stdlib writers are
    slower: on the 6,400-row condition_surface, csv.writer took 18 ms against
    11 ms here, and json.dumps(indent=2), which runs the pure-Python encoder
    once indented, 30 ms against 16 ms (median of 40 writes, 2 vCPU).
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
    t_values = linspace(0.5, 1.0, cfg["t_steps"])
    t_texts = [repr(t) for t in t_values]
    rows = []
    for u in linspace(0.0, 0.3, cfg["u_steps"]):
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
    cap = eps_cap(t, u)
    print(f"eps cap (1/2)log2(4t/(e(1+2u))) = {cap:.6f}")
    if not result.feasible:
        print("no positive eps_tilde: channel infeasible or eps above its cap")
        if out is not None:
            _write_json(out / "bounds.json", {"schema": "cvqpv.bounds/1", "feasible": False,
                                              "eps_cap": _finite_or_none(cap)})
        return EXIT_INFEASIBLE
    print(f"max eps_tilde = {result.eps_tilde_max:.6g} at alpha = {result.alpha_star:.6g}")
    honest = h_U_given_P_limit(t, u)
    floor = attacker_entropy_floor(ChannelParams(t, u), eps)
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
        alphas = log_grid(1e-4, 0.5, 80)
        ets = linspace(1e-5, max(4.0 * result.eps_tilde_max, 1e-4), 80)
        grid = condition_surface(E, t, u, alphas, ets)
        et_texts = [repr(et) for et in ets]
        rows = [[a_text, et_text, repr(margin)]
                for a_text, grid_row in zip(map(repr, alphas), grid)
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


def _round_plan(cfg: dict, out: Path | None, name: str):
    """The Chebyshev round plan, or None once the no-margin outcome is printed and written."""
    try:
        return rounds_required(cfg["eps"] * NATS_PER[cfg["eps_unit"]], cfg["u"], cfg["eps_hon"])
    except NoMarginError as exc:
        print(f"no margin: {exc}")
        if out is not None:
            _write_json(out / f"{name}.json",
                        {"schema": f"cvqpv.{name}/1", "feasible": False, "reason": str(exc)})
        return None


def cmd_rounds(cfg: dict, out: Path | None) -> int:
    plan = _round_plan(cfg, out, "rounds")
    if plan is None:
        return EXIT_INFEASIBLE
    print(f"N = {plan.N}, gamma = {_fixed_or_exp(plan.gamma)}, "
          f"Delta = {_fixed_or_exp(plan.delta)}, "
          f"score variance = {_fixed_or_exp(plan.score_variance)}")
    if out is not None:
        _write_json(out / "rounds.json",
                    {"schema": "cvqpv.rounds/1", "feasible": True, **plan.__dict__})
    return EXIT_OK


def cmd_simulate(cfg: dict, out: Path | None) -> int:
    ch = ChannelParams(cfg["t"], cfg["u"])
    N = cfg["rounds"]
    if N == 0:
        plan = _round_plan(cfg, out, "simulate")
        if plan is None:
            return EXIT_INFEASIBLE
        N = plan.N
    params = ProtocolParams(sigma=cfg["sigma"], n=cfg["n"], N=N, eps_hon=cfg["eps_hon"],
                            f_seed=cfg["seed"])
    honest = HonestProver(ch)
    attacker = make_pessimistic_attacker(cfg["eps"] * NATS_PER[cfg["eps_unit"]], ch)
    honest_rate = acceptance_rate(params, ch, honest, cfg["sessions"], cfg["seed"])
    attack_rate = acceptance_rate(params, ch, attacker, cfg["sessions"], cfg["seed"] + 1)
    flags = sorted(ch.regime_flags())
    print(f"N = {N}, sessions = {cfg['sessions']}, gamma = {params.gamma:.6f}")
    print(f"honest acceptance rate   = {honest_rate:.4f}")
    print(f"attacker acceptance rate = {attack_rate:.4f}")
    if flags:
        print(f"regime flags: {', '.join(flags)}")
    if out is None:
        return EXIT_OK
    if cfg["trace"]:  # traced and checked before the first write
        traced = run_session(params, ch, honest, cfg["seed"], trace=True)
        if not math.isfinite(traced.mean_score):  # r draws overflow at sigma near 1e308
            raise ValueError("score terms leave float range: sigma is too large to trace")
        # past this, r' - sqrt(t) r loses more than 1e-6 of the response noise to rounding
        if abs(traced.records.r).max() * 2.0**-52 > 1e-6 * math.sqrt(0.5 + cfg["u"]):
            raise ValueError("float64 cannot resolve the score terms: sigma is too large to trace")
        write_rounds_csv(traced.records, out / "honest_rounds.csv")
        write_session_json(traced, out / "honest_session.json", honest.name, flags)
    _write_json(out / "simulate.json", {
        "schema": "cvqpv.simulate/1",
        "rounds": N,
        "sessions": cfg["sessions"],
        "gamma": params.gamma,
        "honest_acceptance": honest_rate,
        "attacker_acceptance": attack_rate,
        "regime_flags": flags,
    })
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is exit 1, like any other error
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every main() call.

    Abbreviated flags are refused, so that a flag a subcommand does not take
    is an error rather than a prefix of one it does (feasibility --t).
    """
    parser = _Parser(
        prog="cvqpv", allow_abbrev=False,
        description="Coherent-state position-verification security calculator and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext, allow_abbrev=False)
        cmd.add_argument("--config", help="flat key=value config file")
        cmd.add_argument("--out", help="output directory")
        for p in PARAMS.values():
            if name in p.commands.split():
                bare = {"nargs": "?", "const": "1"} if (p.type, p.domain) == (int, SWITCH) else {}
                cmd.add_argument(p.flag, dest=p.name, metavar=p.type.__name__.upper(),
                                 help=f"{p.help}; must {p.domain} (default {p.default})", **bare)
    return parser


def main(argv=None) -> int:
    out = created = None
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        if args.out is not None:
            out = Path(args.out)
            created = _make_out_dir(out)
        # handlers are looked up per call, so a replaced module attribute is what runs
        code = globals()[f"cmd_{args.command}"](cfg, out)
        _write_metadata(out, cfg)
        return code
    except (ValueError, OSError, MemoryError, ImportError) as exc:
        # exit 1 leaves no partial output: drop what this call created, never more
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
