"""Command-line front end: campaigns, sweeps, tables, analysis reports.

Every stochastic subcommand requires an explicit --seed so published
numbers stay reproducible; identical argv plus identical input files give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analysis import LmlParams, format_flip_matrix, gdbf_flip_matrix, lml_flip_matrix
from .channel import QuantizerSpec
from .codes import load_alist
from .gdbf import MAX_ITERATIONS
from .harness import (SWEEPABLE, ConfigError, DecoderSetup, NgdbfParams, load_config,
                      run_campaign, run_convergence, run_sweep)
from .noisy import adaptation_events


def _write_or_print(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when none is given."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out} ({exc.strerror})") from exc


def _at_least(minimum: int, maximum: int | None = None):     # an argparse type
    def integer(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, not {text}")
        if maximum is not None and int(text) > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, not {text}")
        return int(text)
    return integer


def _cmd_code_info(args) -> int:
    code = load_alist(args.code)
    cols, rows = code.degree_histograms()
    print(f"n = {code.n}")
    print(f"m = {code.m}")
    print(f"rate = {code.rate} ({float(code.rate):.4f})")
    print(f"edges = {code.n_edges}")
    print("column degrees: " + ", ".join(f"{d}x{c}" for d, c in sorted(cols.items())))
    print("row degrees:    " + ", ".join(f"{d}x{c}" for d, c in sorted(rows.items())))
    return 0


def _cmd_adapt_table(args) -> int:
    quantizer = QuantizerSpec(q_bits=args.q, y_max=args.ymax)
    lines = ["i,theta_level,tau"]
    lines += [f"{i},{lvl:.10g},{tau}"
              for i, lvl, tau in adaptation_events(args.theta, args.lam, quantizer, args.t)]
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_flip_matrix(args) -> int:
    quantizer = QuantizerSpec(q_bits=args.q, y_max=args.ymax)
    if args.mode == "lml":
        for name in ("sigma", "pe", "dc"):
            if getattr(args, name) is None:
                raise ConfigError(f"--{name} is required in lml mode")
        fm = lml_flip_matrix(LmlParams(sigma=args.sigma, quantizer=quantizer,
                                       d_v=args.dv, d_c=args.dc, p_e=args.pe))
    else:
        if args.theta is None:
            raise ConfigError("--theta is required in gdbf mode")
        fm = gdbf_flip_matrix(args.theta, args.w, quantizer, args.dv)

    header = "level," + ",".join(f"S{s:+d}" for s in fm.col_sums)
    lines = [header]
    for lvl, row in zip(fm.row_levels, fm.entries):
        lines.append(f"{lvl:.10g}," + ",".join(str(int(v)) for v in row))
    csv_text = "\n".join(lines) + "\n"
    print(format_flip_matrix(fm))
    if args.out:
        _write_or_print(csv_text, args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config, master_seed=args.seed)
    result = run_campaign(config, workers=args.workers)
    _write_or_print(result.to_csv(), args.out)
    if args.json_out:
        _write_or_print(result.to_json(), args.json_out)
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config, master_seed=args.seed)
    grid = [float(v) for v in args.grid.split(",") if v.strip()]
    results = run_sweep(config, args.param, grid, workers=args.workers)
    lines = ["param,value,ebn0_db,frames,bit_errors,frame_errors,ber,fer,avg_iters"]
    for value, res in results:
        for pt in res.points:
            d = pt.as_dict()
            lines.append(
                f"{args.param},{value:.10g},{d['ebn0_db']:.10g},{d['frames']},"
                f"{d['bit_errors']},{d['frame_errors']},{d['ber']:.10g},"
                f"{d['fer']:.10g},{d['avg_iters']:.10g}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_convergence(args) -> int:
    code = load_alist(args.code)
    params = {"sgdbf": dict(w=1.0), "sngdbf": dict(eta=1.0, w=args.w), "mgdbf": dict(w=1.0),
              "atgdbf": dict(lam=args.lam, w=1.0),
              "mngdbf": dict(lam=args.lam, eta=args.eta, w=args.w)}
    setups = {name: DecoderSetup(name, NgdbfParams(theta=args.theta, t_max=args.t, **kw))
              for name, kw in params.items()}
    eps = run_convergence(code, setups, args.ebn0, args.frames, args.seed,
                          y_max=args.ymax)
    lines = ["decoder,epsilon"]
    lines += [f"{name},{value:.10g}" for name, value in eps.items()]
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ngdbf",
        description="Bit-flip LDPC decoding lab: simulation campaigns and analysis tools")
    sub = parser.add_subparsers(dest="command", required=True)
    workers = os.cpu_count() or 1   # default and bound: a pool starts all its workers at once

    p = sub.add_parser("code-info", help="print block size, rate and degree histograms")
    p.add_argument("--code", required=True, help="alist file")
    p.set_defaults(func=_cmd_code_info)

    p = sub.add_parser("adapt-table", help="print threshold adaptation events as CSV")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--q", type=int, required=True, help="quantizer bits")
    p.add_argument("--ymax", type=float, required=True)
    p.add_argument("--t", type=_at_least(1, MAX_ITERATIONS), default=300,
                   help="iteration limit scanned")
    p.add_argument("--out", help="CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_adapt_table)

    p = sub.add_parser("flip-matrix", help="emit a flip-decision matrix")
    p.add_argument("--mode", choices=("lml", "gdbf"), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ymax", type=float, required=True)
    p.add_argument("--dv", type=int, required=True)
    p.add_argument("--dc", type=int, help="check degree (lml mode)")
    p.add_argument("--sigma", type=float, help="channel noise std (lml mode)")
    p.add_argument("--pe", type=float, help="bit error probability (lml mode)")
    p.add_argument("--theta", type=float, help="threshold (gdbf mode)")
    p.add_argument("--w", type=float, default=0.75, help="syndrome weight (gdbf mode)")
    p.add_argument("--out", help="CSV destination")
    p.set_defaults(func=_cmd_flip_matrix)

    p = sub.add_parser("simulate", help="run a Monte Carlo campaign from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--out", required=True, help="CSV destination")
    p.add_argument("--json-out", help="optional JSON mirror of the statistics")
    p.add_argument("--workers", type=_at_least(1, workers), default=workers)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="sweep one parameter over a grid")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--param", choices=SWEEPABLE, required=True)
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=_at_least(1, workers), default=workers)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("convergence",
                       help="terminal objective deficit per decoder over shared frames")
    p.add_argument("--code", required=True)
    p.add_argument("--ebn0", type=float, required=True)
    p.add_argument("--frames", type=_at_least(1), default=100)
    p.add_argument("--t", type=_at_least(1, MAX_ITERATIONS), default=100)
    p.add_argument("--seed", type=_at_least(0), required=True)
    p.add_argument("--theta", type=float, default=-0.9)
    p.add_argument("--lambda", dest="lam", type=float, default=0.99)
    p.add_argument("--eta", type=float, default=0.95)
    p.add_argument("--w", type=float, default=0.75)
    p.add_argument("--ymax", type=float, default=2.5)
    p.add_argument("--out", help="CSV destination (default: stdout)")
    p.set_defaults(func=_cmd_convergence)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()      # a closed stdout shows here, not at interpreter exit
        return status
    except BrokenPipeError:     # the reader stopped early; the exit flush must not fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141              # 128 + SIGPIPE, as the shell reports a tool it ended
    except OSError as exc:      # writes are reported by _write_or_print
        print(f"error: cannot read {exc.filename} ({exc.strerror})", file=sys.stderr)
        return 1
    except ValueError as exc:   # ConfigError and AlistError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
