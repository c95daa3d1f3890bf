"""Command line interface: ``orbitq {fluid,simulate,erlang,oracle,validate}``.

Every subcommand reads a JSON schedule config, writes its artifacts under
--out via write-then-rename, and exits 0 only when all outputs landed.
Failures print one line to stderr and exit nonzero. Given identical flags
(seed included), output files are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .artifacts import write_json
from .model import ParameterError, check_tau, load_config
# bench/tracing.py patches total_arrival_rate here by name, so the import
# stays although no command calls it from this module
from .fluid import (
    FluidIntegrationError,
    integrate_schedule,
    stationary_state,
    total_arrival_rate,
    write_trajectory_csv,
)
from .ctmc import CTMCError, build_chain, solve_stationary, write_fixture_json
from .erlang import psa_performance, write_performance_csv
from .simulation import (
    SimulationError,
    run_replications,
    write_metadata_json,
    write_path_csv,
    write_records_csv,
    write_summary_csv,
)
from .validation import (
    DEFAULT_RHO_GRID,
    format_markdown,
    refine_schedule,
    run_multi_interval_table,
    run_single_interval_table,
    run_sl_ap_table,
    single_interval_family,
    write_error_table_csv,
    write_sl_ap_table_csv,
)

# ValueError covers ParameterError, malformed JSON and malformed flag values
_HANDLED = (
    ValueError,
    FluidIntegrationError,
    CTMCError,
    SimulationError,
    OSError,
)


def _atomic(path: Path, writer) -> Path:
    """Write through a sibling temp file, then rename into place."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _done(path: Path) -> None:
    print(f"wrote {path}")


def cmd_fluid(args) -> int:
    schedule = load_config(args.config)
    out = _out_dir(args)
    traj = integrate_schedule(schedule, grid_step=args.grid)
    _done(_atomic(out / "trajectory.csv",
                  lambda p: write_trajectory_csv(p, traj, schedule)))

    intervals = []
    for i, (t0, t1, lam, s) in enumerate(schedule.intervals()):
        st = stationary_state(schedule.params_for(i))
        intervals.append({
            "index": i, "t_start": t0, "t_end": t1, "lambda": lam, "s": s,
            "rho_hat": st.rho_hat, "regime": st.regime.value,
            "z_q": st.state.z_q, "z_rd": st.state.z_rd, "z_rc": st.state.z_rc,
        })
    final = traj.final_state
    payload = {
        "intervals": intervals,
        "final_state": {"t": float(traj.grid[-1]), "z_q": final.z_q,
                        "z_rd": final.z_rd, "z_rc": final.z_rc},
        "regime_switches": traj.regime_switches,
    }
    _done(_atomic(out / "stationary.json", lambda p: write_json(p, payload)))
    return 0


def cmd_simulate(args) -> int:
    schedule = load_config(args.config)
    out = _out_dir(args)
    summary = run_replications(schedule, r=args.reps, base_seed=args.seed,
                               grid_step=args.grid, tau=args.tau)
    if args.reps == 1:
        path = summary.first_path
        _done(_atomic(out / "path.csv",
                      lambda p: write_path_csv(p, path, schedule)))
        _done(_atomic(out / "records.csv",
                      lambda p: write_records_csv(p, path)))
    _done(_atomic(out / "summary.csv",
                  lambda p: write_summary_csv(p, summary)))
    extra = {
        "tau": args.tau,
        "sl": summary.sl,
        "ap": summary.ap,
        "sl_ci95_half_width": summary.sl_half_width,
        "ap_ci95_half_width": summary.ap_half_width,
        "n_served": summary.n_served,
        "n_abandoned": summary.n_abandoned,
    }
    _done(_atomic(out / "metadata.json",
                  lambda p: write_metadata_json(p, args.seed, args.reps,
                                                args.grid, extra)))
    return 0


def cmd_erlang(args) -> int:
    schedule = load_config(args.config)
    if math.isnan(args.block):
        raise ParameterError("--block must be a number, got nan")
    if args.block > 0:
        schedule = refine_schedule(schedule, args.block)
    out = _out_dir(args)
    perf = psa_performance(schedule, tau=args.tau)
    _done(_atomic(out / "performance.csv",
                  lambda p: write_performance_csv(p, perf)))
    return 0


def cmd_oracle(args) -> int:
    schedule = load_config(args.config)
    if schedule.m != 1:
        raise ParameterError(
            "oracle needs a time-homogeneous model; config must have "
            f"exactly one interval, got {schedule.m}"
        )
    try:
        caps = tuple(int(c) for c in args.caps.split(","))
    except ValueError:
        raise ParameterError(f"--caps must be three integers, got {args.caps!r}")
    if len(caps) != 3:
        raise ParameterError(f"--caps must be three integers, got {args.caps!r}")
    out = _out_dir(args)
    chain = build_chain(schedule.params_for(0), caps)
    solution = solve_stationary(chain)
    _done(_atomic(out / "oracle.json",
                  lambda p: write_fixture_json(p, chain, solution)))
    return 0


def cmd_validate(args) -> int:
    schedule = load_config(args.config)
    base = schedule.params_for(0)
    rho_grid = tuple(float(x) for x in args.rho_grid.split(","))
    out = _out_dir(args)

    if args.table == "single":
        rows = run_single_interval_table(
            base, rho_grid, r=args.reps, horizon=schedule.horizon,
            base_seed=args.seed, grid_step=args.grid)
        csv_path = _atomic(out / "table_single.csv",
                           lambda p: write_error_table_csv(p, rows))
    elif args.table == "multi":
        rows = run_multi_interval_table(
            base, rho_grid, r=args.reps,
            base_seed=args.seed, grid_step=args.grid)
        csv_path = _atomic(out / "table_multi.csv",
                           lambda p: write_error_table_csv(p, rows))
    else:
        family = single_interval_family(base, rho_grid, horizon=schedule.horizon)
        rows = run_sl_ap_table(family, tau=args.tau, r=args.reps,
                               base_seed=args.seed, grid_step=args.grid)
        csv_path = _atomic(out / "table_slap.csv",
                           lambda p: write_sl_ap_table_csv(p, rows))
    _done(csv_path)

    if args.markdown:
        text = format_markdown(rows)
        md_path = csv_path.with_suffix(".md")
        _done(_atomic(md_path, lambda p: p.write_text(text, encoding="utf-8")))
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitq",
        description="Call center fluid, simulation, and Erlang-A toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, reps_default=100):
        p.add_argument("--config", required=True,
                       help="JSON schedule config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--step", type=float, default=0.01,
                       help="ignored: the fluid path is exact on the --grid "
                            "nodes; accepted so older command lines still run")
        p.add_argument("--grid", type=float, default=0.1,
                       help="output grid spacing in minutes (default 0.1; unused by erlang)")
        p.add_argument("--seed", type=int, default=424242,
                       help="base RNG seed (default 424242)")
        p.add_argument("--reps", type=int, default=reps_default,
                       help=f"replication count (default {reps_default})")
        p.add_argument("--tau", type=float, default=0.5,
                       help="service level threshold in minutes (default 0.5)")

    p = sub.add_parser("fluid", help="integrate the fluid ODE")
    common(p)
    p.set_defaults(func=cmd_fluid)

    p = sub.add_parser("simulate", help="run stochastic replications")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("erlang", help="pointwise stationary Erlang-A pipeline")
    common(p)
    p.add_argument("--block", type=float, default=60.0,
                   help="max analytic block length in minutes; <= 0 keeps "
                        "the config intervals as-is (default 60)")
    p.set_defaults(func=cmd_erlang)

    p = sub.add_parser("oracle", help="truncated CTMC steady state")
    common(p)
    p.add_argument("--caps", default="60,40,40",
                   help="truncation caps N_Q,N_RD,N_RC (default 60,40,40)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate", help="reproduce comparison tables")
    common(p)
    p.add_argument("--table", choices=("single", "multi", "slap"),
                   required=True, help="which table to build")
    p.add_argument("--rho-grid", default=",".join(str(r) for r in DEFAULT_RHO_GRID),
                   help="comma separated target loads")
    p.add_argument("--markdown", action="store_true",
                   help="also write and print an aligned text table")
    p.set_defaults(func=cmd_validate)

    return parser


def _check_common(args) -> None:
    """Refuse a shared flag value no subcommand can use, before any work."""
    for flag in ("grid", "step"):
        value = getattr(args, flag)
        if not 0 < value < math.inf:
            raise ParameterError(f"--{flag} must be finite and > 0, got {value}")
    check_tau(args.tau)
    if args.reps < 1:
        raise ParameterError(f"--reps must be >= 1, got {args.reps}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_common(args)
        return args.func(args)
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
