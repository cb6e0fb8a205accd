"""Command-line entry points for the benchmark workflow.

Subcommands: ``train`` (offline stage), ``reduce`` (sampling-dependent
fits), ``simulate`` (one online run), ``compare`` (full sweep), and
``verify-dt`` (Richardson timestep study).  A command that fails on bad
input or a missing file prints one ``lagrom <command>: <message>`` line to
standard error and exits with status 1.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .bench import (ExperimentConfig, OnlineResult, load_offline, load_reduced,
                    online_points, reduce_products, run_comparison, run_offline,
                    run_online, save_offline, save_reduced, verify_timestep,
                    write_trajectory_csv)
from .roms import VARIANTS
from .spd_approx import rbs_relative_residual

TRAINING_ARCHIVE = "training.lgrm"


def _load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(json.loads(Path(path).read_text()))


def _parse_mu(text) -> np.ndarray:
    """The ``--mu`` value: a JSON list of real numbers, booleans excluded."""
    try:
        values = json.loads(text)
        if isinstance(values, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in values):
            return np.array(values, dtype=float)
    # Not JSON (JSONDecodeError is a ValueError), or an integer beyond float.
    except (OverflowError, ValueError):
        pass
    raise ValueError("--mu must be a JSON list of numbers: %r" % text)


def _reduced_path(outdir: Path, percent: float) -> Path:
    return outdir / ("reduced_p%g.lgrm" % percent)


def cmd_train(args) -> int:
    config = _load_config(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    offline = run_offline(config)
    save_offline(outdir / TRAINING_ARCHIVE, offline)
    print("trained: basis dimension %d, %d training points"
          % (offline.n, len(offline.mu_train)))
    return 0


def cmd_reduce(args) -> int:
    outdir = Path(args.out)
    offline = load_offline(outdir / TRAINING_ARCHIVE)
    reduced = reduce_products(offline, args.percent)
    save_reduced(_reduced_path(outdir, args.percent), reduced)
    print("reduced at %g%%: m=%d, rbs relative residual %.3e"
          % (args.percent, reduced.sample_set.m,
             rbs_relative_residual(reduced.rbs_map, offline.mass_snapshots,
                                   offline.phi)))
    return 0


def cmd_simulate(args) -> int:
    outdir = Path(args.out)
    offline = load_offline(outdir / TRAINING_ARCHIVE)
    if args.mu is not None:
        mu = _parse_mu(args.mu)
    else:
        points = online_points(offline.config)
        if not 0 <= args.online_index < len(points):
            raise ValueError("--online-index must be in [0, %d), got %d"
                             % (len(points), args.online_index))
        mu = points[args.online_index]
    path = _reduced_path(outdir, args.percent)
    if path.exists():
        reduced = load_reduced(path, offline)
    else:
        reduced = reduce_products(offline, args.percent)
    result: OnlineResult = run_online(offline, reduced, mu, args.variant,
                                      record_energy=offline.config.conservative)
    traj = result.trajectory
    out_csv = outdir / ("simulate_%s_p%g.csv" % (args.variant, args.percent))
    write_trajectory_csv(out_csv, traj)
    print("variant %s at %g%%: stable=%s, %d steps, online %.3fs -> %s"
          % (args.variant, args.percent, traj.stable, traj.n_steps,
             result.rom_seconds, out_csv))
    return 0 if traj.stable else 1


def cmd_compare(args) -> int:
    config = _load_config(args.config)
    outdir = Path(args.out)
    report = run_comparison(config, outdir=outdir)
    unstable = [r for r in report.rows if not r.stable]
    print("compare: %d runs, %d unstable; artifacts in %s"
          % (len(report.rows), len(unstable), outdir))
    return 0


def cmd_verify_dt(args) -> int:
    config = _load_config(args.config)
    result = verify_timestep(config, dt=args.dt, horizon=args.horizon)
    print("dt=%.6g over horizon %.4g s: observed rate %.4f, "
          "extrapolated error %.3e"
          % (result["dt"], result["horizon"], result["rate"],
             result["error_estimate"]))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagrom",
        description="Structure-preserving reduced-order model benchmark")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable info logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the offline stage")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reduce", help="fit sampling-dependent products")
    p.add_argument("--out", required=True)
    p.add_argument("--percent", type=float, required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("simulate", help="one online reduced run")
    p.add_argument("--out", required=True)
    p.add_argument("--percent", type=float, required=True)
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--online-index", type=int, default=0)
    p.add_argument("--mu", help="explicit 16-entry JSON parameter vector")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="full comparison sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify-dt", help="Richardson timestep study")
    p.add_argument("--config", required=True)
    p.add_argument("--dt", type=float)
    p.add_argument("--horizon", type=float)
    p.set_defaults(func=cmd_verify_dt)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (OSError, RuntimeError, ValueError) as exc:
        print("lagrom %s: %s" % (args.command, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
