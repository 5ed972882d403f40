"""Command line interface.

Exit codes: 0 success, 1 infeasible problem, 2 bad configuration or
arguments, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import harness, lqr, sysid
from .config import check_seed, load_scenario
from .errors import ConfigError, InfeasibleError, NumericalError
from .tables import format_value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modru",
        description="Model reduction based planning and control toolchain")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in [
            ("simulate", "run the open-loop excitation experiment"),
            ("estimate", "generate data and fit the reduced model"),
            ("plan", "solve the timing problem; write the plan and its node reference"),
            ("pipeline", "full pipeline with all artifacts written"),
            ("compare-slope", "pipeline with and without slope knowledge"),
            ("robustness", "controller design sweep over plant parasitics")]:
        p = sub.add_parser(name, help=descr)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        if name == "robustness":
            p.add_argument("--taus", default="0.2,0.1,0.05,0.02,0.01,0",
                           help="comma separated parasitic time constants")
            p.add_argument("--methods", default=",".join(lqr.METHODS))
        else:
            p.add_argument("--config", default=None, help="key = value config file")
    return parser


def _out_dir(args) -> Path:
    """The output directory, made if missing; an unusable path is a ConfigError."""
    out = Path(args.out) if args.out else Path("out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out}: {exc.strerror}") from None
    return out


def _robustness_args(args) -> tuple[list[float], tuple[str, ...], int]:
    """Parsed ``--taus``, ``--methods`` and ``--seed``; bad values are a ConfigError."""
    taus = []
    for item in args.taus.split(","):
        if item.strip() == "":
            continue
        try:
            tau = float(item)
        except ValueError:
            raise ConfigError(f"--taus: not a number: {item.strip()!r}") from None
        if not (math.isfinite(tau) and tau >= 0.0):
            raise ConfigError(f"--taus: need finite values >= 0, got {item.strip()!r}")
        taus.append(tau)
    methods = tuple(s.strip() for s in args.methods.split(",") if s.strip())
    unknown = [m for m in methods if m not in lqr.METHODS]
    if unknown:
        raise ConfigError(f"--methods: unknown {', '.join(unknown)} "
                          f"(choose from {', '.join(lqr.METHODS)})")
    if not taus or not methods:
        raise ConfigError("--taus and --methods need at least one value each")
    seed = 0 if args.seed is None else args.seed
    check_seed(seed)
    return taus, methods, seed


def _run(args) -> int:
    if args.command == "robustness":
        taus, methods, seed = _robustness_args(args)
        out = _out_dir(args)
        rows = lqr.robustness_sweep(taus, methods=methods, seed=seed)
        harness.write_robustness_csv(out / "robustness.csv", rows)
        for r in rows:
            print(f"tau={r.tau:g} {r.method}: t_r={r.t_r:.3f} "
                  f"M_S={r.M_S:.3f} M_T={r.M_T:.3f} Q_u={r.Q_u:.3e} "
                  f"feasible={int(r.feasible)} n_evals={len(r.trace)}")
        return 0

    sc = load_scenario(args.config, seed=args.seed)
    out = _out_dir(args)

    if args.command == "simulate":
        data = harness.stage_dataset(sc)
        data.to_csv(out / "dataset.csv")
        print(f"wrote {out / 'dataset.csv'} ({len(data.t)} samples)")
        return 0

    if args.command == "estimate":
        data = harness.stage_dataset(sc)
        model, eff, fit = harness.stage_estimate(sc, data)
        data.to_csv(out / "dataset.csv")
        sysid.save_theta(out / "theta.txt", model, eff)
        print(f"converged={fit.converged} iters={fit.n_iter} rms={fit.rms:.6g}")
        for i, th in enumerate(model.theta):
            print(f"theta{i + 1} = {th:.8g}")
        return 0

    if args.command == "plan":
        data = harness.stage_dataset(sc)
        model, eff, _ = harness.stage_estimate(sc, data)
        _, sol = harness.stage_plan(sc, model, eff)
        sol.write(out)
        print(f"E = {sol.E:.6g}, t_end = {sol.t[-1]:.3f} (budget {sc.T_f:g})")
        return 0

    if args.command == "pipeline":
        report, artifacts = harness.run_pipeline(sc, out_dir=out)
        for key, val in report.to_items().items():
            print(f"{key} = {format_value(val)}")
        return 0

    # compare-slope: argparse admits no other command.
    results = harness.compare_slope_knowledge(sc, out_dir=out)
    for key, val in results["summary"].items():
        print(f"{key} = {val}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
