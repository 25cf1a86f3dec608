"""Command-line entry point.

Subcommands run one experiment each and write telemetry CSV plus a summary
JSON under --out; `pipeline` chains all four, feeding the identified model
into the LQR and MPC designs the way the real workflow does.

Exit codes: 0 success; 1 an experiment aborted: a fall, a non-finite or
singular plant step, or a failed fit (outputs are still written); 2 a
config value, argument, --config or --model file that cannot be used
(nothing is written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness
from .errors import BallbotLabError, ConfigError, StabilizabilityError
from .plant import LinearParams

_EXPERIMENTS = {
    "balance": harness.run_balance,
    "identify": harness.run_identify,
    "lqr": harness.run_lqr,
    "track": harness.run_track,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ballbot-lab",
        description="Ballbot stabilization / identification / tracking experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("balance", "identify", "lqr", "track", "pipeline"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--out", type=str, default="out", help="output directory")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--duration", type=float, default=None,
                        help="simulated seconds (single-experiment commands)")
        sp.add_argument("--plant", choices=["linear", "nonlinear"], default=None)
        sp.add_argument("--noise", choices=["on", "off"], default=None)
        if name in ("lqr", "track"):
            sp.add_argument("--model", type=str, default=None,
                            help="identified_model.json to design from")
        if name == "pipeline":
            sp.add_argument("--use-truth", action="store_true",
                            help="design LQR/MPC from the configured truth "
                                 "instead of the identified model")
    return ap


def _config_from_args(args) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides.setdefault("run", {})["seed"] = args.seed
    if args.plant is not None:
        overrides.setdefault("plant", {})["mode"] = args.plant
    if args.noise is not None:
        overrides.setdefault("run", {})["noise"] = args.noise == "on"
    return harness.load_config(args.config, overrides)


def _load_model(path, cfg) -> LinearParams:
    """The eight finite ``p_hat`` entries of an ``identified_model.json``,
    checked to give an LQR design at the configured tick."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            p = np.asarray(json.load(fh)["p_hat"], dtype=float)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError("--model", f"cannot read p_hat from {path}: {exc!r}") from exc
    if p.shape != (8,) or not np.all(np.isfinite(p)):
        raise ConfigError("--model", "p_hat must hold eight finite numbers")
    model = LinearParams.from_array(p)
    try:
        with np.errstate(all="ignore"):
            harness._design(cfg, model)
    except (ValueError, StabilizabilityError, np.linalg.LinAlgError) as exc:
        raise ConfigError("--model", f"no stabilizing LQR for the model: {exc}") from exc
    return model


def _write_outputs(out_dir: Path, result, cfg) -> None:
    h = harness.config_hash(cfg)
    harness.write_telemetry_csv(out_dir / f"{result.experiment}_telemetry.csv",
                                result.telemetry, h)
    harness.write_summary_json(out_dir / f"{result.experiment}_summary.json",
                               result.summary)
    if "model" in result.extra:
        harness.write_summary_json(out_dir / "identified_model.json",
                                   result.extra["model"])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        model = getattr(args, "model", None)
        kwargs = {"model_lp": _load_model(model, cfg)} if model else {}
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "pipeline":
            return _run_pipeline(cfg, out_dir, use_truth=args.use_truth)
        result = _EXPERIMENTS[args.command](cfg, duration=args.duration, **kwargs)
        _write_outputs(out_dir, result, cfg)
        return 1 if result.summary["aborted"] else 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BallbotLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_pipeline(cfg, out_dir: Path, use_truth: bool) -> int:
    worst = 0
    model_lp = None
    for name in ("balance", "identify", "lqr", "track"):
        kwargs = {}
        if name in ("lqr", "track") and model_lp is not None and not use_truth:
            kwargs["model_lp"] = model_lp
        result = _EXPERIMENTS[name](cfg, **kwargs)
        _write_outputs(out_dir, result, cfg)
        if result.summary["aborted"]:
            worst = 1
        if name == "identify" and "id_result" in result.extra:
            res = result.extra["id_result"]
            model_lp = res.linear_params(r=cfg["plant"]["linear"]["r"])
    return worst


if __name__ == "__main__":
    sys.exit(main())
