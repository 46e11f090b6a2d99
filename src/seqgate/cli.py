"""Command-line surface: calibrate, monitor, evaluate, tokens, ablate,
synth, and chess subcommands.

Exit codes: 0 success (monitor: accepted), 2 usage error, 3 monitor
rejected the trajectory, 4 calibration set too small for the requested
(alpha, delta), 1 any other failure. Failures print one machine-parseable
``ERROR <CODE>: <message>`` line to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dataio
from .errors import InsufficientCalibration, ParseError, SeqgateError
from .monitor import KNOWN_METHODS, MonitorState, ratio_rule
from .thresholds import DEFAULT_DELTA, THRESHOLD_KINDS
from .trajectories import DEFAULT_DRE_FRACTION, SplitConfig, split_calibration

# The harness, the generator, the fit and the threshold builders are imported
# by the subcommands that run them: `monitor` loads only what it runs.

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_REJECT = 3
EXIT_INSUFFICIENT_CALIBRATION = 4


def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqgate",
        description="Sequential accept/reject monitoring of step-scored trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit a ratio model and decision threshold")
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--threshold", choices=THRESHOLD_KINDS, default="pac")
    p.add_argument("--dre-fraction", type=float, default=DEFAULT_DRE_FRACTION)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("monitor", help="stream scores on stdin, decide per line")
    p.add_argument("--model", required=True)

    p = sub.add_parser("evaluate", help="FAR/power curves over repeated splits")
    _add_experiment_args(p)
    p.add_argument("--splits", type=int, default=50)
    p.add_argument("--out", required=True)

    p = sub.add_parser("tokens", help="token-budget study on one split")
    _add_experiment_args(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ablate", help="repeat evaluate at several calibration sizes")
    _add_experiment_args(p)
    p.add_argument("--fractions", required=True)
    p.add_argument("--splits", type=int, default=50)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="emit a synthetic dataset with known truth")
    p.add_argument("--spec", default=None, help="JSON object or path to one")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("chess", help="convert centipawn game records to trajectories")
    p.add_argument("--games", required=True)
    p.add_argument("--out", required=True)
    return parser


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument("--alphas", required=True, help="comma-separated grid in (0,1)")
    p.add_argument("--cal-fraction", type=float, default=0.2)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--dre-fraction", type=float, default=DEFAULT_DRE_FRACTION)
    p.add_argument(
        "--methods",
        default=",".join(KNOWN_METHODS),
        help="comma-separated subset of " + ",".join(KNOWN_METHODS),
    )
    p.add_argument("--seed", type=int, default=0)


def _experiment_config(args, n_splits: int):
    from .harness import ExperimentConfig

    return ExperimentConfig(
        alpha_grid=tuple(_float_list(args.alphas)),
        n_splits=n_splits,
        cal_fraction=args.cal_fraction,
        delta=args.delta,
        seed=args.seed,
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        dre_fraction=args.dre_fraction,
    )


def _cmd_calibrate(args) -> int:
    from .harness import derive_seed
    from .ratio import fit_ratio_model
    from .thresholds import bonferroni_threshold, null_maxima
    from .thresholds import pac_threshold, ville_threshold

    data = dataio.read_dataset(args.data)
    dre, thresh_set = split_calibration(
        data, SplitConfig(args.dre_fraction, args.seed)
    )
    model = fit_ratio_model(dre)
    if args.threshold == "ville":
        spec = ville_threshold(args.alpha)
    elif args.threshold == "bonferroni":
        spec = bonferroni_threshold(args.alpha, max(len(item) for item in data))
    else:
        maxima = null_maxima(model, thresh_set)
        spec = pac_threshold(maxima, args.alpha, args.delta, derive_seed(args.seed, 1))
    metadata = {
        "data": str(args.data),
        "data_digest": dataio.data_digest(args.data),
        "n_trajectories": len(data),
        "n_dre": len(dre),
        "n_threshold": len(thresh_set),
        "dre_fraction": args.dre_fraction,
        "seed": args.seed,
    }
    dataio.save_calibration(args.out, model, spec, metadata)
    print(
        f"calibrated t_max={model.t_max} threshold_kind={spec.kind} "
        f"value={spec.value!r} -> {args.out}"
    )
    return EXIT_OK


def _cmd_monitor(args, stdin, stdout) -> int:
    model, spec, _ = dataio.load_calibration(args.model)
    state = MonitorState(ratio_rule(model, spec.value))
    # readline loop: no read-ahead buffering, each answer follows its score
    for line in iter(stdin.readline, ""):
        text = line.strip()
        if not text:
            continue
        try:
            score = float(text)
        except ValueError:
            print(f"ERROR PARSE_ERROR: not a number: {text!r}", file=sys.stderr)
            return EXIT_FAILURE
        status = state.observe(score)
        if status.decision == "rejected":
            print(f"REJECT t={status.step}", file=stdout, flush=True)
            return EXIT_REJECT
        print("CONTINUE", file=stdout, flush=True)
    status = state.finalize()
    print(f"ACCEPT t={status.step}", file=stdout, flush=True)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    from . import harness

    data = dataio.read_dataset(args.data)
    cfg = _experiment_config(args, args.splits)
    points = harness.run_experiment(data, cfg)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        harness.write_curves_csv(points, fh)
    print(f"wrote {len(points)} curve points -> {args.out}")
    return EXIT_OK


def _cmd_tokens(args) -> int:
    from . import harness

    data = dataio.read_dataset(args.data)
    cfg = _experiment_config(args, 1)
    points = harness.token_study(data, cfg)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        harness.write_tokens_csv(points, fh)
    print(f"wrote {len(points)} token points -> {args.out}")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    from . import harness

    data = dataio.read_dataset(args.data)
    cfg = _experiment_config(args, args.splits)
    fractions = _float_list(args.fractions)
    results = harness.calibration_ablation(data, cfg, fractions)
    for res in results:
        if res.error is not None:
            print(
                f"WARN cal_fraction={res.cal_fraction!r} failed: "
                f"DEGENERATE_SPLIT: {res.error}",
                file=sys.stderr,
            )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        harness.write_curves_csv(
            [(res.cal_fraction, p) for res in results for p in res.curves],
            fh,
            prefix_column="cal_fraction",
        )
    produced = sum(1 for r in results if r.error is None)
    print(f"wrote curves for {produced}/{len(results)} fractions -> {args.out}")
    return EXIT_OK


def _load_synth_spec(text):
    from . import synthetic

    if text is None:
        return synthetic.SyntheticSpec()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        try:
            payload = json.loads(Path(text).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"--spec is neither inline JSON nor a JSON file: {exc}")
    if not isinstance(payload, dict):
        raise ParseError("--spec must be a JSON object")
    try:
        return synthetic.SyntheticSpec(**payload)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid synthetic spec: {exc}")


def _cmd_synth(args, parser) -> int:
    if args.n < 1:
        parser.error("--n must be a positive integer")
    from .synthetic import sample_dataset

    spec = _load_synth_spec(args.spec)
    data = sample_dataset(spec, args.n, args.seed)
    dataio.write_dataset(data, args.out)
    print(f"wrote {len(data)} trajectories -> {args.out}")
    return EXIT_OK


def _cmd_chess(args) -> int:
    games = dataio.read_chess_games(args.games)
    dataio.write_dataset(dataio.chess_to_dataset(games), args.out)
    print(f"converted {len(games)} games -> {args.out}")
    return EXIT_OK


def cli_dispatch(argv, stdin=None, stdout=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        if args.command == "monitor":
            return _cmd_monitor(
                args, stdin if stdin is not None else sys.stdin,
                stdout if stdout is not None else sys.stdout,
            )
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "tokens":
            return _cmd_tokens(args)
        if args.command == "ablate":
            return _cmd_ablate(args)
        if args.command == "synth":
            return _cmd_synth(args, parser)
        if args.command == "chess":
            return _cmd_chess(args)
    except SystemExit as exc:  # parser.error inside a subcommand
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except InsufficientCalibration as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_CALIBRATION
    except SeqgateError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"ERROR IO_ERROR: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
