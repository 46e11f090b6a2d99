"""Command-line surface: calibrate, monitor, evaluate, tokens, ablate,
synth, and chess subcommands. ``calibrate`` writes the model and threshold of
``ratio.Calibration``, the step the harness runs on each split.

Exit codes: 0 success (monitor: accepted), 2 usage error, 3 monitor
rejected the trajectory, 4 calibration set too small for the requested
(alpha, delta), 1 any other failure. Failures print one machine-parseable
``ERROR <CODE>: <message>`` line to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

from .artifact import DEFAULT_CAL_FRACTION, DEFAULT_DELTA, DEFAULT_DRE_FRACTION
from .artifact import DEFAULT_SPLITS, JSON_WHITESPACE, KNOWN_METHODS, THRESHOLD_KINDS
from .artifact import _opened, count, json_object, load_calibration, save_calibration
from .errors import InsufficientCalibration, ParseError, SeqgateError
from .monitor import MonitorState, ratio_rule

# Every batch module is imported by the subcommands that run it: `monitor`
# loads only the artifact, the state machine and this module, and no numpy.

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_REJECT = 3
EXIT_INSUFFICIENT_CALIBRATION = 4


def _float_list(text: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated numbers: {text!r}")


def _integer(text: str, lower=0) -> int:
    try:
        return count(int(text), "value", lower=lower)
    except ValueError:  # OutOfRange is one
        kind = "positive" if lower else "non-negative"
        raise argparse.ArgumentTypeError(f"not a {kind} integer: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqgate",
        description="Sequential accept/reject monitoring of step-scored trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit a ratio model and decision threshold")
    p.set_defaults(run=_cmd_calibrate)
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--threshold", choices=THRESHOLD_KINDS, default="pac")
    p.add_argument("--dre-fraction", type=float, default=DEFAULT_DRE_FRACTION)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("monitor", help="stream scores on stdin, decide per line")
    p.set_defaults(run=_cmd_monitor)
    p.add_argument("--model", required=True)

    p = sub.add_parser("evaluate", help="FAR/power curves over repeated splits")
    p.set_defaults(run=_cmd_evaluate)
    _add_experiment_args(p)
    p.add_argument("--cal-fraction", type=float, default=DEFAULT_CAL_FRACTION)
    p.add_argument("--splits", type=int, default=DEFAULT_SPLITS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("tokens", help="token-budget study on one split")
    p.set_defaults(run=_cmd_tokens)
    _add_experiment_args(p)
    p.add_argument("--cal-fraction", type=float, default=DEFAULT_CAL_FRACTION)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ablate", help="repeat evaluate at several calibration sizes")
    # no --cal-fraction: each of --fractions replaces the config's value
    p.set_defaults(run=_cmd_ablate, cal_fraction=DEFAULT_CAL_FRACTION)
    _add_experiment_args(p)
    p.add_argument("--fractions", type=_float_list, required=True)
    p.add_argument("--splits", type=int, default=DEFAULT_SPLITS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="emit a synthetic dataset with known truth")
    p.set_defaults(run=_cmd_synth)
    p.add_argument("--spec", default=None, help="JSON object or path to one")
    p.add_argument("--n", type=lambda text: _integer(text, lower=1), required=True)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("chess", help="convert centipawn game records to trajectories")
    p.set_defaults(run=_cmd_chess)
    p.add_argument("--games", required=True)
    p.add_argument("--out", required=True)
    return parser


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True)
    p.add_argument(
        "--alphas", type=_float_list, required=True, help="comma-separated grid in (0,1)"
    )
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--dre-fraction", type=float, default=DEFAULT_DRE_FRACTION)
    p.add_argument(
        "--methods",
        default=",".join(KNOWN_METHODS),
        help="comma-separated subset of " + ",".join(KNOWN_METHODS),
    )
    p.add_argument("--seed", type=_integer, default=0)


def _experiment_config(args, n_splits: int):
    from .harness import ExperimentConfig

    return ExperimentConfig(
        alpha_grid=args.alphas,
        n_splits=n_splits,
        cal_fraction=args.cal_fraction,
        delta=args.delta,
        seed=args.seed,
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        dre_fraction=args.dre_fraction,
    )


def _cmd_calibrate(args, stdin, stdout) -> int:
    from . import dataio
    from .artifact import probability, ville_threshold
    from .ratio import Calibration

    # checked before the data is read; only pac reads delta, but a bad value
    # is never accepted, and bonferroni's t/alpha overflows when ville's 1/alpha does
    probability(args.delta, "delta")
    probability(args.dre_fraction, "dre_fraction")
    probability(args.alpha, "alpha")
    if args.threshold != "pac":
        ville_threshold(args.alpha)
    data, digest = dataio.read_digested(args.data)
    # every kind replays the threshold set: a nan statistic fails closed
    cal = Calibration(data, args.dre_fraction, args.seed)
    model, spec = cal.model, cal.threshold(args.threshold, args.alpha, args.delta)
    metadata = {
        "data": str(args.data), "data_digest": digest, "n_trajectories": len(data),
        "n_dre": len(cal.fit_set), "n_threshold": len(cal.thresh_set),
        "dre_fraction": args.dre_fraction, "seed": args.seed,
    }
    save_calibration(args.out, model, spec, metadata)
    # the logit is clamped to [-L, L], so the ratio never exceeds odds * e^L
    ceiling = model.prior_odds * math.exp(model.logit_bound)
    if spec.value > ceiling:
        print(
            f"WARN threshold value={spec.value!r} is above the statistic's largest "
            f"value {ceiling!r}: no trajectory can be rejected", file=sys.stderr,
        )
    print(
        f"calibrated t_max={model.t_max} threshold_kind={spec.kind} "
        f"value={spec.value!r} -> {args.out}", file=stdout
    )
    return EXIT_OK


def _cmd_monitor(args, stdin, stdout) -> int:
    model, spec, _ = load_calibration(args.model)
    state = MonitorState(ratio_rule(model, spec.value))
    # readline loop: no read-ahead buffering, each answer follows its score
    for line in iter(stdin.readline, ""):
        text = line.strip(JSON_WHITESPACE)
        if not text:
            continue
        try:
            # float reads "0_5", any Unicode digit, as in "\u0663", and skips
            # other whitespace, as in "\x0c0.5"; JSON does none of these
            if "_" in text or not (text.isascii() and text.isprintable()):
                raise ValueError
            score = float(text)
        except ValueError:
            raise ParseError(f"not a number: {text!r}") from None
        status = state.observe(score)
        if status.decision == "rejected":
            print(f"REJECT t={status.step}", file=stdout, flush=True)
            return EXIT_REJECT
        print("CONTINUE", file=stdout, flush=True)
    status = state.finalize()
    print(f"ACCEPT t={status.step}", file=stdout, flush=True)
    return EXIT_OK


def _cmd_evaluate(args, stdin, stdout) -> int:
    from . import dataio, harness

    cfg = _experiment_config(args, args.splits)
    data = dataio.read_dataset(args.data)
    points = harness.run_experiment(data, cfg)
    dataio.write_csv(args.out, harness.CurvePoint, points)
    print(f"wrote {len(points)} curve points -> {args.out}", file=stdout)
    return EXIT_OK


def _cmd_tokens(args, stdin, stdout) -> int:
    from . import dataio, harness

    cfg = _experiment_config(args, 1)
    data = dataio.read_dataset(args.data)
    points = harness.token_study(data, cfg)
    dataio.write_csv(args.out, harness.TokenCurvePoint, points)
    print(f"wrote {len(points)} token points -> {args.out}", file=stdout)
    return EXIT_OK


def _cmd_ablate(args, stdin, stdout) -> int:
    from . import dataio, harness

    cfg = _experiment_config(args, args.splits)
    harness.ablation_configs(cfg, args.fractions)  # a bad fraction fails before the read
    data = dataio.read_dataset(args.data)
    results = harness.calibration_ablation(data, cfg, args.fractions)
    for res in results:
        if res.error is not None:
            print(
                f"WARN cal_fraction={res.cal_fraction!r} failed: "
                f"DEGENERATE_SPLIT: {res.error}",
                file=sys.stderr,
            )
    rows = [(res.cal_fraction, p) for res in results for p in res.curves]
    dataio.write_csv(args.out, harness.CurvePoint, rows, lead="cal_fraction")
    produced = sum(1 for r in results if r.error is None)
    print(f"wrote curves for {produced}/{len(results)} fractions -> {args.out}", file=stdout)
    return EXIT_OK


def _load_synth_spec(text):
    from . import synthetic

    if text is None:
        return synthetic.SyntheticSpec()
    try:
        payload = json_object(text, "--spec")
    except ParseError as exc:
        if exc.__cause__ is None:  # JSON, but not an object
            raise
        try:
            with _opened(text, "r") as fh:
                text = fh.read()
        except (OSError, ValueError, ParseError) as err:  # ValueError: a NUL
            # an OSError's str echoes the text as the file name
            reason = getattr(err, "strerror", None) or err
            raise ParseError(
                f"--spec is neither inline JSON nor a JSON file: {exc}; as a path: {reason}"
            )
        payload = json_object(text, "--spec")
    try:
        return synthetic.SyntheticSpec(**payload)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"invalid synthetic spec: {exc}")


def _cmd_synth(args, stdin, stdout) -> int:
    from . import dataio
    from .synthetic import sample_dataset

    spec = _load_synth_spec(args.spec)
    data = sample_dataset(spec, args.n, args.seed)
    dataio.write_dataset(data, args.out)
    print(f"wrote {len(data)} trajectories -> {args.out}", file=stdout)
    return EXIT_OK


def _cmd_chess(args, stdin, stdout) -> int:
    from . import dataio

    data = dataio.read_chess(args.games)
    dataio.write_dataset(data, args.out)
    print(f"converted {len(data)} games -> {args.out}", file=stdout)
    return EXIT_OK


def cli_dispatch(argv, stdin=None, stdout=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.run(
            args, stdin if stdin is not None else sys.stdin,
            stdout if stdout is not None else sys.stdout,
        )
    except (SeqgateError, OSError) as exc:
        code = exc.code if isinstance(exc, SeqgateError) else "IO_ERROR"
        print(f"ERROR {code}: {exc}", file=sys.stderr)
        insufficient = isinstance(exc, InsufficientCalibration)
        return EXIT_INSUFFICIENT_CALIBRATION if insufficient else EXIT_FAILURE


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
