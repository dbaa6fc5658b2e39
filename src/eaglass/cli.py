"""Command-line entry point.

One subcommand per experiment kind.  Values are resolved in priority order
flag > config file > environment > default.  Exit codes: 0 all hard
assertions pass, 1 configuration or usage error or an unwritable report, 2
hard assertion failure, 3 any other exception in a sample (for 2 and 3 the
reproducer line is printed to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .disorder import LAWS
from .errors import ConfigError, HardAssertionFailure, SampleError
from .lab import EXPERIMENT_KINDS, PROXY_KINDS, ExperimentConfig, run

_KIND_FLAG = {kind: kind.replace("_", "-") for kind in EXPERIMENT_KINDS}
_FLAG_KIND = {v: k for k, v in _KIND_FLAG.items()}


def _int_list(text: str):
    return [int(x) for x in text.split(",") if x != ""]


def _pair_list(text: str):
    pairs = []
    for chunk in text.split(","):
        a, _, b = chunk.partition(":")
        pairs.append([int(a), int(b)])
    return pairs


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, as config errors do: argparse's
    own code 2 is the code of a hard assertion failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eaglass",
        description="Exact spin-glass ground-state experiments on cylinder boxes")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(_KIND_FLAG[kind], help=f"run the {kind} experiment")
        p.add_argument("--config", help="JSON config file (versioned schema)")
        p.add_argument("--seed", type=int, dest="master_seed",
                       help="master seed")
        p.add_argument("--samples", type=int, help="number of disorder samples")
        p.add_argument("--out", help="output path prefix")
        p.add_argument("--parallel", type=int, help="worker processes")
        p.add_argument("--width", type=int)
        p.add_argument("--height", type=int)
        p.add_argument("--box-n", type=int,
                       help="use the square box of half-width n (width=height=2n+1)")
        p.add_argument("--dist", choices=list(LAWS))
        p.add_argument("--sigma", type=float)
        p.add_argument("--half-width", type=float)
        p.add_argument("--edge", help="edge as kind:col,row e.g. h:0,0")
        p.add_argument("--edge2", help="second edge for two-bond experiments")
        p.add_argument("--grid-lo", type=float)
        p.add_argument("--grid-hi", type=float)
        p.add_argument("--grid-points", type=int)
        p.add_argument("--n-list", type=_int_list, help="comma separated")
        p.add_argument("--k-list", type=_int_list, help="comma separated")
        p.add_argument("--n-pairs", type=_pair_list, help="e.g. 2:3,3:4")
        p.add_argument("--window", help="window as WxH, e.g. 3x2")
        p.add_argument("--proxy", choices=PROXY_KINDS)
        p.add_argument("--band-height", type=int)
        p.add_argument("--probes", type=int)
        p.add_argument("--tol", type=float)
    return parser


def _config_from_args(args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot read config file: {e}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config file must contain a JSON object")
    kind = _FLAG_KIND[args.command]
    if cfg.get("kind", kind) != kind:
        raise ConfigError(f"config file is for kind {cfg['kind']!r}, "
                          f"but subcommand is {kind}")
    cfg["kind"] = kind

    env_out = os.environ.get("EAGLASS_OUT")
    if env_out and "out" not in cfg:
        cfg["out"] = os.path.join(env_out, kind)
    env_par = os.environ.get("EAGLASS_PARALLEL")
    if env_par and "parallel" not in cfg:
        try:
            cfg["parallel"] = int(env_par)
        except ValueError:
            raise ConfigError("EAGLASS_PARALLEL must be an integer") from None

    if args.box_n is not None:
        cfg["width"] = cfg["height"] = 2 * args.box_n + 1
    # a flag whose dest names a config field sets it; dist merges below
    fields = ExperimentConfig.__dataclass_fields__
    cfg.update((key, val) for key, val in vars(args).items()
               if key in fields and key != "dist" and val is not None)
    if args.window:
        w, _, h = args.window.partition("x")
        try:
            cfg["window_width"], cfg["window_height"] = int(w), int(h)
        except ValueError:
            raise ConfigError(f"bad window spec {args.window!r}") from None
    if args.dist or args.sigma is not None or args.half_width is not None:
        dist = dict(cfg.get("dist", {"kind": args.dist or "gaussian"}))
        if args.dist:
            dist["kind"] = args.dist
        if args.sigma is not None:
            dist["sigma"] = args.sigma
        if args.half_width is not None:
            dist["half_width"] = args.half_width
        cfg["dist"] = dist
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run(_config_from_args(args))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except OSError as e:    # a sample's own errors arrive as SampleError
        print(f"cannot write the report: {e}", file=sys.stderr)
        return 1
    except SampleError as e:
        hard = isinstance(e, HardAssertionFailure)
        print(f"{'hard assertion failure' if hard else 'internal error'}: {e}",
              file=sys.stderr)
        if e.reproducer:
            print(f"REPRODUCER {e.reproducer}", file=sys.stderr)
        return 2 if hard else 3
    summary = report.summary_dict()
    print(json.dumps({"kind": summary["kind"],
                      "n_samples": summary["n_samples"],
                      "content_hash": summary["content_hash"],
                      "properties": summary["properties"],
                      "summary_path": report.summary_path}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
