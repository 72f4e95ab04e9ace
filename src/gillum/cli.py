"""Command-line front end: ``gillum figure <preset> [options]``.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Options may also come from a ``key=value`` config file; flags win.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .channels import NoiseModel
from .emit import _RENDERERS, emit, render
from .figures import FIGURE_NAMES, ConfigError, NumericalError, SweepConfig, run_figure


def _labels(text: str) -> tuple:
    return tuple(r.strip() for r in text.split(",") if r.strip())


# Every option: its config-file key (the flag is --key with dashes), the
# SweepConfig field it sets (None for output options), the parser applied to
# flag and file values alike, the flag's help text and its choices.
_OPTIONS = (
    ("kappa", "kappa", float,
     "target reflectance (fig5a sweeps kappa, so there it is only validated)", None),
    ("nb", "n_b", float, "background mean photon number", None),
    ("ns_min", "sweep_min", float, "sweep lower edge (N_S, or kappa for fig5a)", None),
    ("ns_max", "sweep_max", float, "sweep upper edge", None),
    ("points", "points", int, "sweep point count", None),
    ("modes", "m_modes", float, "number of mode pairs M", None),
    ("noise", "noise", NoiseModel, "background noise convention",
     [m.value for m in NoiseModel]),
    ("receivers", "receivers", _labels, "comma-separated curve label subset", None),
    ("format", None, str, None, list(_RENDERERS)),
    ("out", None, str, "output path (default: stdout)", None),
)
_PARSERS = {key: parse for key, _, parse, _, _ in _OPTIONS}


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gillum",
        description="Gaussian-illumination receiver sweeps and comparison figures.")
    sub = parser.add_subparsers(dest="command", required=True)
    fig = sub.add_parser("figure", help="run a figure preset")
    fig.add_argument("name", choices=FIGURE_NAMES, help="figure preset")
    for key, _, _, help_text, choices in _OPTIONS:
        fig.add_argument("--" + key.replace("_", "-"), help=help_text, choices=choices)
    fig.add_argument("--config", help="key=value option file (flags win)")
    return parser


def _read_config_file(path: str) -> dict:
    opts = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = line.split("=", 1)
                opts[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return opts


def _options(args: argparse.Namespace) -> dict:
    """Parsed option values from the config file, overridden by the flags given."""
    raw = _read_config_file(args.config) if args.config else {}
    raw.update((key, getattr(args, key)) for key in _PARSERS
               if getattr(args, key) is not None)
    opts = {}
    for key, value in raw.items():
        if key not in _PARSERS:  # only file keys can be unknown
            raise ConfigError(f"unknown config key {key!r}")
        try:
            opts[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return opts


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = _options(args)
        config = SweepConfig(figure=args.name, **{
            field: opts[key] for key, field, _, _, _ in _OPTIONS
            if field is not None and key in opts})
        curves = run_figure(config)
        fmt = opts.get("format", "csv")
        out = opts.get("out")
        if out:
            emit(curves, fmt, out)
        else:
            sys.stdout.write(render(curves, fmt))
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
