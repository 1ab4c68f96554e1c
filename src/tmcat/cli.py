"""Command-line front end producing plot-ready CSV, PGM, and JSON artifacts.

Each command computes its artifacts as (name, writer, *content) tuples and
writes nothing; ``main`` then writes them under --outdir, followed by a JSON
manifest echoing the fully resolved configuration and the tool version.  No
output embeds timestamps, so identical invocations produce byte-identical
files.  Exit codes: 0 success, 1 usage error, 2 validation/numeric/fit error
(single-line code-prefixed message on stderr in both error cases).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .applications import (
    BASIS_SCHEMES,
    ChannelModel,
    build_basis,
    profile_sweep,
    psk_link_simulate,
    qkd_simulate,
)
from .errors import NumericsError, SimulationError, ValidationError
from .fileio import (
    _sidecar_path,
    read_json,
    read_pgm,
    write_csv,
    write_json,
    write_pgm,
    write_scaled_pgm,
)
from .propagation import FiberSpec, beam_params_at
from .states import (
    HBAR,
    TYPICAL_KINDS,
    BlochVector,
    ModeFrame,
    OverlapAngle,
    QubitParams,
    bloch_to_params,
    make_qubit_state,
    make_typical_state,
    normalization_factor,
    params_to_bloch,
)
from .virtual_lab import (
    LAB_FOCAL_LENGTH,
    LAB_THETA_D,
    CcdConfig,
    CcdImage,
    PlaneTag,
    estimate_relative_phase,
    fit_gaussian_profile,
    profile_from_image,
    render_ccd,
    scenario_reports,
)
from .wigner import wigner_map, wigner_of_state


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only plain numbers like -2.2 as negative values; no
        # option starts with a digit, '.', 'pi', 'inf' or 'nan', so -pi,
        # -0.72pi, -2.5e-3, -1mm and -inf are values too
        self._negative_number_matcher = re.compile(r"(?i)^-(\d|\.\d|pi|inf|nan)")

    def error(self, message):
        raise _UsageError(message)


_LENGTH_SUFFIXES = (("nm", 1e-9), ("um", 1e-6), ("mm", 1e-3), ("cm", 1e-2), ("m", 1.0))


def _finite(value: float, text: str, what: str) -> float:
    if not math.isfinite(value):
        raise _UsageError(f"{what} {text!r} is not a finite number")
    return value


def parse_length(text: str) -> float:
    """Meters from '145mm', '780nm', '6.5um', or a bare number."""
    t = text.strip().lower()
    matches = [(s, f) for s, f in _LENGTH_SUFFIXES if t.endswith(s)]
    suffix, scale = matches[0] if matches else ("", 1.0)
    try:
        value = float(t[: len(t) - len(suffix)]) * scale
    except ValueError:
        raise _UsageError(
            f"cannot parse length {text!r}; use meters or a suffix (nm, um, mm, cm, m)"
        )
    return _finite(value, text, "length")


def parse_angle(text: str) -> float:
    """Radians from '0.98pi', '-pi', 'pi', or a bare number."""
    t = text.strip().lower()
    head, scale = (t[:-2].strip(), math.pi) if t.endswith("pi") else (t, 1.0)
    if t.endswith("pi") and head in ("", "+", "-"):
        head += "1"
    try:
        value = float(head) * scale
    except ValueError:
        raise _UsageError(
            f"cannot parse angle {text!r}; use radians or multiples of pi like 0.98pi"
        )
    return _finite(value, text, "angle")


def _point_count(text: str) -> int:
    """Sample count along an axis: an integer of at least 2."""
    try:
        n = int(text)
    except ValueError:
        raise _UsageError(f"cannot parse point count {text!r}; expected an integer")
    if n < 2:
        raise _UsageError(f"an axis needs at least 2 points, got {n}")
    return n


def _read_config_tokens(path: str) -> list[list[str]]:
    """'key = value' lines to synthetic flag tokens, one list a key ('#' starts a comment)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}")
    tokens: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise _UsageError(f"{path}:{lineno}: empty key")
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "yes", "on"):
            tokens.append([flag])
        elif value.lower() not in ("false", "no", "off"):
            tokens.append([flag, value])
    return tokens


def _sets_group(group, tokens: list[str]) -> bool:
    """Whether tokens give a member of a mutually exclusive group, found as argparse finds it."""
    finder = _Parser(add_help=False)
    for action in group._group_actions:
        finder.add_argument(*action.option_strings, dest=action.dest)
    found, _ = finder.parse_known_args(tokens)
    return any(value is not None for value in vars(found).values())


def _apply_config_file(parser: _Parser, argv: list[str]) -> list[str]:
    """Strip --config FILE and splice its tokens in after the subcommand.

    The flag is found the way argparse finds it, so ``--config=FILE`` and
    abbreviations such as ``--conf FILE`` count; giving it twice is a usage
    error.  File-provided flags precede explicit ones, so the command line
    wins whenever both set the same key, and a file flag of a mutually
    exclusive group is dropped when the command line gives one of that group.
    """
    finder = _Parser(add_help=False)
    finder.add_argument("--config", action="append")
    found, rest = finder.parse_known_args(argv)
    if found.config is None:
        return argv
    if len(found.config) > 1:
        raise _UsageError("--config given more than once")
    if not rest or rest[0].startswith("-"):
        raise _UsageError("--config requires a subcommand")
    command, given = rest[0], rest[1:]
    tokens = _read_config_tokens(found.config[0])
    subparsers = next(a for a in parser._actions if isinstance(a.choices, dict))
    if command in subparsers.choices:
        for group in subparsers.choices[command]._mutually_exclusive_groups:
            if _sets_group(group, given):
                tokens = [t for t in tokens if not _sets_group(group, t)]
    return [command] + [token for key in tokens for token in key] + given


def _manifest(name: str, args: argparse.Namespace) -> dict:
    config = {
        key: str(val) if isinstance(val, Path) else val
        for key, val in vars(args).items()
        if key not in ("handler", "command")
    }
    return {
        "tool": "tmcat",
        "version": __version__,
        "command": name,
        "config": config,
        "seed": config.get("seed"),
    }


def _frame(args) -> ModeFrame:
    return ModeFrame(w0=args.w0, wavelength=args.wavelength)


def _resolve_angle(args) -> OverlapAngle:
    if args.theta_d is not None:
        return OverlapAngle.from_theta(args.theta_d)
    if args.alpha is not None:
        return OverlapAngle.from_alpha(args.alpha)
    return OverlapAngle.from_alpha(args.d_over_w0 / math.sqrt(2.0))


def _resolve_params(args) -> tuple[ModeFrame, OverlapAngle, QubitParams]:
    """The frame, overlap angle and qubit parameters, refused in that order."""
    frame = _frame(args)
    angle = _resolve_angle(args)
    if args.bloch is not None:
        try:
            x, y, z = (float(part) for part in args.bloch.split(","))
        except ValueError:
            raise _UsageError(f"--bloch expects three comma-separated numbers, got {args.bloch!r}")
        params = bloch_to_params(BlochVector(xq=x, yq=y, zq=z), angle, frame)
    elif args.state is not None:
        params, _ = make_typical_state(args.state, angle, frame)
    elif args.phi is None:
        raise _UsageError("give --T and --phi (or --state, or --bloch)")
    else:
        params = QubitParams(T=args.T, phi=args.phi, d=angle.displacement(frame.w0))
    return frame, angle, params


def _fmt_pi(value: float) -> str:
    return f"{value / math.pi:.4f}".rstrip("0").rstrip(".") + "pi"


def _cmd_state(args) -> list:
    frame, angle, params = _resolve_params(args)
    bloch = params_to_bloch(params, angle)
    n_arb = normalization_factor(params.T, params.phi, angle)
    print(f"T = {params.T:.6g}")
    print(f"phi = {_fmt_pi(params.phi_signed)}")
    print(f"N_arb = {n_arb:.6g}")
    print(f"theta_d = {_fmt_pi(angle.theta_d)}")
    print(f"alpha = {angle.alpha:.6g}")
    print(f"d = {params.d:.6g} m")
    print(f"bloch = ({bloch.xq:.6g}, {bloch.yq:.6g}, {bloch.zq:.6g})")
    return []


def _cmd_wigner(args) -> list:
    frame, _, params = _resolve_params(args)
    state = make_qubit_state(params, frame)
    result = wigner_map(state, n=args.grid, si_units=args.si)
    headers = ["x", "p", "w"] if args.si else ["X", "P", "W"]
    g = result.grid
    columns = [g.x_axis()[:, None], g.p_axis()[None, :], result.values]
    artifacts = [(args.out, write_csv, headers, columns)]
    if args.pgm:
        out = Path(args.out)
        if not out.name:  # no file to take the .pgm suffix (nor to hold the CSV)
            raise _UsageError(f"--out {args.out!r} names no file")
        fields = dict(x_min=g.x_min, x_max=g.x_max, p_min=g.p_min, p_max=g.p_max,
                      si_units=g.si_units)
        artifacts.append((out.with_suffix(".pgm"), partial(write_scaled_pgm, **fields),
                          result.values))
    return artifacts


def _cmd_marginals(args) -> list:
    frame, _, params = _resolve_params(args)
    state = make_qubit_state(params, frame)
    w0 = frame.w0
    x = np.linspace(-4.5 * w0, params.d + 4.5 * w0, args.points)
    p = np.linspace(-8.0 * HBAR / w0, 8.0 * HBAR / w0, args.points)
    return [
        (f"{args.prefix}_position.csv", write_csv, ["x", "density"],
         [x, state.position_intensity(x)]),
        (f"{args.prefix}_momentum.csv", write_csv, ["p", "density"],
         [p, state.momentum_intensity(p)]),
    ]


def _cmd_beam(args) -> list:
    frame = _frame(args)
    z_max = args.z_max if args.z_max is not None else 3.0 * frame.z_r
    beams = [beam_params_at(frame, float(z)) for z in np.linspace(0.0, z_max, args.points)]
    fields = ("z", "width", "curvature_radius", "gouy")
    columns = [[getattr(b, name) for b in beams] for name in fields]
    return [(args.out, write_csv, ["z", "w", "R", "gouy"], columns)]


def _cmd_ccd(args) -> list:
    frame, _, params = _resolve_params(args)
    state = make_qubit_state(params, frame, tilt_alpha=args.tilt_alpha)
    config = CcdConfig(
        nx=args.nx,
        ny=args.ny,
        pitch=args.pitch,
        bit_depth=args.bits,
        background=args.background,
        exposure_scale=args.exposure,
        visibility=args.visibility,
        seed=args.seed,
    )
    plane = PlaneTag(args.plane, None if args.plane == "position" else args.f)
    image = render_ccd(state, plane, config, frame)
    return [
        (args.out, write_pgm, image.counts, config.max_count),
        (_sidecar_path(Path(args.out)), write_json, image.sidecar(frame)),
    ]


def _image_from_files(path: Path) -> tuple[CcdImage, dict]:
    sidecar_path = _sidecar_path(path)
    try:
        counts, max_value = read_pgm(path)
        sidecar = read_json(sidecar_path)
    except OSError as exc:
        raise _UsageError(f"cannot read image: {exc}")
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"image sidecar {sidecar_path} is not JSON: {exc}")
    try:
        image = CcdImage.from_sidecar(counts, max_value, sidecar)
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(sidecar_path, exc)
    return image, sidecar


def _malformed(sidecar_path: Path, exc: Exception) -> ValidationError:
    return ValidationError(
        f"image sidecar {sidecar_path} is malformed: {type(exc).__name__} {exc}"
    )


def _cmd_fit(args) -> list:
    if args.T is not None and not math.isfinite(args.T):
        raise ValidationError(f"T must be finite, got {args.T}")
    image, sidecar = _image_from_files(Path(args.image))
    profile = profile_from_image(image)
    if args.mode == "gaussian":
        fit = fit_gaussian_profile(profile, image.config.pitch)
        payload = {
            "mode": "gaussian",
            "center_m": fit.center,
            "radius_1e2_m": fit.radius_1e2,
            "radius_1e2_px": fit.radius_1e2 / image.config.pitch,
            "rss": fit.rss,
        }
    else:
        if args.T is None:
            raise _UsageError("phase fitting needs --T")
        if args.d is None:
            raise _UsageError("phase fitting needs --d")
        if image.plane.kind != "momentum":
            raise _UsageError("phase fitting needs a momentum-plane image")
        try:  # the beam is read from the sidecar only for a phase fit
            w0, wavelength = float(sidecar["w0"]), float(sidecar["wavelength"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed(_sidecar_path(args.image), exc)
        phi_hat = estimate_relative_phase(
            profile,
            d=args.d,
            w0=w0,
            T=args.T,
            f=image.plane.f,
            wavelength=wavelength,
            pitch=image.config.pitch,
        )
        payload = {
            "mode": "phase",
            "phi_hat_rad": phi_hat,
            "phi_hat_over_pi": phi_hat / math.pi,
        }
    return [(args.out, write_json, payload)]


def _parse_path(text: str) -> list[tuple[float, float]]:
    points = []
    for chunk in text.split(","):
        if ":" not in chunk:
            raise _UsageError(f"sweep path entries look like T:phi, got {chunk!r}")
        t_part, phi_part = chunk.split(":", 1)
        try:
            t = float(t_part)
        except ValueError:
            raise _UsageError(f"bad T value {t_part!r} in sweep path")
        points.append((t, parse_angle(phi_part)))
    return points


def _cmd_sweep(args) -> list:
    frame = _frame(args)
    angle = _resolve_angle(args)
    path = _parse_path(args.path)
    series = profile_sweep(path, angle.displacement(frame.w0), frame)
    headers = ["T", "phi", "delta_x", "mean_vx", "center_intensity"]
    columns = [[getattr(pt, name) for pt in series] for name in headers]
    return [(args.out, write_csv, headers, columns)]


def _cmd_mdm(args) -> list:
    frame = _frame(args)
    angle = _resolve_angle(args)
    basis = build_basis(args.scheme, angle, frame)
    channel = ChannelModel(
        rotation_jitter_sigma=args.sigma_theta,
        additive_overlap_noise_sigma=args.sigma_add,
        seed=args.seed,
    )
    stats = psk_link_simulate(args.n, basis, channel, seed=args.seed)
    payload = {
        "scheme": args.scheme,
        "n": stats.rounds,
        "sifted": stats.sifted,
        "errors": stats.errors,
        "ber": stats.ber,
        "sigma_theta": args.sigma_theta,
        "sigma_add": args.sigma_add,
        "seed": args.seed,
    }
    return [(args.out, write_json, payload)]


def _cmd_qkd(args) -> list:
    _frame(args)  # the signal states' frame: refused where mdm refuses it
    fiber = FiberSpec(period_length=args.period)
    angle = _resolve_angle(args)
    stats = qkd_simulate(args.n, angle, args.sigma_z, fiber, seed=args.seed)
    payload = {
        "n": stats.rounds,
        "sifted": stats.sifted,
        "errors": stats.errors,
        # no sifted round leaves the error rate undefined
        "qber": stats.qber if stats.sifted else None,
        "sift_rate": stats.sift_rate,
        "sigma_z": args.sigma_z,
        "period": args.period,
        "seed": args.seed,
    }
    return [(args.out, write_json, payload)]


def _reproduce_fig2(args) -> list:
    frame = _frame(args)
    angle = OverlapAngle.from_displacement(frame.w0, frame.w0)
    half = 4.0
    n = 256
    coords = np.linspace(-half, half, n)
    x_si = frame.w0 / 2.0 + frame.x_scale * coords
    p_si = frame.p_scale * coords
    artifacts = []
    for kind in TYPICAL_KINDS:
        _, state = make_typical_state(kind, angle, frame)
        values = HBAR * wigner_of_state(state, x_si, p_si)
        artifacts += [
            (f"fig2_{kind}.csv", write_csv, ["X", "P", "W"],
             [coords[:, None], coords[None, :], values]),
            (f"fig2_{kind}.pgm", partial(write_scaled_pgm, state=kind, half_range=half, n=n),
             values),
        ]
    return artifacts


def _reproduce_panels(args) -> list:
    frame = _frame(args)
    report = scenario_reports(frame=frame, f=args.f, theta_d=LAB_THETA_D)
    return [
        (f"{panel.name}.csv", write_csv, ["axis", "density", "sql"],
         [panel.axis, panel.density, panel.sql])
        for panel in report[args.figure]
    ]


def _cmd_reproduce(args) -> list:
    return _reproduce_fig2(args) if args.figure == "fig2" else _reproduce_panels(args)


def build_parser() -> _Parser:
    parser = _Parser(prog="tmcat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tmcat {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    # flag groups shared by several subcommands, copied in through parents=
    common = _Parser(add_help=False)
    common.add_argument("--outdir", type=Path, default=Path(os.environ.get("TMCAT_OUTDIR", ".")),
                        help="output directory (default: $TMCAT_OUTDIR or .)")
    common.add_argument("--config", metavar="FILE",
                        help="key = value file supplying defaults for any flag")
    common.add_argument("--w0", type=parse_length, default=0.12e-3,
                        help="beam waist, length with unit suffix (default 0.12mm)")
    common.add_argument("--wavelength", type=parse_length, default=780e-9,
                        help="light wavelength (default 780nm)")

    angle = _Parser(add_help=False)
    one_of = angle.add_mutually_exclusive_group(required=True)
    one_of.add_argument("--theta-d", type=parse_angle, default=None,
                        help="overlap angle, e.g. 0.4pi")
    one_of.add_argument("--alpha", type=float, default=None,
                        help="displacement amplitude alpha = d/(sqrt(2) w0)")
    one_of.add_argument("--d-over-w0", type=float, default=None,
                        help="beam separation in waist units")

    state = _Parser(add_help=False)
    one_of = state.add_mutually_exclusive_group(required=True)
    one_of.add_argument("--T", type=float, default=None, help="vacuum weight T in [0,1]")
    one_of.add_argument("--state", choices=TYPICAL_KINDS, default=None,
                        help="named special state instead of --T/--phi")
    one_of.add_argument("--bloch", default=None, metavar="X,Y,Z",
                        help="unit Bloch vector instead of --T/--phi")
    # --phi goes with --T, and _resolve_params refuses --T without it
    state.add_argument("--phi", type=parse_angle, default=None,
                       help="relative phase, e.g. 0.98pi")

    p = sub.add_parser("state", parents=[common, angle, state],
                       help="resolve a qubit state and print its invariants")
    p.set_defaults(handler=_cmd_state)

    p = sub.add_parser("wigner", parents=[common, angle, state],
                       help="write a Wigner map as CSV (optionally PGM)")
    p.add_argument("--grid", type=int, default=256, help="points per axis")
    p.add_argument("--si", action="store_true", help="SI units instead of (X, P)")
    p.add_argument("--pgm", action="store_true", help="also write a scaled PGM")
    p.add_argument("--out", default="wigner.csv")
    p.set_defaults(handler=_cmd_wigner)

    p = sub.add_parser("marginals", parents=[common, angle, state],
                       help="write position/momentum densities as CSV")
    p.add_argument("--points", type=_point_count, default=481)
    p.add_argument("--prefix", default="marginal")
    p.set_defaults(handler=_cmd_marginals)

    p = sub.add_parser("beam", parents=[common], help="tabulate w(z), R(z), Gouy phase")
    p.add_argument("--z-max", type=parse_length, default=None,
                   help="table end (default 3 z_R)")
    p.add_argument("--points", type=_point_count, default=61)
    p.add_argument("--out", default="beam.csv")
    p.set_defaults(handler=_cmd_beam)

    p = sub.add_parser("ccd", parents=[common, angle, state],
                       help="render a synthetic sensor frame to PGM")
    p.add_argument("--plane", choices=("position", "momentum"), default="position")
    p.add_argument("--f", type=parse_length, default=LAB_FOCAL_LENGTH,
                   help="transform lens focal length (default 145mm)")
    p.add_argument("--nx", type=int, default=720)
    p.add_argument("--ny", type=int, default=480)
    p.add_argument("--pitch", type=parse_length, default=6.5e-6)
    p.add_argument("--bits", type=int, choices=(8, 12, 16), default=8)
    p.add_argument("--background", type=int, default=0)
    p.add_argument("--exposure", type=float, default=None,
                   help="counts per unit intensity (default: auto, peak at 90%%)")
    p.add_argument("--visibility", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None,
                   help="enable Poisson shot noise with this seed")
    p.add_argument("--tilt-alpha", type=float, default=0.0,
                   help="imaginary displacement added to the moving arm")
    p.add_argument("--out", default="ccd.pgm")
    p.set_defaults(handler=_cmd_ccd)

    p = sub.add_parser("fit", parents=[common], help="analyze a rendered PGM frame")
    p.add_argument("--image", required=True, help="PGM written by the ccd command")
    p.add_argument("--mode", choices=("gaussian", "phase"), default="gaussian")
    p.add_argument("--T", type=float, default=None, help="T used when rendering")
    p.add_argument("--d", type=parse_length, default=None,
                   help="beam separation used when rendering")
    p.add_argument("--out", default="fit.json")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("sweep", parents=[common, angle],
                       help="beam statistics along a (T, phi) path")
    p.add_argument("--path", required=True,
                   help="comma-separated T:phi pairs, e.g. 0.5:0,0.5:0.5pi")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("mdm", parents=[common, angle],
                       help="multimode keying error-rate simulation")
    p.add_argument("--scheme", choices=BASIS_SCHEMES, default="four_cat")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--sigma-theta", type=parse_angle, default=0.0,
                   help="phase-jitter width (radians or multiples of pi)")
    p.add_argument("--sigma-add", type=float, default=0.0,
                   help="additive overlap noise width")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="mdm.json")
    p.set_defaults(handler=_cmd_mdm)

    p = sub.add_parser("qkd", parents=[common, angle], help="two-basis key-exchange simulation")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--sigma-z", type=parse_length, default=0.0,
                   help="path-length jitter, e.g. 780nm")
    p.add_argument("--period", type=parse_length, default=1e-3,
                   help="fiber self-image period c T' (default 1mm)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="qkd.json")
    p.set_defaults(handler=_cmd_qkd)

    p = sub.add_parser("reproduce", parents=[common], help="regenerate the reference figures")
    p.add_argument("figure", choices=("fig2", "fig4", "fig5"))
    p.add_argument("--f", type=parse_length, default=LAB_FOCAL_LENGTH)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = build_parser()
        argv = _apply_config_file(parser, list(argv))
        args = parser.parse_args(argv)
        # an overflow, 0/0 or x/0 no input check foresaw raises, and lands
        # in E_NUMERIC below; underflow to zero is expected (exp(-large))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            artifacts = args.handler(args)
            name = f"reproduce_{args.figure}" if args.command == "reproduce" else args.command
            artifacts.append((f"{name}_manifest.json", write_json, _manifest(name, args)))
            # every artifact is computed before any is written; an absolute
            # name stays as it is under pathlib's join
            args.outdir.mkdir(parents=True, exist_ok=True)
            for path, writer, *content in artifacts:
                writer(args.outdir / path, *content)
        return 0
    except _UsageError as exc:
        print(f"E_USAGE: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"{NumericsError.code}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a float overflow or division by zero that no input check foresaw
        print(f"{NumericsError.code}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = exc.filename or "output"
        print(f"E_USAGE: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
