"""Command-line front end producing plot-ready CSV, PGM, and JSON artifacts.

Every run writes a JSON manifest echoing the fully resolved configuration
and the tool version; no output embeds timestamps, so identical invocations
produce byte-identical files.  Exit codes: 0 success, 1 usage error,
2 validation/numeric/fit error (single-line code-prefixed message on
stderr in both error cases).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
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
    read_json,
    read_pgm,
    write_csv,
    write_grid_csv,
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


def _read_config_tokens(path: str) -> list[str]:
    """'key = value' lines to synthetic flag tokens ('#' starts a comment)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}")
    tokens: list[str] = []
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
            tokens.append(flag)
        elif value.lower() in ("false", "no", "off"):
            continue
        else:
            tokens.extend([flag, value])
    return tokens


def _apply_config_file(argv: list[str]) -> list[str]:
    """Strip --config FILE and splice its tokens in after the subcommand.

    File-provided flags precede explicit ones, so the command line wins
    whenever both set the same key.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise _UsageError("--config needs a file path")
    tokens = _read_config_tokens(argv[i + 1])
    rest = argv[:i] + argv[i + 2 :]
    if not rest or rest[0].startswith("-"):
        raise _UsageError("--config requires a subcommand")
    return [rest[0]] + tokens + rest[1:]


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _write_manifest(outdir: Path, name: str, args: argparse.Namespace) -> None:
    config = {
        key: _jsonable(val)
        for key, val in vars(args).items()
        if key not in ("handler", "command")
    }
    payload = {
        "tool": "tmcat",
        "version": __version__,
        "command": name,
        "config": config,
        "seed": config.get("seed"),
    }
    write_json(outdir / f"{name}_manifest.json", payload)


def _add_common(p: _Parser) -> None:
    default_outdir = os.environ.get("TMCAT_OUTDIR", ".")
    p.add_argument("--outdir", type=Path, default=Path(default_outdir),
                   help="output directory (default: $TMCAT_OUTDIR or .)")
    p.add_argument("--config", metavar="FILE",
                   help="key = value file supplying defaults for any flag")
    p.add_argument("--w0", type=parse_length, default=0.12e-3,
                   help="beam waist, length with unit suffix (default 0.12mm)")
    p.add_argument("--wavelength", type=parse_length, default=780e-9,
                   help="light wavelength (default 780nm)")


def _add_angle_flags(p: _Parser) -> None:
    p.add_argument("--theta-d", type=parse_angle, default=None,
                   help="overlap angle, e.g. 0.4pi")
    p.add_argument("--alpha", type=float, default=None,
                   help="displacement amplitude alpha = d/(sqrt(2) w0)")
    p.add_argument("--d-over-w0", type=float, default=None,
                   help="beam separation in waist units")


def _add_state_flags(p: _Parser) -> None:
    p.add_argument("--T", type=float, default=None, help="vacuum weight T in [0,1]")
    p.add_argument("--phi", type=parse_angle, default=None,
                   help="relative phase, e.g. 0.98pi")
    p.add_argument("--state", choices=TYPICAL_KINDS, default=None,
                   help="named special state instead of --T/--phi")
    p.add_argument("--bloch", default=None, metavar="X,Y,Z",
                   help="unit Bloch vector instead of --T/--phi")


def _frame(args) -> ModeFrame:
    return ModeFrame(w0=args.w0, wavelength=args.wavelength)


def _resolve_angle(args) -> OverlapAngle:
    given = [
        args.theta_d is not None,
        args.alpha is not None,
        args.d_over_w0 is not None,
    ]
    if sum(given) > 1:
        raise _UsageError("give only one of --theta-d, --alpha, --d-over-w0")
    if args.theta_d is not None:
        return OverlapAngle.from_theta(args.theta_d)
    if args.alpha is not None:
        return OverlapAngle.from_alpha(args.alpha)
    if args.d_over_w0 is not None:
        return OverlapAngle.from_alpha(args.d_over_w0 / math.sqrt(2.0))
    raise _UsageError("give one of --theta-d, --alpha, --d-over-w0")


def _resolve_params(args, frame: ModeFrame, angle: OverlapAngle) -> QubitParams:
    modes = [args.bloch is not None, args.state is not None, args.T is not None]
    if sum(modes) > 1:
        raise _UsageError("give only one of --bloch, --state, --T/--phi")
    if args.bloch is not None:
        try:
            x, y, z = (float(part) for part in args.bloch.split(","))
        except ValueError:
            raise _UsageError(f"--bloch expects three comma-separated numbers, got {args.bloch!r}")
        return bloch_to_params(BlochVector(xq=x, yq=y, zq=z), angle, frame)
    if args.state is not None:
        params, _ = make_typical_state(args.state, angle, frame)
        return params
    if args.T is None or args.phi is None:
        raise _UsageError("give --T and --phi (or --state, or --bloch)")
    return QubitParams(T=args.T, phi=args.phi, d=angle.displacement(frame.w0))


def _fmt_pi(value: float) -> str:
    return f"{value / math.pi:.4f}".rstrip("0").rstrip(".") + "pi"


def _out_path(args, name: str) -> Path:
    path = Path(name)
    return path if path.is_absolute() else args.outdir / path


def _cmd_state(args) -> None:
    frame = _frame(args)
    angle = _resolve_angle(args)
    params = _resolve_params(args, frame, angle)
    bloch = params_to_bloch(params, angle)
    n_arb = normalization_factor(params.T, params.phi, angle)
    print(f"T = {params.T:.6g}")
    print(f"phi = {_fmt_pi(params.phi_signed)}")
    print(f"N_arb = {n_arb:.6g}")
    print(f"theta_d = {_fmt_pi(angle.theta_d)}")
    print(f"alpha = {angle.alpha:.6g}")
    print(f"d = {params.d:.6g} m")
    print(f"bloch = ({bloch.xq:.6g}, {bloch.yq:.6g}, {bloch.zq:.6g})")
    args.outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(args.outdir, "state", args)


def _cmd_wigner(args) -> None:
    frame = _frame(args)
    angle = _resolve_angle(args)
    params = _resolve_params(args, frame, angle)
    state = make_qubit_state(params, frame)
    result = wigner_map(state, n=args.grid, si_units=args.si)
    headers = ["x", "p", "w"] if args.si else ["X", "P", "W"]
    args.outdir.mkdir(parents=True, exist_ok=True)
    out = _out_path(args, args.out)
    write_grid_csv(out, headers, result.grid.x_axis(), result.grid.p_axis(), result.values)
    if args.pgm:
        sidecar = write_scaled_pgm(out.with_suffix(".pgm"), result.values)
        sidecar.update(
            {
                "x_min": result.grid.x_min,
                "x_max": result.grid.x_max,
                "p_min": result.grid.p_min,
                "p_max": result.grid.p_max,
                "si_units": result.grid.si_units,
            }
        )
        write_json(out.with_suffix(".pgm").with_name(out.stem + ".pgm.json"), sidecar)
    _write_manifest(args.outdir, "wigner", args)


def _cmd_marginals(args) -> None:
    frame = _frame(args)
    angle = _resolve_angle(args)
    params = _resolve_params(args, frame, angle)
    from .wigner import marginal_momentum, marginal_position

    w0 = frame.w0
    x = np.linspace(-4.5 * w0, params.d + 4.5 * w0, args.points)
    p = np.linspace(-8.0 * HBAR / w0, 8.0 * HBAR / w0, args.points)
    args.outdir.mkdir(parents=True, exist_ok=True)
    write_csv(
        _out_path(args, f"{args.prefix}_position.csv"),
        ["x", "density"],
        zip(x, marginal_position(params, frame, x)),
    )
    write_csv(
        _out_path(args, f"{args.prefix}_momentum.csv"),
        ["p", "density"],
        zip(p, marginal_momentum(params, frame, p)),
    )
    _write_manifest(args.outdir, "marginals", args)


def _cmd_beam(args) -> None:
    frame = _frame(args)
    z_max = args.z_max if args.z_max is not None else 3.0 * frame.z_r
    rows = []
    for z in np.linspace(0.0, z_max, args.points):
        b = beam_params_at(frame, float(z))
        rows.append((b.z, b.width, b.curvature_radius, b.gouy))
    args.outdir.mkdir(parents=True, exist_ok=True)
    write_csv(_out_path(args, args.out), ["z", "w", "R", "gouy"], rows)
    _write_manifest(args.outdir, "beam", args)


def _cmd_ccd(args) -> None:
    frame = _frame(args)
    angle = _resolve_angle(args)
    params = _resolve_params(args, frame, angle)
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
    plane = (
        PlaneTag(kind="position")
        if args.plane == "position"
        else PlaneTag(kind="momentum", f=args.f)
    )
    image = render_ccd(state, plane, config, frame)
    args.outdir.mkdir(parents=True, exist_ok=True)
    out = _out_path(args, args.out)
    write_pgm(out, image.counts, config.max_count)
    sidecar = {
        "nx": config.nx,
        "ny": config.ny,
        "pitch": config.pitch,
        "bit_depth": config.bit_depth,
        "background": config.background,
        "visibility": config.visibility,
        "seed": config.seed,
        "exposure_scale": image.exposure_scale,
        "saturated": image.saturated,
        "plane": plane.kind,
        "f": plane.f,
        "w0": frame.w0,
        "wavelength": frame.wavelength,
    }
    write_json(Path(str(out) + ".json"), sidecar)
    _write_manifest(args.outdir, "ccd", args)


def _image_from_files(path: Path) -> tuple[CcdImage, dict]:
    sidecar_path = Path(str(path) + ".json")
    try:
        counts, max_value = read_pgm(path)
        sidecar = read_json(sidecar_path)
    except OSError as exc:
        raise _UsageError(f"cannot read image: {exc}")
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"image sidecar {sidecar_path} is not JSON: {exc}")
    try:
        config = CcdConfig(
            nx=int(sidecar["nx"]),
            ny=int(sidecar["ny"]),
            pitch=float(sidecar["pitch"]),
            bit_depth=int(sidecar["bit_depth"]),
            background=int(sidecar["background"]),
            exposure_scale=float(sidecar["exposure_scale"]),
            visibility=float(sidecar["visibility"]),
            seed=sidecar["seed"],
        )
        if max_value != config.max_count:
            raise _UsageError(
                f"PGM max value {max_value} disagrees with sidecar bit depth"
            )
        plane = (
            PlaneTag(kind="position")
            if sidecar["plane"] == "position"
            else PlaneTag(kind="momentum", f=float(sidecar["f"]))
        )
        image = CcdImage(
            config=config,
            plane=plane,
            counts=counts,
            exposure_scale=float(sidecar["exposure_scale"]),
            saturated=bool(sidecar["saturated"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"image sidecar {sidecar_path} is malformed: {type(exc).__name__} {exc}"
        )
    return image, sidecar


def _cmd_fit(args) -> None:
    image, sidecar = _image_from_files(Path(args.image))
    profile = profile_from_image(image)
    args.outdir.mkdir(parents=True, exist_ok=True)
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
        phi_hat = estimate_relative_phase(
            profile,
            d=args.d,
            w0=float(sidecar["w0"]),
            T=args.T,
            f=image.plane.f,
            wavelength=float(sidecar["wavelength"]),
            pitch=image.config.pitch,
        )
        payload = {
            "mode": "phase",
            "phi_hat_rad": phi_hat,
            "phi_hat_over_pi": phi_hat / math.pi,
        }
    write_json(_out_path(args, args.out), payload)
    _write_manifest(args.outdir, "fit", args)


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


def _cmd_sweep(args) -> None:
    frame = _frame(args)
    angle = _resolve_angle(args)
    path = _parse_path(args.path)
    series = profile_sweep(path, angle.displacement(frame.w0), frame)
    rows = [
        (pt.T, pt.phi, pt.delta_x, pt.mean_vx, pt.center_intensity) for pt in series
    ]
    args.outdir.mkdir(parents=True, exist_ok=True)
    write_csv(
        _out_path(args, args.out),
        ["T", "phi", "delta_x", "mean_vx", "center_intensity"],
        rows,
    )
    _write_manifest(args.outdir, "sweep", args)


def _cmd_mdm(args) -> None:
    frame = _frame(args)
    angle = _resolve_angle(args)
    basis = build_basis(args.scheme, angle, frame)
    channel = ChannelModel(
        rotation_jitter_sigma=args.sigma_theta,
        additive_overlap_noise_sigma=args.sigma_add,
        seed=args.seed,
    )
    stats = psk_link_simulate(args.n, basis, channel, seed=args.seed)
    args.outdir.mkdir(parents=True, exist_ok=True)
    write_json(
        _out_path(args, args.out),
        {
            "scheme": args.scheme,
            "n": stats.rounds,
            "sifted": stats.sifted,
            "errors": stats.errors,
            "ber": stats.ber,
            "sigma_theta": args.sigma_theta,
            "sigma_add": args.sigma_add,
            "seed": args.seed,
        },
    )
    _write_manifest(args.outdir, "mdm", args)


def _cmd_qkd(args) -> None:
    fiber = FiberSpec(period_length=args.period)
    angle = _resolve_angle(args)
    stats = qkd_simulate(args.n, angle, args.sigma_z, fiber, seed=args.seed)
    args.outdir.mkdir(parents=True, exist_ok=True)
    write_json(
        _out_path(args, args.out),
        {
            "n": stats.rounds,
            "sifted": stats.sifted,
            "errors": stats.errors,
            "qber": stats.qber,
            "sift_rate": stats.sift_rate,
            "sigma_z": args.sigma_z,
            "period": args.period,
            "seed": args.seed,
        },
    )
    _write_manifest(args.outdir, "qkd", args)


def _reproduce_fig2(args, outdir: Path) -> None:
    frame = _frame(args)
    angle = OverlapAngle.from_displacement(frame.w0, frame.w0)
    half = 4.0
    n = 256
    coords = np.linspace(-half, half, n)
    x_si = frame.w0 / 2.0 + frame.x_scale * coords
    p_si = frame.p_scale * coords
    for kind in TYPICAL_KINDS:
        _, state = make_typical_state(kind, angle, frame)
        values = HBAR * wigner_of_state(state, x_si, p_si)
        write_grid_csv(outdir / f"fig2_{kind}.csv", ["X", "P", "W"], coords, coords, values)
        sidecar = write_scaled_pgm(outdir / f"fig2_{kind}.pgm", values)
        sidecar.update({"state": kind, "half_range": half, "n": n})
        write_json(outdir / f"fig2_{kind}.pgm.json", sidecar)


def _reproduce_panels(outdir: Path, fig: str, args) -> None:
    frame = _frame(args)
    report = scenario_reports(frame=frame, f=args.f, theta_d=LAB_THETA_D)
    for panel in report[fig]:
        write_csv(
            outdir / f"{panel.name}.csv",
            ["axis", "density", "sql"],
            zip(panel.axis, panel.density, panel.sql),
        )


def _cmd_reproduce(args) -> None:
    args.outdir.mkdir(parents=True, exist_ok=True)
    if args.figure == "fig2":
        _reproduce_fig2(args, args.outdir)
    else:
        _reproduce_panels(args.outdir, args.figure, args)
    _write_manifest(args.outdir, f"reproduce_{args.figure}", args)


def build_parser() -> _Parser:
    parser = _Parser(prog="tmcat", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tmcat {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, required=True)

    p = sub.add_parser("state", help="resolve a qubit state and print its invariants")
    _add_common(p)
    _add_angle_flags(p)
    _add_state_flags(p)
    p.set_defaults(handler=_cmd_state)

    p = sub.add_parser("wigner", help="write a Wigner map as CSV (optionally PGM)")
    _add_common(p)
    _add_angle_flags(p)
    _add_state_flags(p)
    p.add_argument("--grid", type=int, default=256, help="points per axis")
    p.add_argument("--si", action="store_true", help="SI units instead of (X, P)")
    p.add_argument("--pgm", action="store_true", help="also write a scaled PGM")
    p.add_argument("--out", default="wigner.csv")
    p.set_defaults(handler=_cmd_wigner)

    p = sub.add_parser("marginals", help="write position/momentum densities as CSV")
    _add_common(p)
    _add_angle_flags(p)
    _add_state_flags(p)
    p.add_argument("--points", type=_point_count, default=481)
    p.add_argument("--prefix", default="marginal")
    p.set_defaults(handler=_cmd_marginals)

    p = sub.add_parser("beam", help="tabulate w(z), R(z), Gouy phase")
    _add_common(p)
    p.add_argument("--z-max", type=parse_length, default=None,
                   help="table end (default 3 z_R)")
    p.add_argument("--points", type=_point_count, default=61)
    p.add_argument("--out", default="beam.csv")
    p.set_defaults(handler=_cmd_beam)

    p = sub.add_parser("ccd", help="render a synthetic sensor frame to PGM")
    _add_common(p)
    _add_angle_flags(p)
    _add_state_flags(p)
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

    p = sub.add_parser("fit", help="analyze a rendered PGM frame")
    _add_common(p)
    p.add_argument("--image", required=True, help="PGM written by the ccd command")
    p.add_argument("--mode", choices=("gaussian", "phase"), default="gaussian")
    p.add_argument("--T", type=float, default=None, help="T used when rendering")
    p.add_argument("--d", type=parse_length, default=None,
                   help="beam separation used when rendering")
    p.add_argument("--out", default="fit.json")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("sweep", help="beam statistics along a (T, phi) path")
    _add_common(p)
    _add_angle_flags(p)
    p.add_argument("--path", required=True,
                   help="comma-separated T:phi pairs, e.g. 0.5:0,0.5:0.5pi")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("mdm", help="multimode keying error-rate simulation")
    _add_common(p)
    _add_angle_flags(p)
    p.add_argument("--scheme", choices=BASIS_SCHEMES, default="four_cat")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--sigma-theta", type=parse_angle, default=0.0,
                   help="phase-jitter width (radians or multiples of pi)")
    p.add_argument("--sigma-add", type=float, default=0.0,
                   help="additive overlap noise width")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="mdm.json")
    p.set_defaults(handler=_cmd_mdm)

    p = sub.add_parser("qkd", help="two-basis key-exchange simulation")
    _add_common(p)
    _add_angle_flags(p)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--sigma-z", type=parse_length, default=0.0,
                   help="path-length jitter, e.g. 780nm")
    p.add_argument("--period", type=parse_length, default=1e-3,
                   help="fiber self-image period c T' (default 1mm)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="qkd.json")
    p.set_defaults(handler=_cmd_qkd)

    p = sub.add_parser("reproduce", help="regenerate the reference figures")
    _add_common(p)
    p.add_argument("figure", choices=("fig2", "fig4", "fig5"))
    p.add_argument("--f", type=parse_length, default=LAB_FOCAL_LENGTH)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _apply_config_file(list(argv))
        parser = build_parser()
        args = parser.parse_args(argv)
        args.handler(args)
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
    except OSError as exc:
        target = exc.filename or "output"
        print(f"E_USAGE: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
