"""Command-line front end.

Commands map one-to-one to library capabilities: trace, defect,
check-symplectic, wavefront, mirror, characteristic.  All outputs are
deterministic: CSV files plus a report.txt of `key: value` lines in the
--out directory, floats rendered with repr-faithful %.17g.  Each `cmd_*`
returns ({CSV name: text}, report pairs, None or a failed check's message);
`main` writes every file (see `_write`) and picks the exit code: 0 success,
1 scene error, bad command line (unknown command, missing --scene, an option
value that the scene's [options] rules refuse) or an output that cannot be
written, 2 numerical failure (the failing k or interface is named in the
stderr message) or a failed check.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import families, variational
from .errors import FamilyTraceError, RaySpaceError, SceneSyntaxError, TraceError, ZeroDirectionError
from .families import (
    _default_tol,
    _defect_grids,
    _fmt,
    _grid_axes,
    _grid_csv,
    _grid_lines,
    _largest_at,
    _starts,
    orthogonality_residual,
    reconstruct_wavefront,
    transform_family,
)
from .lines import _norm, _ray, chart_jacobian, symplectic_residual
from .optics import REFLECT, OpticalSystem, _cursor_past, propagate_system
from .scene import _OPTIONS, load_scene
from .variational import characteristic_function, design_focusing_mirror, law_residual, stationarity_residual


class _UsageError(Exception):
    pass


def _vec_str(v):
    return " ".join(_fmt(float(x)) for x in np.asarray(v).ravel())


def _opt(scene, args, key, default=None):
    value = getattr(args, key)
    return scene.options.get(key, default) if value is None else value


def _require_family(scene):
    if scene.family is None:
        raise _UsageError("this command needs a [family] section in the scene")
    return scene.family


def _require_option(scene, key):
    if key not in scene.options:
        raise _UsageError(f"this command needs option {key!r} in [options]")
    return scene.options[key]


def _k0_arg(scene):
    if "k0" in scene.options:
        return scene.options["k0"]
    (lo1, hi1), (lo2, hi2) = scene.family.domain
    return (0.5 * (lo1 + hi1), 0.5 * (lo2 + hi2))


def _interface_label(itf):
    kind = type(itf.surface).__name__.lower()
    if itf.action == REFLECT:
        return f"{kind} reflect"
    return f"{kind} refract {_fmt(itf.n_in)} -> {_fmt(itf.n_out)}"


def cmd_trace(scene, args):
    family = transform_family(_require_family(scene), scene.system)
    grid = _opt(scene, args, "grid", 9)
    tol = _opt(scene, args, "tol", 1e-9)
    k1, k2 = _grid_axes(family, grid, 0.0)
    _, u, q, _ = _grid_lines(family, k1, k2)
    residuals = np.maximum(abs(_norm(u) - 1.0), abs(np.vecdot(q, u)))
    worst = np.fmax.reduce(residuals, axis=None, initial=0.0)
    nodes = np.concatenate([u, q], axis=-1)
    h1 = (k1[-1] - k1[0]) / (len(k1) - 1)
    h2 = (k2[-1] - k2[0]) / (len(k2) - 1)
    pairs = [
        ("interfaces", len(scene.system.interfaces)),
        ("grid", grid),
        ("step", f"{_fmt(h1)} {_fmt(h2)}"),
        ("tolerance", _fmt(tol)),
        ("max_line_residual", _fmt(worst)),
    ]
    k = _largest_at(k1, k2, residuals)
    failure = None if worst <= tol else f"line residual {worst:.3e} at k={k} exceeds {tol:g}"
    return {"trace.csv": _grid_csv("k1,k2,ux,uy,uz,qx,qy,qz", k1, k2, nodes)}, pairs, failure


def cmd_defect(scene, args):
    family = _require_family(scene)
    grid = _opt(scene, args, "grid", 9)
    tol = _opt(scene, args, "tol")
    step = _opt(scene, args, "step")
    grid_before, grid_after = _defect_grids(family, scene.system, grid=grid, h=step)
    tol_used = tol if tol is not None else _default_tol(family)
    ok_before, ok_after = grid_before.max_abs < tol_used, grid_after.max_abs < tol_used
    files = {"defect_before.csv": grid_before.to_csv(), "defect_after.csv": grid_after.to_csv()}
    pairs = [
        ("grid", grid),
        ("step", _fmt(grid_before.step)),
        ("tolerance", _fmt(tol_used)),
        ("max_defect_before", _fmt(grid_before.max_abs)),
        ("rectangular_before", "true" if ok_before else "false"),
        ("max_defect_after", _fmt(grid_after.max_abs)),
        ("rectangular_after", "true" if ok_after else "false"),
        ("verdict", "RECTANGULAR" if ok_after else "NOT RECTANGULAR"),
    ]
    return files, pairs, None


def cmd_check_symplectic(scene, args):
    family = _require_family(scene)
    if not scene.system.interfaces:
        raise _UsageError("check-symplectic needs at least one interface")
    tol = _opt(scene, args, "tol", 1e-6)
    step = _opt(scene, args, "step", 2.5e-6)  # h^2 error and eps/h round-off << tol
    seed = _opt(scene, args, "seed", 0)
    samples = 5
    rng = np.random.default_rng(seed)
    (lo1, hi1), (lo2, hi2) = family.domain
    ks = np.column_stack(
        [rng.uniform(lo1, hi1, samples), rng.uniform(lo2, hi2, samples)]
    )
    pairs = [
        ("samples", samples),
        ("seed", seed),
        ("step", _fmt(step)),
        ("tolerance", _fmt(tol)),
    ]
    interfaces = scene.system.interfaces
    scales = [itf.n_in / itf.n_after for itf in interfaces]
    lines = family.eval(ks[:, 0], ks[:, 1])
    jacobians = _interface_jacobians(ks, lines, _starts(lines), interfaces, step)
    # Python's max over the samples in order passes over a NaN residual,
    # as the sample-by-sample check did
    worst = [
        max([0.0, *symplectic_residual(jac, scale=scale).tolist()])
        for jac, scale in zip(jacobians, scales)
    ]
    for i, itf in enumerate(interfaces):
        pairs.append((f"interface_{i}", _interface_label(itf)))
        pairs.append((f"interface_{i}_scale", _fmt(scales[i])))
        pairs.append((f"interface_{i}_residual", _fmt(worst[i])))
    worst_overall = max(worst)
    ok = worst_overall < tol
    pairs.append(("max_residual", _fmt(worst_overall)))
    pairs.append(("symplectic", "true" if ok else "false"))
    failure = None if ok else f"symplectic residual {worst_overall:.3e} exceeds {tol:g}"
    return {}, pairs, failure


def _interface_jacobians(ks, lines, starts, interfaces, step):
    """The chart Jacobian of each interface's map, one (N, 4, 4) stack per
    interface, at the sampled lines (parameters ks) as they arrive there
    from their starts: one chart_jacobian batch per interface.

    Fails as `errors` sets out; the stages are the interfaces, each with
    chart_jacobian's stages.
    """
    jacobians = []
    line, start = lines, starts
    for i, itf in enumerate(interfaces):
        single = OpticalSystem((itf,), ambient_index=itf.n_in)
        # row r of a batch belongs to sample r // 9, and is traced from
        # that sample's start, moved onto the row's line
        block_starts = np.repeat(start, 9, axis=0)
        traced = []

        def crossing(l):
            on_l = l.q + np.vecdot(block_starts - l.q, l.u)[..., None] * l.u
            traced.append(propagate_system(l, single, start=on_l))
            return traced[-1].line_out

        try:
            jacobians.append(chart_jacobian(crossing, line, h=step)[0])
        except RaySpaceError as exc:
            if traced:  # the output charts fail as they are
                raise
            cause = exc.cause if isinstance(exc, TraceError) else exc  # the map's or a stencil line's
            raise FamilyTraceError(ks[exc.row], TraceError(i, cause)).at(exc.row) from exc
        if i + 1 < len(interfaces):
            # each sample itself is row 0 of its block
            result, samples = traced[-1], slice(0, None, 9)
            line = _ray(result.line_out, samples)
            start = line.point_at(_cursor_past(line, result.hits[0].point[samples]))
    return jacobians


def cmd_wavefront(scene, args):
    family = transform_family(_require_family(scene), scene.system)
    grid = _opt(scene, args, "grid", 9)
    path_tol = _opt(scene, args, "tol", 1e-7)
    step = _opt(scene, args, "step", family.default_step())
    c = scene.options.get("wavefront_c", 0.0)
    k0 = _k0_arg(scene)
    wf = reconstruct_wavefront(
        family, k0, c=c, grid=grid, h=step, path_tol=path_tol
    )
    residual = orthogonality_residual(family, wf)
    i0, j0 = wf.base_index
    pairs = [
        ("grid", grid),
        ("step", _fmt(step)),
        ("tolerance", _fmt(path_tol)),
        ("integral_tolerance", _fmt(families._INTEGRAL_TOL)),
        ("wavefront_c", _fmt(c)),
        ("k0_requested", _vec_str(k0)),
        ("k0_used", f"{_fmt(wf.k1[i0])} {_fmt(wf.k2[j0])}"),
        ("path_discrepancy", _fmt(wf.path_discrepancy)),
        ("orthogonality_residual", _fmt(residual)),
    ]
    return {"wavefront.csv": wf.to_csv()}, pairs, None


def cmd_mirror(scene, args):
    family = transform_family(_require_family(scene), scene.system)
    grid = _opt(scene, args, "grid", 9)
    tol = _opt(scene, args, "tol", 1e-6)
    step = _opt(scene, args, "step", family.default_step())
    focus = _require_option(scene, "focus")
    epsilon = _require_option(scene, "epsilon")
    level = _require_option(scene, "level")
    c = scene.options.get("wavefront_c", 0.0)
    k0 = _k0_arg(scene)
    design = design_focusing_mirror(
        family, k0, focus, epsilon, level, grid=grid, wavefront_c=c, h=step
    )
    focused, miss, k = variational._verify_focus(design, family, tol)
    pairs = [
        ("grid", grid),
        ("step", _fmt(step)),
        ("tolerance", _fmt(tol)),
        ("focus", _vec_str(focus)),
        ("epsilon", epsilon),
        ("level", _fmt(level)),
        ("wavefront_c", _fmt(c)),
        ("max_miss", _fmt(miss)),
        ("focused", "true" if focused else "false"),
    ]
    failure = None if focused else f"focus missed by {miss:.3e} at k={k} (tolerance {tol:g})"
    return {"mirror.csv": design.to_csv()}, pairs, failure


def cmd_characteristic(scene, args):
    m1 = _require_option(scene, "m1")
    m2 = _require_option(scene, "m2")
    try:
        value, pc = characteristic_function(m1, m2, scene.system)
        station = stationarity_residual(pc)
        law = law_residual(pc)
    except ValueError as exc:  # the path check's, naming the segment whose points coincide
        ends = ["M1", *(f"interface {i}" for i in range(len(scene.system.interfaces))), "M2"]
        raise ZeroDirectionError(f"{ends[exc.segment]} and {ends[exc.segment + 1]}: {exc}") from None
    pairs = [
        ("m1", _vec_str(m1)),
        ("m2", _vec_str(m2)),
        ("step", _fmt(variational._FD_H)),
        ("tolerance", _fmt(variational._GRAD_TOL)),
        ("law_tolerance", _fmt(variational._LAW_TOL)),
        ("optical_length", _fmt(value)),
        ("stationarity_residual", _fmt(station)),
        ("law_residual", _fmt(law)),
        ("hits", len(pc.charts)),
    ]
    for i, point in enumerate(pc.points()):
        pairs.append((f"hit_{i}", _vec_str(point)))
    return {}, pairs, None


_COMMANDS = {
    "trace": cmd_trace,
    "defect": cmd_defect,
    "check-symplectic": cmd_check_symplectic,
    "wavefront": cmd_wavefront,
    "mirror": cmd_mirror,
    "characteristic": cmd_characteristic,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2, which this CLI keeps for numerical failures
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser():
    parser = _Parser(
        prog="rayspace",
        description="Geometrical optics on the manifold of oriented lines.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--scene", required=True, help="scene file path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--grid", type=_option_type("grid", int), help="grid nodes per axis")
    parser.add_argument("--tol", type=_option_type("tol", float), help="main tolerance")
    parser.add_argument("--step", type=_option_type("step", float), help="finite-difference step")
    parser.add_argument("--seed", type=_option_type("seed", int), help="sampling seed")
    return parser


def _option_type(key, convert):
    """The argparse type of --<key>: the text must convert (argparse reports
    an "invalid <convert> value"), and the [options] parser of `key` checks
    the value, so both routes refuse the same values."""

    def parse(raw):
        convert(raw)
        try:
            return _OPTIONS[key](raw, 0, 0)
        except SceneSyntaxError as exc:
            raise argparse.ArgumentTypeError(exc.message) from None

    parse.__name__ = convert.__name__
    return parse


def _error(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _write(path, text):
    """Write `text` to `path` as UTF-8, overwriting a file already there in
    place and then cutting it to the new length.

    Reruns into the same --out are the common case.  Truncating an existing
    file to zero and rewriting it, as open(path, "w") does, makes ext4 (with
    its default auto_da_alloc) allocate and write back the file's blocks at
    close, which costs many times an overwrite (see CHANGES.md).  A new file
    gets the mode open(path, "w") gives it.  If a write fails, the file is
    cut to zero, so it never holds new bytes followed by old ones, and an
    OSError is raised again with the file's name.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        os.ftruncate(fd, len(data))
    except BaseException as exc:
        os.ftruncate(fd, 0)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
    finally:
        os.close(fd)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        scene = load_scene(args.scene)
    except (OSError, UnicodeDecodeError, RaySpaceError) as exc:
        return _error(exc, 1)
    try:
        files, pairs, failure = _COMMANDS[args.command](scene, args)
    except _UsageError as exc:
        return _error(exc, 1)
    except RaySpaceError as exc:
        return _error(exc, 2)
    pairs = [("command", args.command), ("scene", args.scene), *pairs]
    files["report.txt"] = "".join(f"{k}: {v}\n" for k, v in pairs)
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, text in files.items():
            _write(os.path.join(args.out, name), text)
    except OSError as exc:
        return _error(exc, 1)
    return 0 if failure is None else _error(failure, 2)


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
