"""Scene files: a flat, line-oriented key-value format describing surfaces,
an optical system, a ray family, and numerical options.

Grammar (strict; unknown keys and malformed, non-finite or huge values are
fatal; a number is huge from magnitude 1e150 up, where its square nears the
float range and the norm of a vector of them overflows):

    # comment                      blank lines and '#' comments are skipped
    [surface <name>]               one section per surface, names unique
    kind = plane | sphere | quadric | sinusoid
    ... kind-specific keys ...
    incoming_sign = 1 | -1         optional, default 1

    [system]                       optional; omitted means empty system
    ambient_index = <float>        optional, default 1
    interface = <name> reflect
    interface = <name> refract <n_in> <n_out>

    [family]                       optional; required by family commands
    kind = point_source | collimated | two_skew_lines | normal_congruence
    ... kind-specific keys ...
    domain = <k1min> <k1max> <k2min> <k2max>

    [options]                      optional; all keys optional
    grid, tol, step, seed, m1, m2, focus, epsilon, level, wavefront_c, k0

Kind-specific surface keys: plane takes `normal` (3 floats) and optional
`offset`; sphere takes `center` and `radius`; quadric takes `matrix` (9
floats, row-major), `linear` (3 floats) and `constant`; sinusoid takes
`amplitude` and `wavevector` (2 floats).  Family keys: point_source takes
`apex` and `axis`; collimated takes `direction` and optional `origin`;
two_skew_lines takes `point1`, `dir1`, `point2`, `dir2`; normal_congruence
takes `surface` (a declared name), optional `axis` (read for a sphere only)
and `outward`, and a required `domain`.  A scene's family carries its kind
line as `family.kind`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import SceneSyntaxError, UnknownSurfaceError
from .families import (
    RayFamily,
    collimated,
    normal_congruence,
    point_source,
    two_skew_lines,
)
from .optics import REFLECT, REFRACT, Interface, OpticalSystem
from .surfaces import Plane, Quadric, Sinusoid, Sphere

_SECTION_RE = re.compile(r"^\[(surface\s+([A-Za-z_][A-Za-z0-9_-]*)|system|family|options)\]$")


@dataclass(eq=False)
class Scene:
    surfaces: dict
    system: OpticalSystem
    family: RayFamily | None
    options: dict = field(default_factory=dict)


_HUGE = 1e150


def _floats(raw, count, line_no, col):
    parts = raw.split()
    if len(parts) != count:
        raise SceneSyntaxError(line_no, col, f"expected {count} numbers, got {len(parts)}")
    try:
        values = list(map(float, parts))
    except ValueError:
        raise SceneSyntaxError(line_no, col, f"bad number in {raw!r}") from None
    if not all(abs(v) < _HUGE for v in values):  # a NaN fails it too
        if not all(map(math.isfinite, values)):
            raise SceneSyntaxError(line_no, col, f"non-finite number in {raw!r}")
        raise SceneSyntaxError(line_no, col, f"number of magnitude 1e150 or more in {raw!r}")
    return np.array(values)


def _float(raw, line_no, col):
    try:
        value = float(raw)
    except ValueError:
        raise SceneSyntaxError(line_no, col, f"bad number {raw!r}") from None
    if not abs(value) < _HUGE:  # a NaN fails it too
        if not math.isfinite(value):
            raise SceneSyntaxError(line_no, col, f"non-finite number {raw!r}")
        raise SceneSyntaxError(line_no, col, f"number of magnitude 1e150 or more: {raw!r}")
    return value


def _int(raw, line_no, col):
    try:
        return int(raw)
    except ValueError:
        raise SceneSyntaxError(line_no, col, f"bad integer {raw!r}") from None


def _bool(raw, line_no, col):
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise SceneSyntaxError(line_no, col, f"expected true or false, got {raw!r}")


def _checked(parse, ok, message):
    """The value parser `parse`, refusing a value for which ok(value) is false."""

    def checked(raw, line_no, col):
        value = parse(raw, line_no, col)
        if not ok(value):
            raise SceneSyntaxError(line_no, col, message)
        return value

    return checked


def _sign(key):
    return _checked(_int, lambda v: v in (1, -1), f"{key} must be 1 or -1")


class _Section:
    """One section: its header, name and line, its entries key -> (value,
    line, col of the value) in file order, and the `interface` entries of a
    [system] section, which may repeat."""

    __slots__ = ("header", "name", "line_no", "entries", "interfaces")

    def __init__(self, header, name, line_no):
        self.header = header
        self.name = name
        self.line_no = line_no
        self.entries = {}
        self.interfaces = []

    def what(self):
        return f"{self.header} {self.name!r}" if self.name else self.header

    def finish(self, allowed):
        """Raise for the first entry, in file order, whose key is not allowed."""
        for key, (_, line_no, col) in self.entries.items():
            if key not in allowed:
                raise SceneSyntaxError(line_no, col, f"unknown key {key!r}")


def _split_sections(text):
    """The sections of `text`, in file order, from one pass over its lines:
    the first malformed line raises, before any value is parsed."""
    sections = []
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped[0] == "#":
            continue
        if stripped[0] == "[":
            m = _SECTION_RE.match(stripped)
            if not m:
                raise SceneSyntaxError(line_no, raw.index("[") + 1, f"bad section header {stripped!r}")
            current = _Section("surface" if m[2] else m[1], m[2], line_no)
            sections.append(current)
            continue
        if current is None:
            raise SceneSyntaxError(line_no, 1, "key before any section header")
        key_part, eq, value = raw.partition("=")
        if not eq:
            raise SceneSyntaxError(line_no, 1, "expected key = value")
        key = key_part.strip()
        if not key:
            raise SceneSyntaxError(line_no, 1, "empty key")
        value_col = len(key_part) + 2
        value = value.partition("#")[0].strip()
        if not value:
            raise SceneSyntaxError(line_no, value_col, f"empty value for {key!r}")
        if key == "interface" and current.header == "system":
            current.interfaces.append((value, line_no, value_col))
        elif key in current.entries:
            key_col = len(key_part) - len(key_part.lstrip()) + 1
            raise SceneSyntaxError(line_no, key_col, f"duplicate key {key!r}")
        else:
            current.entries[key] = (value, line_no, value_col)
    return sections


def _vector(count):
    return lambda raw, line_no, col: _floats(raw, count, line_no, col)


def _matrix(raw, line_no, col):
    return _floats(raw, 9, line_no, col).reshape(3, 3)


# kind -> (class, {key: value parser} in parse order, required keys); every
# kind also takes `kind` and the optional `incoming_sign` (_SURFACE_COMMON)
_SURFACES = {
    "plane": (Plane, {"offset": _float, "normal": _vector(3)}, ("normal",)),
    "sphere": (Sphere, {"center": _vector(3), "radius": _float}, ("center", "radius")),
    "quadric": (
        Quadric,
        {"matrix": _matrix, "linear": _vector(3), "constant": _float},
        ("matrix", "linear", "constant"),
    ),
    "sinusoid": (
        Sinusoid,
        {"amplitude": _float, "wavevector": _vector(2)},
        ("amplitude", "wavevector"),
    ),
}
_SURFACE_COMMON = {"incoming_sign": _sign("incoming_sign")}


def _declared(name, surfaces):
    """The surface of `surfaces` called `name`."""
    if name not in surfaces:
        raise UnknownSurfaceError(name)
    return surfaces[name]


_POINT = _vector(3)
# kind -> (builder, {key: value parser} in parse order, required keys) of a
# [family] section; every kind also takes `kind` and `domain`, and the value
# parser _declared resolves a surface name against the scene's surfaces
_FAMILIES = {
    "point_source": (point_source, {"apex": _POINT, "axis": _POINT}, ("apex", "axis")),
    "collimated": (collimated, {"origin": _POINT, "direction": _POINT}, ("direction",)),
    "two_skew_lines": (
        two_skew_lines,
        {"point1": _POINT, "dir1": _POINT, "point2": _POINT, "dir2": _POINT},
        ("point1", "dir1", "point2", "dir2"),
    ),
    "normal_congruence": (
        normal_congruence,
        {"surface": _declared, "axis": _POINT, "outward": _bool},
        ("surface", "domain"),
    ),
}


def _build(section, kinds, common, surfaces=None):
    """The object of a [surface] or [family] section: `kinds` is its
    table, and `common` maps the keys every kind takes to their parsers,
    which run before the unknown-key check; a key parsed by _declared names
    one of `surfaces`.  A ValueError of the builder is reported at the
    section's line.  Every number a builder gets is finite and below 1e150
    in magnitude, so its squares and norms cannot overflow."""
    entries = section.entries
    kind, line_no, col = entries.pop("kind", (None, 0, 0))
    if kind not in kinds:
        if kind is None:
            raise SceneSyntaxError(section.line_no, 1, f"{section.what()} has no kind")
        raise SceneSyntaxError(line_no, col, f"unknown {section.header} kind {kind!r}")
    builder, parsers, required = kinds[kind]
    for key in required:
        if key not in entries:
            raise SceneSyntaxError(section.line_no, 1, f"{section.what()} missing key {key!r}")
    values = {key: parse(*entries.pop(key)) for key, parse in common.items() if key in entries}
    section.finish(parsers)
    for key, parse in parsers.items():
        if key in entries:
            raw = entries[key]
            values[key] = _declared(raw[0], surfaces) if parse is _declared else parse(*raw)
    try:
        return builder(**values)
    except ValueError as exc:
        raise SceneSyntaxError(section.line_no, 1, str(exc)) from None


def _build_system(section, surfaces):
    ambient = section.entries.pop("ambient_index", None)
    section.finish(())
    ambient = 1.0 if ambient is None else _float(*ambient)
    interfaces = []
    current_index = ambient
    for value, line_no, col in section.interfaces:
        parts = value.split()
        if len(parts) < 2:
            raise SceneSyntaxError(line_no, col, "expected '<surface> reflect' or '<surface> refract <n_in> <n_out>'")
        surface, action = _declared(parts[0], surfaces), parts[1]
        if action == REFLECT:
            if len(parts) != 2:
                raise SceneSyntaxError(line_no, col, "reflect takes no indices")
            interfaces.append(Interface(surface, REFLECT, current_index))
        elif action == REFRACT:
            if len(parts) != 4:
                raise SceneSyntaxError(line_no, col, "refract takes n_in and n_out")
            n_in = _float(parts[2], line_no, col)
            current_index = _float(parts[3], line_no, col)
            interfaces.append(Interface(surface, REFRACT, n_in, current_index))
        else:
            raise SceneSyntaxError(line_no, col, f"unknown action {action!r}")
    return OpticalSystem(tuple(interfaces), ambient)


def _parse_domain(raw, line_no, col):
    vals = _floats(raw, 4, line_no, col).tolist()
    if not (vals[0] < vals[1] and vals[2] < vals[3]):
        raise SceneSyntaxError(line_no, col, "domain bounds must be increasing")
    return ((vals[0], vals[1]), (vals[2], vals[3]))


# key -> value parser of an [options] section; the command line checks
# --grid, --tol, --step and --seed with the same parsers
_OPTIONS = {
    "grid": _checked(_int, lambda v: v >= 3, "grid must be at least 3"),
    "tol": _checked(_float, lambda v: v > 0.0, "tol must be positive"),
    "step": _checked(_float, lambda v: v > 0.0, "step must be positive"),
    "seed": _checked(_int, lambda v: v >= 0, "seed must be at least 0"),
    "m1": _vector(3),
    "m2": _vector(3),
    "focus": _vector(3),
    "epsilon": _sign("epsilon"),
    "level": _float,
    "wavefront_c": _float,
    "k0": lambda raw, line_no, col: tuple(_floats(raw, 2, line_no, col)),
}


def _build_options(section):
    """The options of `section`, parsed in file order: its first bad line is reported."""
    opts = {}
    for key, (raw, line_no, col) in section.entries.items():
        if key not in _OPTIONS:
            raise SceneSyntaxError(line_no, col, f"unknown key {key!r}")
        opts[key] = _OPTIONS[key](raw, line_no, col)
    return opts


def parse_scene(text: str) -> Scene:
    """Parse scene text; strict about sections, keys and value shapes."""
    sections = _split_sections(text)
    surfaces = {}
    single = {}  # header -> its one section, for [system], [family] and [options]
    for section in sections:
        if section.header == "surface":
            if section.name in surfaces:
                raise SceneSyntaxError(
                    section.line_no, 1, f"duplicate surface {section.name!r}"
                )
            surfaces[section.name] = _build(section, _SURFACES, _SURFACE_COMMON)
        elif section.header in single:
            raise SceneSyntaxError(section.line_no, 1, f"duplicate [{section.header}] section")
        else:
            single[section.header] = section

    if "system" in single:
        system = _build_system(single["system"], surfaces)
    else:
        system = OpticalSystem((), ambient_index=1.0)
    family = None
    if "family" in single:
        family = _build(single["family"], _FAMILIES, {"domain": _parse_domain}, surfaces)
    options = _build_options(single["options"]) if "options" in single else {}
    return Scene(surfaces, system, family, options)


def load_scene(path) -> Scene:
    """The scene of a UTF-8 file, its bytes decoded at once: the text and
    any decoding error are a text-mode read's, but for line ends, which the
    parser takes alike (\\n, \\r\\n or \\r)."""
    with open(path, "rb") as handle:
        return parse_scene(handle.read().decode("utf-8"))
