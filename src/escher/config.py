"""Run configuration: a flat ``key = value`` text format and its dataclass.

The grammar is one assignment per line, ``#`` comments, blank lines
ignored, sections spelled as dotted keys::

    surface.kind = oscillating_sphere
    mesh.subdivisions = 2
    scheme = fully_implicit
    eps = 0.05
    tau = 1e-4
    T = 0.1
    initial = sphere_eoc

``parse_config(emit_config(cfg))`` reproduces the configuration exactly.

``RunConfig`` extends ``solver.SchemeConfig``; ``validate_config`` checks
every input rule, the scheme's through ``SchemeConfig.validate``, and names
each fault by its config key.
"""

import math
from dataclasses import dataclass, field, fields
from functools import partial
from types import MappingProxyType

import numpy as np

from .errors import ParseError, ValidationError
from .meshing import MAX_NODES, MAX_SUBDIVISIONS, build_icosphere, build_torus_mesh
from .potentials import quartic_potential
from .solver import SchemeConfig
from .surfaces import make_surface, surface_kinds


def sphere_eoc_initial(points):
    """u0(x, y, z) = 0.5 x sin(pi y)."""
    points = np.asarray(points, dtype=float)
    return 0.5 * points[..., 0] * np.sin(np.pi * points[..., 1])


def torus_initial(points):
    """u0(x, y, z) = 0.5 x y sin(10 pi z)."""
    points = np.asarray(points, dtype=float)
    return (0.5 * points[..., 0] * points[..., 1]
            * np.sin(10.0 * np.pi * points[..., 2]))


def _constant_initial(points, value=0.0):
    points = np.asarray(points, dtype=float)
    return np.full(points.shape[:-1], value)


INITIAL_DATA = ("sphere_eoc", "torus", "constant")


@dataclass(frozen=True)
class RunConfig(SchemeConfig):
    """Everything one run needs: the scheme's settings, with defaults for
    the three it requires, and the surface, mesh, potential, initial data
    and output around them."""

    eps: float = 0.05
    tau: float = 1e-4
    t_end: float = 0.1
    surface_kind: str = "oscillating_sphere"
    surface_params: dict = field(default_factory=dict)
    subdivisions: int = 2          # icosphere meshes
    n_major: int = 48              # torus meshes
    n_minor: int = 16
    theta: float = 1.0
    initial: str = "sphere_eoc"
    initial_value: float = 0.0
    output_dir: str = "out"
    snapshot_every: int = 0

    def __post_init__(self):  # frozen all the way down: a read-only copy
        object.__setattr__(self, "surface_params",
                           MappingProxyType(dict(self.surface_params)))

    def build_surface(self):
        return make_surface(self.surface_kind, **self.surface_params)

    def build_mesh(self, surface=None):
        surface = surface or self.build_surface()
        if surface.family == "sphere":
            return build_icosphere(surface, self.subdivisions)
        return build_torus_mesh(surface, self.n_major, self.n_minor)

    def build_potential(self):
        return quartic_potential(theta=self.theta)

    def scheme_config(self):
        """The scheme's settings alone, as the solver takes them."""
        return SchemeConfig(**{f.name: getattr(self, f.name)
                               for f in fields(SchemeConfig)})

    def initial_function(self):
        if self.initial == "sphere_eoc":
            return sphere_eoc_initial
        if self.initial == "torus":
            return torus_initial
        return partial(_constant_initial, value=self.initial_value)


def validate_config(cfg):
    """Reject inconsistent configurations; returns the config unchanged."""
    if cfg.surface_kind not in surface_kinds():
        raise ValidationError("surface.kind",
                              f"expected one of {surface_kinds()}")
    try:
        cfg.validate()
    except ValidationError as exc:
        raise ValidationError(_KEY_OF[exc.field], exc.reason) from None
    if cfg.initial not in INITIAL_DATA:
        raise ValidationError("initial", f"expected one of {INITIAL_DATA}")
    if not 0 <= cfg.subdivisions <= MAX_SUBDIVISIONS:
        raise ValidationError("mesh.subdivisions",
                              f"must be >= 0 and <= {MAX_SUBDIVISIONS}")
    for key in ("n_major", "n_minor"):
        if getattr(cfg, key) < 3:
            raise ValidationError(f"mesh.{key}", "torus grid needs >= 3 each way")
    if cfg.n_major * cfg.n_minor > MAX_NODES:
        raise ValidationError("mesh.n_major",
                              f"n_major * n_minor must be <= {MAX_NODES}")
    if not math.isfinite(cfg.theta) or cfg.theta < 0.0:
        raise ValidationError("theta", "must be finite and nonnegative")
    if not math.isfinite(cfg.initial_value):
        raise ValidationError("initial.value", "must be finite")
    if cfg.snapshot_every < 0:
        raise ValidationError("output.snapshot_every", "must be >= 0")
    out = str(cfg.output_dir)
    # it must name a path and survive emit_config: no comment, no padding
    if not out.isprintable() or not out or "#" in out or out != out.strip():
        raise ValidationError("output.dir", "must be printable, no '#' or padding")
    try:
        for name, value in cfg.surface_params.items():
            if not math.isfinite(value):
                raise ValidationError(f"surface.{name}", "must be finite")
        cfg.build_surface()
    except (TypeError, ValueError) as exc:
        raise ValidationError("surface", str(exc)) from exc
    return cfg


# config key <-> (attribute, converter)
_KEYS = {
    "surface.kind": ("surface_kind", str),
    "mesh.subdivisions": ("subdivisions", int),
    "mesh.n_major": ("n_major", int),
    "mesh.n_minor": ("n_minor", int),
    "eps": ("eps", float),
    "theta": ("theta", float),
    "tau": ("tau", float),
    "T": ("t_end", float),
    "scheme": ("scheme", str),
    "initial": ("initial", str),
    "initial.value": ("initial_value", float),
    "newton.tol": ("newton_tol", float),
    "newton.max_iter": ("newton_max_iter", int),
    "output.dir": ("output_dir", str),
    "output.snapshot_every": ("snapshot_every", int),
}
_KEY_OF = {attr: key for key, (attr, _) in _KEYS.items()}


def parse_config(text):
    """Parse the flat key-value format into a validated RunConfig."""
    values, surface_params = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ParseError("empty key or value", lineno)
        if key.startswith("surface.") and key != "surface.kind":
            try:
                surface_params[key.removeprefix("surface.")] = float(value)
            except ValueError:
                raise ParseError(f"bad number {value!r}", lineno) from None
            continue
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", lineno)
        attr, conv = _KEYS[key]
        try:
            values[attr] = conv(value)
        except ValueError:
            raise ParseError(
                f"bad {conv.__name__} value {value!r} for {key}", lineno
            ) from None
    return validate_config(RunConfig(surface_params=surface_params, **values))


def emit_config(cfg):
    """Serialise a RunConfig; the inverse of parse_config on all fields."""
    lines = [f"{key} = {getattr(cfg, attr)}" for key, (attr, _) in _KEYS.items()]
    for name, value in sorted(cfg.surface_params.items()):
        lines.append(f"surface.{name} = {value}")
    return "\n".join(lines) + "\n"
