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
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ParseError, ValidationError
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


@dataclass
class RunConfig:
    """Everything one run needs, in plain fields."""

    surface_kind: str = "oscillating_sphere"
    surface_params: dict = field(default_factory=dict)
    subdivisions: int = 2          # icosphere meshes
    n_major: int = 48              # torus meshes
    n_minor: int = 16
    eps: float = 0.05
    theta: float = 1.0
    tau: float = 1e-4
    t_end: float = 0.1
    scheme: str = "fully_implicit"
    initial: str = "sphere_eoc"
    initial_value: float = 0.0
    newton_tol: float = 1e-11
    newton_max_iter: int = 25
    output_dir: str = "out"
    snapshot_every: int = 0

    def build_surface(self):
        return make_surface(self.surface_kind, **self.surface_params)

    def build_mesh(self, surface=None):
        from .meshing import build_icosphere, build_torus_mesh

        surface = surface or self.build_surface()
        if surface.family == "sphere":
            return build_icosphere(surface, self.subdivisions)
        return build_torus_mesh(surface, self.n_major, self.n_minor)

    def build_potential(self):
        return quartic_potential(theta=self.theta)

    def scheme_config(self):
        return SchemeConfig(
            eps=self.eps,
            tau=self.tau,
            t_end=self.t_end,
            scheme=self.scheme,
            newton_tol=self.newton_tol,
            newton_max_iter=self.newton_max_iter,
        )

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
    scheme = cfg.scheme_config()
    try:
        scheme.validate()
        scheme.step_count()
    except ValidationError as exc:
        raise ValidationError(_KEY_OF[exc.field], exc.reason) from None
    if cfg.initial not in INITIAL_DATA:
        raise ValidationError("initial", f"expected one of {INITIAL_DATA}")
    if cfg.subdivisions < 0:
        raise ValidationError("mesh.subdivisions", "must be >= 0")
    for key in ("n_major", "n_minor"):
        if getattr(cfg, key) < 3:
            raise ValidationError(f"mesh.{key}", "torus grid needs >= 3 each way")
    if not math.isfinite(cfg.theta) or cfg.theta < 0.0:
        raise ValidationError("theta", "must be finite and nonnegative")
    if cfg.snapshot_every < 0:
        raise ValidationError("output.snapshot_every", "must be >= 0")
    out = str(cfg.output_dir)
    # the value must survive emit_config: one line, no comment, no padding
    if out.splitlines() != [out] or "#" in out or out != out.strip():
        raise ValidationError("output.dir", "must be one line, no '#' or padding")
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
    cfg = RunConfig()
    surface_params = {}
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
            setattr(cfg, attr, conv(value))
        except ValueError:
            raise ParseError(
                f"bad {conv.__name__} value {value!r} for {key}", lineno
            ) from None
    cfg.surface_params = surface_params
    return validate_config(cfg)


def emit_config(cfg):
    """Serialise a RunConfig; the inverse of parse_config on all fields."""
    lines = [f"{key} = {getattr(cfg, attr)}" for key, (attr, _) in _KEYS.items()]
    for name, value in sorted(cfg.surface_params.items()):
        lines.append(f"surface.{name} = {value}")
    return "\n".join(lines) + "\n"
