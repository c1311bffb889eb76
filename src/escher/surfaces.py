"""Analytic moving surfaces given by time-dependent level sets.

Each surface is the zero set of a smooth function ``phi(x, t)`` together
with one chart: ``_coords(x, t)`` maps a point to coordinates that the
exact motion keeps fixed (the unit direction on a sphere, the two tube
angles on a torus), and ``_emit(coords, t)`` maps them back onto the
surface at time t.  Closest-point projection and node motion are both
those two maps.  Points are plain numpy arrays of shape ``(3,)`` or
batched ``(..., 3)``; all operations broadcast over the leading axes and
are pure functions of their inputs.

Surfaces provided:

* ``OscillatingSphere``  -- radius ``sqrt(base + amplitude*cos(omega*t))``
* ``StaticSphere``       -- fixed radius
* ``ConstantAreaTorus``  -- major radius grows, minor shrinks, area constant
* ``PeriodicTorus``      -- fixed major radius, minor radius oscillates
"""

import numpy as np

from .errors import OffSurface

ON_SURFACE_TOL = 1e-10  # largest |phi(x, t)| / |x|^2 taken as on the surface


class LevelSetSurface:
    """Base class: a level set plus the chart that projects and moves points.
    A subclass sets ``kind`` and ``family`` and defines ``value(x, t)``, phi,
    and the chart ``_coords``/``_emit``; the family bases reduce all three to
    ``_radius_sq(t)``, R(t)^2, or ``_radii(t)``, (R(t), r(t))."""

    def check_on_surface(self, x, t):
        """Raise OffSurface unless |phi(x, t)| <= ON_SURFACE_TOL |x|^2 at every
        x: phi is a difference of squared lengths, so the test is scale-free."""
        res = np.max(np.abs(self.value(x, t)) / np.einsum("...d,...d->...", x, x))
        if not res <= ON_SURFACE_TOL:  # nan fails too
            raise OffSurface(f"points off the zero set of {self.kind} at "
                             f"t={t:g}: max |phi| / |x|^2 = {res:.3e}")

    def project(self, x, t):
        """Closest point on the zero set at time t."""
        return self._emit(self._coords(np.asarray(x, dtype=float), t), t)

    def move(self, x0, t0, t1):
        """Exact motion of surface points from time t0 to t1."""
        x0 = np.asarray(x0, dtype=float)
        self.check_on_surface(x0, t0)
        if t0 == t1:
            return x0.copy()
        return self._emit(self._coords(x0, t0), t1)


class _SphereBase(LevelSetSurface):
    """Sphere about the origin: phi = |x|^2 - R(t)^2.

    The chart is the unit direction x/|x|, so projection is radial and the
    motion scales each node with the radius.  The centre has no closest
    point; nothing projects it, and its direction is nan.
    """

    family = "sphere"

    def value(self, x, t):
        x = np.asarray(x, dtype=float)
        return np.einsum("...d,...d->...", x, x) - self._radius_sq(t)

    def _coords(self, x, t):
        return x / np.sqrt(np.einsum("...d,...d->...", x, x))[..., None]

    def _emit(self, coords, t):
        return np.sqrt(self._radius_sq(t)) * coords


class OscillatingSphere(_SphereBase):
    """Sphere of radius sqrt(base + amplitude*cos(omega*t))."""

    kind = "oscillating_sphere"

    def __init__(self, base=0.9, amplitude=0.1, omega=20.0 * np.pi):
        if base - abs(amplitude) <= 0.0:
            raise ValueError("radius must stay positive for all t")
        self.base = float(base)
        self.amplitude = float(amplitude)
        self.omega = float(omega)

    def _radius_sq(self, t):
        return self.base + self.amplitude * np.cos(self.omega * t)


class StaticSphere(_SphereBase):
    """Stationary sphere; the gradient-flow baseline for energy decay."""

    kind = "static_sphere"

    def __init__(self, radius=1.0):
        self.radius = float(radius)
        if self.radius <= 0.0 or not np.isfinite(self.radius * self.radius):
            raise ValueError("radius must be positive with a finite square")

    def _radius_sq(self, t):
        return self.radius**2


class _TorusBase(LevelSetSurface):
    """Torus around the z axis: phi = (sqrt(x^2+y^2) - R(t))^2 + z^2 - r(t)^2.

    The chart is the angle pair (theta, psi) around the z axis and around
    the core circle, so projection runs along the tube's normal and the
    motion keeps both angles.  Points on the z axis or the core circle
    have no unique closest point; arctan2 picks one.
    """

    family = "torus"

    def value(self, x, t):
        x = np.asarray(x, dtype=float)
        major, minor = self._radii(t)
        rho = np.hypot(x[..., 0], x[..., 1])
        return (rho - major) ** 2 + x[..., 2] ** 2 - minor**2

    def _coords(self, x, t):
        major, _ = self._radii(t)
        rho = np.hypot(x[..., 0], x[..., 1])
        theta = np.arctan2(x[..., 1], x[..., 0])
        psi = np.arctan2(x[..., 2], rho - major)
        return theta, psi

    def _emit(self, coords, t):
        theta, psi = coords
        major, minor = self._radii(t)
        rho = major + minor * np.cos(psi)
        return np.stack(
            [rho * np.cos(theta), rho * np.sin(theta), minor * np.sin(psi)],
            axis=-1,
        )


class ConstantAreaTorus(_TorusBase):
    """Torus with R(t) = major*(1 + rate*t), r(t) = minor/(1 + rate*t).

    The product R*r is constant, so the surface area 4 pi^2 R r stays fixed
    while the shape deforms; rate >= 0 keeps r(t) < R(t) for all t >= 0.
    """

    kind = "constant_area_torus"

    def __init__(self, major=0.75, minor=0.25, rate=4.0 / 3.0):
        if not 0.0 < minor < major:
            raise ValueError("radii must satisfy 0 < minor < major")
        if not rate >= 0.0:  # nan fails too
            raise ValueError("rate must be >= 0: r(t) < R(t) for all t")
        self.major = float(major)
        self.minor = float(minor)
        self.rate = float(rate)

    def _radii(self, t):
        s = 1.0 + self.rate * t
        return self.major * s, self.minor / s


class PeriodicTorus(_TorusBase):
    """Torus with fixed major radius and r(t) = minor + amplitude*sin(omega*t)."""

    kind = "periodic_torus"

    def __init__(self, major=0.75, minor=0.25, amplitude=0.1, omega=20.0 * np.pi):
        if not abs(amplitude) < minor < major - abs(amplitude):
            raise ValueError("minor radius must stay in (0, major) for all t")
        self.major = float(major)
        self.minor = float(minor)
        self.amplitude = float(amplitude)
        self.omega = float(omega)

    def _radii(self, t):
        return self.major, self.minor + self.amplitude * np.sin(self.omega * t)


_SURFACE_KINDS = {
    cls.kind: cls
    for cls in (OscillatingSphere, StaticSphere, ConstantAreaTorus, PeriodicTorus)
}


def surface_kinds():
    """Names accepted by :func:`make_surface`."""
    return sorted(_SURFACE_KINDS)


def make_surface(kind, **params):
    """Construct a surface by kind name, e.g. ``make_surface('static_sphere')``."""
    try:
        cls = _SURFACE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown surface kind {kind!r}; expected one of {surface_kinds()}"
        ) from None
    return cls(**params)
