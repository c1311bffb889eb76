"""Analytic moving surfaces given by time-dependent level sets.

Each surface is the zero set of a smooth function ``phi(x, t)`` together
with an exact parametric node motion (radial scaling for spheres,
angle-preserving maps for tori).  Points are plain numpy arrays of shape
``(3,)`` or batched ``(..., 3)``; all operations broadcast over the leading
axes and are pure functions of their inputs.

Surfaces provided:

* ``OscillatingSphere``  -- radius ``sqrt(base + amplitude*cos(omega*t))``
* ``StaticSphere``       -- fixed radius
* ``ConstantAreaTorus``  -- major radius grows, minor shrinks, area constant
* ``PeriodicTorus``      -- fixed major radius, minor radius oscillates
"""

import numpy as np

from .errors import NoConvergence, OffSurface, SingularPoint

PROJECTION_TOL = 1e-12
PROJECTION_MAX_ITER = 50
ON_SURFACE_TOL = 1e-8


class LevelSetSurface:
    """Base class: level-set queries plus exact parametric node motion."""

    kind = "abstract"
    family = "abstract"

    def value(self, x, t):
        """Level-set value phi(x, t); vectorised over leading axes of x."""
        raise NotImplementedError

    def gradient_raw(self, x, t):
        """Spatial gradient of phi without the singularity guard."""
        raise NotImplementedError

    def gradient(self, x, t):
        """Spatial gradient of phi; raises SingularPoint where it vanishes."""
        g = self.gradient_raw(x, t)
        norms = np.linalg.norm(g, axis=-1)
        if np.any(norms < 1e-12):
            raise SingularPoint(f"|grad phi| < 1e-12 on {self.kind}")
        return g

    def move(self, x0, t0, t1):
        """Exact motion of surface points from time t0 to t1."""
        raise NotImplementedError

    def project(self, x, t, tol=PROJECTION_TOL, max_iter=PROJECTION_MAX_ITER):
        """Project points onto the zero set by damped Newton along grad phi.

        Converges quadratically inside the tubular neighbourhood; raises
        NoConvergence after ``max_iter`` sweeps otherwise.
        """
        x = np.asarray(x, dtype=float)
        p = np.atleast_2d(x).copy()
        phi = self.value(p, t)
        for _ in range(max_iter):
            active = np.abs(phi) > tol
            if not np.any(active):
                return p.reshape(x.shape)
            q = p[active]
            g = self.gradient(q, t)
            step = -(phi[active] / np.einsum("...d,...d->...", g, g))[..., None] * g
            # damped update: halve until |phi| does not increase
            lam = np.ones(len(q))
            phi_old = np.abs(phi[active])
            for _ in range(30):
                trial = q + lam[:, None] * step
                phi_new = np.abs(self.value(trial, t))
                bad = phi_new > phi_old
                if not np.any(bad):
                    break
                lam[bad] *= 0.5
            p[active] = q + lam[:, None] * step
            phi = self.value(p, t)
        raise NoConvergence(
            f"projection onto {self.kind} did not reach |phi| <= {tol:g} "
            f"in {max_iter} iterations"
        )

    def _require_on_surface(self, x, t):
        res = np.max(np.abs(self.value(x, t)))
        if res > ON_SURFACE_TOL:
            raise OffSurface(
                f"point not on {self.kind} at t={t:g}: |phi| = {res:.3e}"
            )


class _SphereBase(LevelSetSurface):
    family = "sphere"

    def _radius_sq(self, t):
        raise NotImplementedError

    def value(self, x, t):
        x = np.asarray(x, dtype=float)
        return np.einsum("...d,...d->...", x, x) - self._radius_sq(t)

    def gradient_raw(self, x, t):
        return 2.0 * np.asarray(x, dtype=float)

    def move(self, x0, t0, t1):
        x0 = np.asarray(x0, dtype=float)
        self._require_on_surface(x0, t0)
        if t0 == t1:
            return x0.copy()
        scale = np.sqrt(self._radius_sq(t1) / self._radius_sq(t0))
        return x0 * scale


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
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)

    def _radius_sq(self, t):
        return self.radius**2

    def move(self, x0, t0, t1):
        x0 = np.asarray(x0, dtype=float)
        self._require_on_surface(x0, t0)
        return x0.copy()


class _TorusBase(LevelSetSurface):
    """Torus around the z axis: phi = (sqrt(x^2+y^2) - R(t))^2 + z^2 - r(t)^2."""

    family = "torus"

    def _radii(self, t):
        """Return (R(t), r(t))."""
        raise NotImplementedError

    def value(self, x, t):
        x = np.asarray(x, dtype=float)
        major, minor = self._radii(t)
        rho = np.hypot(x[..., 0], x[..., 1])
        return (rho - major) ** 2 + x[..., 2] ** 2 - minor**2

    def gradient_raw(self, x, t):
        x = np.asarray(x, dtype=float)
        major, _ = self._radii(t)
        rho = np.hypot(x[..., 0], x[..., 1])
        safe = np.where(rho == 0.0, 1.0, rho)
        fac = 2.0 * (rho - major) / safe
        g = np.empty(np.broadcast_shapes(x.shape), dtype=float)
        g[..., 0] = fac * x[..., 0]
        g[..., 1] = fac * x[..., 1]
        g[..., 2] = 2.0 * x[..., 2]
        return g

    def _angles(self, x, t):
        major, _ = self._radii(t)
        rho = np.hypot(x[..., 0], x[..., 1])
        theta = np.arctan2(x[..., 1], x[..., 0])
        psi = np.arctan2(x[..., 2], rho - major)
        return theta, psi

    def _emit(self, theta, psi, t):
        major, minor = self._radii(t)
        rho = major + minor * np.cos(psi)
        return np.stack(
            [rho * np.cos(theta), rho * np.sin(theta), minor * np.sin(psi)],
            axis=-1,
        )

    def move(self, x0, t0, t1):
        x0 = np.asarray(x0, dtype=float)
        self._require_on_surface(x0, t0)
        if t0 == t1:
            return x0.copy()
        theta, psi = self._angles(x0, t0)
        return self._emit(theta, psi, t1)


class ConstantAreaTorus(_TorusBase):
    """Torus with R(t) = major*(1 + rate*t), r(t) = minor/(1 + rate*t).

    The product R*r is constant, so the surface area 4 pi^2 R r stays fixed
    while the shape deforms.
    """

    kind = "constant_area_torus"

    def __init__(self, major=0.75, minor=0.25, rate=4.0 / 3.0):
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
        if minor - abs(amplitude) <= 0.0:
            raise ValueError("minor radius must stay positive for all t")
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
