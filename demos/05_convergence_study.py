#!/usr/bin/env python3
"""A small mesh-refinement study on the oscillating sphere.

Runs both time discretisations on three refinement levels with the
timestep scaling like h^2, compares terminal states against a shared fine
fully-implicit reference, and prints the order tables.  A three-level run
keeps this demo at a few seconds (3.6 s on a 2-vCPU machine); the
acceptance suite runs the four-level version.
"""

import dataclasses
import time
import warnings

from escher import OscillatingSphere, quartic_potential
from escher.config import sphere_eoc_initial
from escher.solver import SchemeConfig
from escher.studies import eoc_study

warnings.simplefilter("ignore", RuntimeWarning)

surface = OscillatingSphere()
pot = quartic_potential()
cfg = SchemeConfig(eps=0.5, tau=0.1 / 3, t_end=0.1, scheme="fully_implicit",
                   newton_max_iter=60)

t0 = time.time()
fully = eoc_study(cfg, surface, pot, sphere_eoc_initial,
                  base_subdivisions=1, levels=3)
print(f"fully implicit study in {time.time() - t0:.1f}s "
      f"(reference tau = {fully.reference.tau:.2e})\n")
print(fully.table_u)
print()
print(fully.table_w)

t0 = time.time()
imex = eoc_study(dataclasses.replace(cfg, scheme="imex"), surface, pot,
                 sphere_eoc_initial, base_subdivisions=1, levels=3,
                 reference=fully.reference)
print(f"\nimplicit-explicit levels in {time.time() - t0:.1f}s "
      "(reference shared)\n")
print(imex.table_u)
print()
print(imex.table_w)
