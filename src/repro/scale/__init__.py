"""`repro.scale` — answers at 1000 clusters, not 16.

* :mod:`repro.scale.analytic` — the **analytic ensemble mode** behind
  ``EdgeTrainingScheduler(engine="analytic")``: lifetime, energy,
  expected delivered rounds and deadline-miss probabilities priced
  directly from the closed-form channel/coding/battery math instead of
  stepping the event kernel.
* :mod:`repro.scale.sharding` — independent fleets: :class:`FleetJob`
  specs, per-fleet :func:`fleet_rng` streams and
  :func:`default_fleet_builder`.
"""

from .analytic import (
    ClusterForecast,
    DirectionForecast,
    forecast_fleet,
    price_transmit,
    run_analytic,
)
from .sharding import FleetJob, default_fleet_builder, fleet_rng

__all__ = [
    "ClusterForecast",
    "DirectionForecast",
    "FleetJob",
    "default_fleet_builder",
    "fleet_rng",
    "forecast_fleet",
    "price_transmit",
    "run_analytic",
]
