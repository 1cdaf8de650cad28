"""The scheme table: every scheduler name resolves here.

Simulations, sweeps, figure drivers and examples all name schedulers
by string and resolve the name through :func:`create_scheduler`, so
this module is the one place that maps a scheme name to its
constructor. Names keep sweep jobs picklable across the process-pool
boundary (:class:`~repro.experiments.runner.RunnerJob` ships only the
string).

The paper's 13 schemes are registered below. Out-of-tree schedulers --
learned policies, for instance -- join a comparison by name without
editing this module::

    from repro.experiments.registry import register_scheduler

    @register_scheduler("my-policy")
    def _make_my_policy(config):
        return MyPolicyScheduler(config or EcoLifeConfig())

Factories take ``EcoLifeConfig | None`` (baseline schedulers are free
to ignore it) and must return a fresh scheduler per call: the engine
binds schedulers to one run's environment, so sharing instances across
runs would leak state between scenarios.
"""

from __future__ import annotations

import types
from typing import Callable, Mapping

from repro.baselines.fixed import new_only, old_only
from repro.baselines.oracle import co2_opt, energy_opt, oracle, service_time_opt
from repro.core import EcoLifeConfig, EcoLifeScheduler
from repro.core.config import OptimizerKind
from repro.hardware.specs import Generation
from repro.simulator import BaseScheduler

#: A named scheduler recipe: ``factory(config) -> fresh scheduler``.
SchedulerFactory = Callable[[EcoLifeConfig | None], BaseScheduler]

#: The live name table. Exposed read-only through
#: :func:`list_schedulers` / :func:`scheduler_factory`; mutate it only
#: through :func:`register_scheduler` / :func:`unregister_scheduler` so
#: double registrations stay loud.
_REGISTRY: dict[str, SchedulerFactory] = {}

#: Read-only live view of the registry, for callers that want mapping
#: semantics (``name in REGISTRY``, ``REGISTRY[name]``) without write
#: access.
REGISTRY: Mapping[str, SchedulerFactory] = types.MappingProxyType(_REGISTRY)


def register_scheduler(
    name: str, *, replace: bool = False
) -> Callable[[SchedulerFactory], SchedulerFactory]:
    """Class/function decorator: register ``factory`` under ``name``.

    Registering an already-taken name raises unless ``replace=True`` --
    a silent overwrite would make sweep results depend on module import
    order, which is exactly the ambiguity a by-name job protocol cannot
    afford.
    """
    if not name or name != name.strip():
        raise ValueError(f"scheduler name must be a non-empty token, got {name!r}")

    def decorate(factory: SchedulerFactory) -> SchedulerFactory:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not factory and not replace:
            raise ValueError(
                f"scheduler {name!r} is already registered "
                f"({existing!r}); pass replace=True to override"
            )
        _REGISTRY[name] = factory
        return factory

    return decorate


def unregister_scheduler(name: str) -> None:
    """Remove ``name`` from the registry (missing names are a no-op).

    Exists for tests and plugin reloads; a removed built-in stays gone
    until this module is reloaded.
    """
    _REGISTRY.pop(name, None)


def list_schedulers() -> tuple[str, ...]:
    """All registered scheduler names, sorted."""
    return tuple(sorted(_REGISTRY))


def is_registered(name: str) -> bool:
    return name in _REGISTRY


def scheduler_factory(name: str) -> SchedulerFactory:
    """Look up one factory; unknown names raise with the valid options."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; registered: {list(list_schedulers())}"
        ) from None


def create_scheduler(
    name: str, config: EcoLifeConfig | None = None
) -> BaseScheduler:
    """Instantiate a fresh registered scheduler by name."""
    return scheduler_factory(name)(config)


# ---------------------------------------------------------------------------
# The paper's schemes (Sec. IV-C, V). Each EcoLife variant is one config
# transform; the oracles and fixed baselines ignore the config.
# ---------------------------------------------------------------------------


def _ecolife(
    variant: Callable[[EcoLifeConfig], EcoLifeConfig],
) -> SchedulerFactory:
    def factory(config: EcoLifeConfig | None) -> BaseScheduler:
        return EcoLifeScheduler(variant(config or EcoLifeConfig()))

    return factory


_BUILTINS: dict[str, SchedulerFactory] = {
    "ecolife": _ecolife(lambda c: c),
    # Fig. 10: vanilla PSO weights, no perception-response.
    "ecolife-no-dpso": _ecolife(EcoLifeConfig.without_dpso),
    # Fig. 11: no warm-pool adjustment.
    "ecolife-no-adjust": _ecolife(EcoLifeConfig.without_adjustment),
    # Fig. 12: one generation for keep-alive and execution alike.
    "eco-old": _ecolife(lambda c: c.single_generation(Generation.OLD)),
    "eco-new": _ecolife(lambda c: c.single_generation(Generation.NEW)),
    # Sec. IV-C optimizer comparison: only the KDM's optimizer changes.
    "ecolife-ga": _ecolife(lambda c: c.with_optimizer(OptimizerKind.GENETIC)),
    "ecolife-sa": _ecolife(lambda c: c.with_optimizer(OptimizerKind.ANNEALING)),
    "co2-opt": lambda config: co2_opt(),
    "service-time-opt": lambda config: service_time_opt(),
    "energy-opt": lambda config: energy_opt(),
    "oracle": lambda config: oracle(),
    "new-only": lambda config: new_only(),
    "old-only": lambda config: old_only(),
}
_REGISTRY.update(_BUILTINS)
