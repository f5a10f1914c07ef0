"""Epoch plans and the epoch timeline state.

An :class:`EpochPlan` names a deterministic recipe: which
:class:`~repro.epochs.steps.EpochStep`\\ s run at each epoch, scaled to
the world's domain count.  An :class:`Epoch` is one point on a world
timeline — plan + index + world config — and owns the two things the
rest of the pipeline needs:

* ``build_world()`` — the epoch's world, built fresh from the seed by
  replaying every step of epochs ``1..index`` with named RNG streams
  (``derive_rng(seed, "epoch", e, pos, step.name)``).  Epoch 0 is
  exactly ``World(config)``: byte-identical to the single-shot
  pipeline.
* ``fingerprint(kind)`` — a per-kind digest (``dataset``, ``capture``,
  ``wan``) over the canonical specs of every step through this epoch
  whose ``affects`` set contains ``kind``.  ``None`` means "no step
  touched this kind".  For ``wan``, the one kind the artifact store
  caches, the key component is then omitted entirely, the key equals
  the epoch-0 key, and the store serves the cached matrices.

Plans are resolved by name through :func:`resolve_epoch_plan`,
mirroring the fault-scenario registry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.epochs.steps import (
    CloudAdoption,
    DualProviderAdoption,
    EpochDiff,
    EpochStep,
    MigrationToAzure,
    MigrationToEc2,
    RegionExpansion,
    TenantChurn,
)
from repro.sim import derive_rng

#: Default virtual-time gap between epochs (~6 months, the cadence a
#: real revisit crawl would run at).  Only resolver-cache expiry reads
#: the clock, so this is output-transparent — it exists so snapshots
#: carry honest virtual timestamps.
EPOCH_SECONDS = 180 * 86400.0

DEFAULT_EPOCH_PLAN = "steady-growth"


def _scaled(fraction: float, num_domains: int) -> int:
    """Step count as a fraction of the domain population, at least 1."""
    return max(1, round(fraction * num_domains))


@dataclass(frozen=True)
class EpochPlan:
    """A named, deterministic evolution recipe."""

    name: str
    description: str
    recipe: Callable[[int, int], Tuple[EpochStep, ...]] = field(repr=False)
    epoch_seconds: float = EPOCH_SECONDS

    def steps_for(
        self, epoch_index: int, num_domains: int
    ) -> Tuple[EpochStep, ...]:
        """The steps applied entering ``epoch_index`` (none for 0)."""
        if epoch_index <= 0:
            return ()
        return self.recipe(epoch_index, num_domains)


def _steady_growth(epoch: int, n: int) -> Tuple[EpochStep, ...]:
    return (
        CloudAdoption(count=_scaled(0.008, n)),
        RegionExpansion(count=_scaled(0.003, n)),
        MigrationToEc2(count=_scaled(0.0012, n)),
    )


def _provider_shift(epoch: int, n: int) -> Tuple[EpochStep, ...]:
    migration: EpochStep = (
        MigrationToAzure(count=_scaled(0.002, n))
        if epoch % 2
        else MigrationToEc2(count=_scaled(0.002, n))
    )
    return (
        CloudAdoption(count=_scaled(0.004, n)),
        migration,
        DualProviderAdoption(count=_scaled(0.001, n)),
    )


def _churn(epoch: int, n: int) -> Tuple[EpochStep, ...]:
    return (
        CloudAdoption(count=_scaled(0.006, n)),
        TenantChurn(count=_scaled(0.003, n)),
    )


def _frozen(epoch: int, n: int) -> Tuple[EpochStep, ...]:
    return ()


_PLANS: Dict[str, EpochPlan] = {
    plan.name: plan
    for plan in (
        EpochPlan(
            name="steady-growth",
            description=(
                "2013-era adoption continues: new EC2 tenants, second "
                "regions, a trickle of Azure→EC2 migrations"
            ),
            recipe=_steady_growth,
        ),
        EpochPlan(
            name="provider-shift",
            description=(
                "tenants migrate between providers (alternating "
                "direction per epoch) and some go dual-provider"
            ),
            recipe=_provider_shift,
        ),
        EpochPlan(
            name="churn",
            description=(
                "adoption with tenant churn: some domains leave the "
                "cloud entirely each epoch"
            ),
            recipe=_churn,
        ),
        EpochPlan(
            name="frozen",
            description=(
                "no evolution: every epoch is the epoch-0 world, so a "
                "warm series is all cache hits (reuse ceiling probe)"
            ),
            recipe=_frozen,
        ),
    )
}


def named_epoch_plans() -> Dict[str, EpochPlan]:
    """All registered plans, by name."""
    return dict(_PLANS)


def resolve_epoch_plan(name: str) -> EpochPlan:
    """Look up an epoch plan by name (``ValueError`` lists the names)."""
    try:
        return _PLANS[name]
    except KeyError:
        known = ", ".join(sorted(_PLANS))
        raise ValueError(
            f"unknown epoch plan {name!r}; known plans: {known}"
        ) from None


class Epoch:
    """One point on a world timeline: plan + index + world config."""

    def __init__(self, plan: EpochPlan, index: int, world_config) -> None:
        if index < 0:
            raise ValueError(f"epoch index must be >= 0, got {index}")
        self.plan = plan
        self.index = index
        self.world_config = world_config
        self._world = None
        self._diffs: Optional[Tuple[EpochDiff, ...]] = None

    @property
    def plan_name(self) -> str:
        return self.plan.name

    def steps(self) -> Tuple[EpochStep, ...]:
        """The steps applied entering *this* epoch."""
        return self.plan.steps_for(self.index, self.world_config.num_domains)

    def fingerprint(self, kind: str) -> Optional[str]:
        """Digest of every step through this epoch affecting ``kind``.

        ``None`` — meaning "omit the key component; reuse epoch 0" —
        when no step through this epoch touches the kind.  Epoch 0
        therefore always fingerprints to ``None`` for every kind.
        """
        from repro.artifacts.keys import canonical

        specs = []
        for e in range(1, self.index + 1):
            for step in self.plan.steps_for(e, self.world_config.num_domains):
                if kind in step.affects:
                    specs.append((e, step.spec()))
        if not specs:
            return None
        digest = hashlib.sha256()
        digest.update(self.plan.name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(canonical(tuple(specs)).encode("utf-8"))
        return digest.hexdigest()[:16]

    def build_world(self):
        """The epoch's world, built fresh and memoized.

        Epoch 0 is exactly ``World(config)``.  Later epochs replay the
        plan's cumulative steps with per-(epoch, position, step) RNG
        streams, advancing the virtual clock one ``epoch_seconds`` gap
        per epoch, and record the diffs of the final epoch's steps.
        """
        if self._world is None:
            from repro.world import World

            world = World(self.world_config)
            diffs = []
            n = self.world_config.num_domains
            for e in range(1, self.index + 1):
                world.clock.advance(self.plan.epoch_seconds)
                for pos, step in enumerate(self.plan.steps_for(e, n)):
                    rng = derive_rng(
                        self.world_config.seed,
                        "epoch", str(e), str(pos), step.name,
                    )
                    diff = step.apply(world, rng)
                    if e == self.index:
                        diffs.append(diff)
            self._world = world
            self._diffs = tuple(diffs)
        return self._world

    @property
    def diffs(self) -> Tuple[EpochDiff, ...]:
        """Diffs of this epoch's own steps (builds the world if needed)."""
        if self._diffs is None:
            self.build_world()
        return self._diffs

    def virtual_time_s(self) -> float:
        """Virtual timestamp of this epoch without building the world."""
        return self.index * self.plan.epoch_seconds
