"""Longitudinal cloud-usage tracking (the paper's closing suggestion).

Runs the DNS survey at two epochs six virtual months apart on one
world timeline, with the world evolving in between — new tenants
adopting EC2, existing single-region tenants expanding (taking the
paper's own §5 advice), and a few Azure tenants migrating — then
reports the drift a follow-up study would have published.

The evolution is an :class:`~repro.epochs.plan.EpochPlan`, the
machinery behind ``repro --epochs N``: each epoch's world is built
from the seed by replaying the plan's steps, and
:func:`~repro.epochs.series.run_series` re-measures it.

Run:  python examples/longitudinal_tracking.py
"""

from repro.analysis.wan import WanConfig
from repro.epochs import (
    CloudAdoption,
    EpochPlan,
    MigrationToEc2,
    RegionExpansion,
    run_series,
)
from repro.experiments.registry import get_experiment
from repro.world import WorldConfig

#: March to September: the same three moves at every epoch.
PLAN = EpochPlan(
    name="march-to-september",
    description="adoption, expansion, migration",
    recipe=lambda epoch, num_domains: (
        CloudAdoption(count=40),
        RegionExpansion(count=30),
        MigrationToEc2(count=8),
    ),
)


def main() -> None:
    print("Running the DNS survey in March and again in September...")
    series = run_series(
        [get_experiment("table03")],
        WorldConfig(seed=7, num_domains=2500),
        WanConfig(),
        PLAN,
        epochs=2,
    )
    march, september = series.epochs
    first, second = march.snapshot, september.snapshot

    print("\nEpoch 1 (March):")
    print(f"  cloud-using domains:    {first.cloud_domains}")
    print(f"  cloud-using subdomains: {first.cloud_subdomains}")
    print(f"  multi-region share:     "
          f"{100 * first.multi_region_fraction:.1f}%")

    adopted, expanded, migrated = september.epoch.diffs
    print("\nSix months pass: adoption, expansion, migration...")
    print(f"  {len(adopted.domains)} domains adopted EC2, "
          f"{len(expanded.subdomains)} subdomains added a second "
          f"region, {len(migrated.subdomains)} migrated from Azure")

    growth = {
        region: second.region_subdomains.get(region, 0)
        - first.region_subdomains.get(region, 0)
        for region in set(first.region_subdomains)
        | set(second.region_subdomains)
    }
    print("\nWhat a follow-up paper would report:")
    print(f"  cloud-using domains:  {first.cloud_domains} → "
          f"{second.cloud_domains}  "
          f"(+{second.cloud_domains - first.cloud_domains})")
    print(f"  cloud subdomains:     {first.cloud_subdomains} → "
          f"{second.cloud_subdomains}  "
          f"(+{second.cloud_subdomains - first.cloud_subdomains})")
    print(f"  multi-region share:   "
          f"{100 * first.multi_region_fraction:.1f}% → "
          f"{100 * second.multi_region_fraction:.1f}%")
    print(f"  fastest-growing region: {max(growth, key=growth.get)}")


if __name__ == "__main__":
    main()
