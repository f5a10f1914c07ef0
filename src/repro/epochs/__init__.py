"""The longitudinal plane: one world timeline, N measurement runs.

The paper closes by calling for ongoing tracking of cloud usage; this
package makes that a first-class pipeline axis.  An
:class:`~repro.epochs.plan.EpochPlan` names a deterministic evolution
recipe built from composable :class:`~repro.epochs.steps.EpochStep`\\ s
(adoption, region expansion, EC2↔Azure↔both migrations, tenant
churn); an :class:`~repro.epochs.plan.Epoch` is one point on the
timeline; :func:`~repro.epochs.series.run_series` re-runs the full
experiment plane at every epoch with incremental artifact reuse,
summarizes each epoch into a :class:`~repro.epochs.trends.Snapshot`,
and emits the cross-epoch trend tables (:mod:`~repro.epochs.trends`)
in ``series.json``.

Epoch 0 is byte-identical to the single-shot pipeline, and a series is
byte-identical cold vs warm-cache and sequential vs ``--workers N``.
"""

from repro.epochs.plan import (
    DEFAULT_EPOCH_PLAN,
    EPOCH_SECONDS,
    Epoch,
    EpochPlan,
    named_epoch_plans,
    resolve_epoch_plan,
)
from repro.epochs.series import (
    SERIES_SCHEMA_VERSION,
    EpochRun,
    SeriesResult,
    iter_series_payloads,
    load_series,
    run_series,
    series_identifier,
)
from repro.epochs.steps import (
    STEP_TYPES,
    CloudAdoption,
    DualProviderAdoption,
    EpochDiff,
    EpochStep,
    MigrationToAzure,
    MigrationToEc2,
    RegionExpansion,
    TenantChurn,
)
from repro.epochs.trends import TrendContext, run_trends, trend_specs

__all__ = [
    "CloudAdoption",
    "DEFAULT_EPOCH_PLAN",
    "DualProviderAdoption",
    "EPOCH_SECONDS",
    "Epoch",
    "EpochDiff",
    "EpochPlan",
    "EpochRun",
    "EpochStep",
    "MigrationToAzure",
    "MigrationToEc2",
    "RegionExpansion",
    "SERIES_SCHEMA_VERSION",
    "STEP_TYPES",
    "SeriesResult",
    "TenantChurn",
    "TrendContext",
    "iter_series_payloads",
    "load_series",
    "named_epoch_plans",
    "resolve_epoch_plan",
    "run_series",
    "run_trends",
    "series_identifier",
    "trend_specs",
]
