"""Regenerate EXPERIMENTS.md: paper-vs-measured for every artifact.

Runs all 30 experiments on a moderately sized world and writes the
results file the repository ships, driven entirely by the declarative
:class:`ExperimentSpec` catalogue: paper values, tolerance bands, and
per-key verdicts all come from the specs.  Usage:

    python scripts/generate_experiments_md.py [--domains N] [--seed S]
"""

from __future__ import annotations

import argparse
import io
import time

from repro.analysis.wan import WanConfig
from repro.experiments import ExperimentContext, all_experiments
from repro.experiments.fidelity import FidelityReport
from repro.world import WorldConfig

PREAMBLE = """\
# EXPERIMENTS — paper vs measured

Every table and figure of *Next Stop, the Cloud* (IMC 2013),
regenerated by this repository's simulated measurement study.

Generated by `scripts/generate_experiments_md.py` with
`--seed {seed} --domains {domains}`; regenerate after calibration
changes.  Regeneration can use `--workers N` (bit-identical sharded
campaigns), and repeat runs are served the §5 WAN campaign from the
content-addressed artifact cache — see
[docs/PERFORMANCE.md](docs/PERFORMANCE.md) for the determinism
invariants and the key scheme.  The scale is reduced from the paper's (Alexa top {domains:,}
instead of 1M; proportionally fewer probe rounds), so **absolute counts
are smaller by construction; the comparisons that matter are the
percentages, orderings, and factors**, which are scale-free.

Each measured key is judged against the tolerance band its
`ExperimentSpec` declares (see `src/repro/experiments/spec.py`):
**match** inside the band, **drift** inside the wider drift band,
**divergent** outside both, **info** for values the paper reports at a
scale the reproduction cannot compare (absolute counts).  CI runs the
same scoring as a regression gate: a seed-scale run must produce zero
divergent verdicts.

Known, accepted deviations (see DESIGN.md for the substitutions):

* Our us-east-1 models 3 availability zones (the paper could probe 3
  of 5), so top-domain zone counts cap at 3 per region.
* Table 6's maximum object sizes scale with the capture size; the
  paper's 5 GB zip files need a 1.4 TB capture to show up.
* At small list sizes the planted notable tenants (live.com, msn.com)
  dominate the Azure subdomain pool, pushing the Azure Cloud-Service
  share above the paper's 68%; it converges at larger `--domains`.
* Figures 4a and 8a are jointly over-constrained under the physical
  rule zones ≤ front-end VMs: the paper reports 85% of VM fronts with
  ≤2 VMs *and* 22.3% of subdomains spanning 3+ zones.  The calibration
  splits the difference (both figures land within a few points).
* Figure 12's latency gain at k=3 comes out larger than the paper's
  33% because our synthetic client set is more globally dispersed
  than 2013-era PlanetLab; the shape (us-east-1 first, diminishing
  returns after k≈3) is preserved.

---
"""


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--domains", type=int, default=6000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    parser.add_argument(
        "--workers", type=int, default=0,
        help="forked workers for the sharded campaigns (results "
             "identical for any count)",
    )
    parser.add_argument(
        "--artifact-dir", metavar="DIR", default=".repro-artifacts",
        help="content-addressed artifact cache directory (the §5 WAN "
             "matrices)",
    )
    parser.add_argument(
        "--no-artifact-cache", action="store_true",
        help="always rebuild; neither read nor write the artifact cache",
    )
    args = parser.parse_args()

    from repro.artifacts import ArtifactStore

    store = (
        None if args.no_artifact_cache
        else ArtifactStore(args.artifact_dir)
    )
    context = ExperimentContext(
        WorldConfig(seed=args.seed, num_domains=args.domains),
        WanConfig(rounds=36, workers=args.workers),
        workers=args.workers,
        artifact_store=store,
    )
    out = io.StringIO()
    out.write(PREAMBLE.format(seed=args.seed, domains=args.domains))
    fidelities = []
    for experiment in all_experiments():
        start = time.time()
        result = experiment.run(context)
        elapsed = time.time() - start
        fidelities.append(result.fidelity)
        verdicts = {v.key: v for v in result.fidelity.verdicts}
        out.write(f"\n## {result.experiment_id} — {result.title} "
                  f"(§{experiment.paper_section})\n\n")
        out.write("| metric | paper | measured | verdict |\n"
                  "|---|---|---|---|\n")
        for expectation in experiment.expectations:
            verdict = verdicts[expectation.key]
            measured = result.measured.get(expectation.key)
            paper_value = (
                expectation.paper
                if expectation.paper is not None else "*(unreported)*"
            )
            out.write(
                f"| {expectation.key} | {paper_value} "
                f"| {'—' if measured is None else measured} "
                f"| {verdict.verdict} |\n"
            )
        if result.notes:
            out.write(f"\n*{result.notes}*\n")
        out.write(f"\n<details><summary>regenerated artifact "
                  f"({elapsed:.1f}s)</summary>\n\n```\n")
        out.write(result.rendered)
        out.write("\n```\n</details>\n")
        print(f"{result.experiment_id}: {result.fidelity.status} "
              f"in {elapsed:.1f}s")
    report = FidelityReport(fidelities)
    counts = report.counts
    out.write(
        f"\n---\n\n## Fidelity rollup\n\n"
        f"Run status: **{report.status}** — "
        f"{counts['match']} match, {counts['drift']} drift, "
        f"{counts['divergent']} divergent, "
        f"{counts['missing']} missing, "
        f"{counts['info']} informational.\n"
    )
    with open(args.out, "w") as fh:
        fh.write(out.getvalue())
    print(f"run fidelity: {report.status}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
