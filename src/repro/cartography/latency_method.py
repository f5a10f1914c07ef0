"""Latency-based availability-zone identification (§4.3).

For each region we launch probe instances in every zone our
measurement account can reach, TCP-ping every target IP from each
probe (after mapping public to internal addresses through the region's
DNS, as the paper did), take the minimum RTT per probe zone over
several repetitions, and assign the target to the zone with the
uniquely smallest probe time when it is below a threshold ``T``
(1.1 ms in the paper).  Non-responding targets and ties are marked
unknown.

A survey (:meth:`LatencyZoneIdentifier.identify_all`) makes exactly
the draws of pinging one target at a time with
:meth:`~repro.probing.ping.Prober.tcp_ping`, but in bulk.  It resolves
and describes each target once and computes each (probe, target) base
RTT once.  It takes the per-ping jitter from one
:class:`~repro.columnar.rng.GaussStream` on ``latency/jitter``, in the
order the per-target loop consumes it, and it works through the
targets in blocks of :data:`SURVEY_BLOCK`.  So the only per-draw arrays
are one block's, whatever the number of targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.cloud.base import Instance, InstanceRole, InstanceType
from repro.cloud.ec2 import EC2Cloud
from repro.net.ipv4 import IPv4Address
from repro.probing.ping import Prober

if TYPE_CHECKING:
    from repro.columnar.rng import GaussStream

#: The paper's threshold: same-zone minimum RTTs sit near 0.5 ms and
#: cross-zone ones above ~1.3 ms.
DEFAULT_THRESHOLD_MS = 1.1
#: Probes per (probe instance, target) pair, and repetition count.
#: The paper used 10 pings x 5 repeats; the defaults are smaller for
#: tractability and configurable back up to paper scale.
PINGS_PER_PROBE = 4
REPEATS = 2

#: The measurement account the probes run under.
PROBE_ACCOUNT = "cartography-probes"

#: Targets per survey block.  A block draws at most ``SURVEY_BLOCK`` x
#: probes x pings x 2 values (24,576 at the defaults in us-east-1),
#: and nothing else a survey builds grows with its draws.
SURVEY_BLOCK = 256


@dataclass
class ZoneEstimate:
    """The latency method's verdict for one target IP."""

    target: IPv4Address
    region: str
    #: Estimated zone as a *probe-account label position*, or None.
    zone_label: Optional[int]
    responded: bool
    probe_times_ms: Dict[int, float] = field(default_factory=dict)


class LatencyZoneIdentifier:
    """Runs the latency method over a set of target IPs per region."""

    def __init__(
        self,
        ec2: EC2Cloud,
        prober: Prober,
        threshold_ms: float = DEFAULT_THRESHOLD_MS,
        pings_per_probe: int = PINGS_PER_PROBE,
        repeats: int = REPEATS,
    ):
        self.ec2 = ec2
        self.prober = prober
        self.threshold_ms = threshold_ms
        self.pings_per_probe = pings_per_probe
        self.repeats = repeats
        self._probes: Dict[str, List[Instance]] = {}

    def probes_for_region(self, region_name: str) -> List[Instance]:
        """One probe instance per zone label the account can reach.

        us-east-1 gets extra probes per zone, as in the paper (the
        region is denser and noisier).
        """
        probes = self._probes.get(region_name)
        if probes is not None:
            return probes
        region = self.ec2.region(region_name)
        per_zone = 2 if region_name == "us-east-1" else 1
        probes = []
        for label_pos in range(region.num_zones):
            for _ in range(per_zone):
                probes.append(self.ec2.launch_instance(
                    account_id=PROBE_ACCOUNT,
                    region_name=region_name,
                    zone_label_pos=label_pos,
                    itype=InstanceType.M1_MEDIUM,
                    role=InstanceRole.PROBE,
                ))
        self._probes[region_name] = probes
        return probes

    def _probe_zone_label(self, probe: Instance, region_name: str) -> int:
        """Which account-label position a probe was launched in."""
        account = self.ec2.account(PROBE_ACCOUNT)
        perm = account.zone_permutation[region_name]
        return perm.index(probe.zone_index)

    def identify(
        self, region_name: str, target: IPv4Address
    ) -> ZoneEstimate:
        """Estimate one target's zone."""
        return self.identify_all(region_name, [target])[0]

    def identify_all(
        self, region_name: str, targets: Sequence[IPv4Address]
    ) -> List[ZoneEstimate]:
        """Estimate every target's zone, in one survey of the region.

        Target by target, each probe sends ``repeats`` bursts of
        ``pings_per_probe`` TCP pings and keeps its minimum RTT; the
        draws are those of the same :meth:`Prober.tcp_ping` calls, in
        the same order.  Silent and unresolvable targets draw nothing.
        """
        if not targets:
            return []
        # Imported here, like the other NumPy paths: the service CLI
        # loads this module and never surveys.
        from repro.columnar.rng import GaussStream

        probes = self.probes_for_region(region_name)
        latency = self.prober.latency
        probe_descs = [latency._describe(probe) for probe in probes]
        labels = [
            self._probe_zone_label(probe, region_name) for probe in probes
        ]
        jitter = GaussStream(latency._jitter_rng)
        estimates: List[ZoneEstimate] = []
        for start in range(0, len(targets), SURVEY_BLOCK):
            estimates.extend(self._survey_block(
                region_name, targets[start:start + SURVEY_BLOCK],
                probe_descs, labels, jitter,
            ))
        jitter.close()
        return estimates

    def _survey_block(
        self,
        region_name: str,
        block: Sequence[IPv4Address],
        probe_descs: list,
        labels: List[int],
        jitter: GaussStream,
    ) -> List[ZoneEstimate]:
        """One block of targets: resolve, base RTTs and sigmas, draws,
        and per-(target, probe) minima."""
        import numpy as np

        latency = self.prober.latency
        pings = self.repeats * self.pings_per_probe
        # Per (responding target, probe) pair, in the loop's order: its
        # first draw's offset in the block, base RTT and intra sigma.
        # A wide-area pair (sigma None) draws two values per ping.
        first_pair: List[Optional[int]] = []
        intra: List[tuple] = []
        wide: List[tuple] = []
        draws = 0
        pairs = 0
        for target in block:
            # Ping the internal address the region's DNS maps the public
            # one to; fall back to the public IP (both reach the
            # instance).
            internal = self.ec2.internal_ip_of(target)
            probe_target = internal if internal is not None else target
            responder = self.prober.responder(probe_target, region_name)
            if responder is None or pings == 0:
                first_pair.append(None)
                continue
            first_pair.append(pairs)
            target_desc = latency._describe(responder)
            for probe_desc in probe_descs:
                base = latency._base_rtt_from(probe_desc, target_desc, 0.0)
                sigma = latency._intra_jitter_ms(probe_desc, target_desc)
                if sigma is not None:
                    intra.append((pairs, draws, base, sigma))
                    draws += pings
                else:
                    wide.append((pairs, draws, base))
                    draws += 2 * pings
                pairs += 1
        z = jitter.take(draws)
        minima = np.empty(pairs, dtype=np.float64)
        steps = np.arange(pings)
        # The RTT formulas of LatencyModel.probe_rtts_ms, elementwise:
        # gauss(0, s) is 0.0 + z*s, and |0.0 + z*s| == |z*s|.
        if intra:
            index, offset, base, sigma = (np.array(c) for c in zip(*intra))
            rtt = base[:, None] + np.abs(
                z[offset[:, None] + steps] * sigma[:, None]
            )
            minima[index] = rtt.min(axis=1)
        if wide:
            index, offset, base = (np.array(c) for c in zip(*wide))
            at = offset[:, None] + 2 * steps
            base = base[:, None]
            rtt = base + (
                np.abs(z[at] * (0.04 * base)) + np.abs(z[at + 1] * 0.4)
            )
            minima[index] = rtt.min(axis=1)
        times = minima.tolist()
        width = len(labels)
        return [
            self._estimate(
                region_name, target,
                None if first is None else times[first:first + width],
                labels,
            )
            for target, first in zip(block, first_pair)
        ]

    def _estimate(
        self,
        region_name: str,
        target: IPv4Address,
        times: Optional[List[float]],
        labels: List[int],
    ) -> ZoneEstimate:
        """The verdict from one target's per-probe minimum RTTs (None
        for a target that never answered)."""
        estimate = ZoneEstimate(
            target=target,
            region=region_name,
            zone_label=None,
            responded=times is not None,
        )
        if times is None:
            return estimate
        best_by_label = estimate.probe_times_ms
        for label, rtt in zip(labels, times):
            current = best_by_label.get(label)
            if current is None or rtt < current:
                best_by_label[label] = rtt
        ordered = sorted(best_by_label.items(), key=lambda kv: kv[1])
        best_label, best_time = ordered[0]
        tie = len(ordered) > 1 and abs(ordered[1][1] - best_time) < 1e-9
        if not tie and best_time < self.threshold_ms:
            estimate.zone_label = best_label
        return estimate

    def label_to_physical(self, region_name: str, label: int) -> int:
        """Translate a probe-account label position to the physical
        zone index (ground truth scoring only — a real measurement
        could not do this)."""
        account = self.ec2.account(PROBE_ACCOUNT)
        return account.zone_permutation[region_name][label]
