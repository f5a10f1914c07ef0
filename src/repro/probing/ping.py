"""TCP ping (the simulation's hping3).

Sends ``count`` probes between endpoints and reports per-probe RTTs.
Targets can be endpoint objects or raw IP addresses; raw addresses are
resolved through the directory, and unresolvable or unresponsive
targets produce timeouts.  Whether a given instance answers probes at
all is a persistent property of the target (security-group filtering),
drawn deterministically per instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.cloud.base import Instance
from repro.internet.latency import LatencyModel
from repro.internet.vantage import VantagePoint
from repro.net.ipv4 import IPv4Address
from repro.probing.directory import EndpointDirectory
from repro.sim import derive_rng

#: Fraction of tenant instances that answer unsolicited TCP probes.
DEFAULT_RESPONSE_RATE = 0.74


@dataclass
class PingResult:
    """The outcome of one ping run."""

    rtts_ms: List[Optional[float]] = field(default_factory=list)

    @property
    def responded(self) -> bool:
        return any(rtt is not None for rtt in self.rtts_ms)

    @property
    def min_ms(self) -> Optional[float]:
        values = [rtt for rtt in self.rtts_ms if rtt is not None]
        return min(values) if values else None

    @property
    def median_ms(self) -> Optional[float]:
        values = sorted(rtt for rtt in self.rtts_ms if rtt is not None)
        if not values:
            return None
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return (values[mid - 1] + values[mid]) / 2.0


class Prober:
    """Runs TCP pings over the latency model."""

    def __init__(
        self,
        latency: LatencyModel,
        directory: EndpointDirectory,
        response_rate: float = DEFAULT_RESPONSE_RATE,
    ):
        self.latency = latency
        self.directory = directory
        self.response_rate = response_rate
        #: instance_id -> persistent responds-to-probes coin flip.
        self._responds_cache: Dict[str, bool] = {}

    def _resolve_target(
        self, target: Union[IPv4Address, Instance, VantagePoint], region_hint=None
    ):
        if isinstance(target, IPv4Address):
            instance = self.directory.instance_for_ip(target)
            if instance is None and region_hint is not None:
                instance = self.directory.instance_for_internal_ip(
                    region_hint, target
                )
            return instance
        return target

    def _target_responds(self, target) -> bool:
        if not isinstance(target, Instance):
            return True
        # Amazon-managed endpoints (ELB proxies, PaaS routers) always
        # answer, as do our own probe instances (we control their
        # security groups); tenant VMs only if their firewall allows it.
        if target.role.value in ("elb-proxy", "paas-node", "cdn-edge", "probe"):
            return True
        responds = self._responds_cache.get(target.instance_id)
        if responds is None:
            # The flip is a persistent property of the instance
            # (hash-per-entity), so the first draw is the only draw.
            rng = derive_rng(
                self.latency.streams.seed, "probe-response",
                target.instance_id,
            )
            responds = rng.random() < self.response_rate
            self._responds_cache[target.instance_id] = responds
        return responds

    def responder(self, target, region_hint: Optional[str] = None):
        """The endpoint behind ``target`` if it answers probes, else None.

        ``region_hint`` lets in-region probes address targets by
        internal IP (the probe instance's region scopes the lookup).
        """
        resolved = self._resolve_target(target, region_hint)
        if resolved is None or not self._target_responds(resolved):
            return None
        return resolved

    def tcp_ping(
        self,
        source,
        target,
        count: int = 10,
        time_s: float = 0.0,
        region_hint: Optional[str] = None,
    ) -> PingResult:
        """``count`` TCP probes from ``source`` to ``target``; a silent
        or unresolvable target times out on every probe."""
        resolved = self.responder(target, region_hint)
        result = PingResult()
        if resolved is None:
            result.rtts_ms = [None] * count
            return result
        result.rtts_ms = list(
            self.latency.probe_rtts_ms(source, resolved, count, time_s)
        )
        return result
