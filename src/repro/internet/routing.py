"""AS-level routing: downstream ISPs per region and traceroute.

The paper's §5.2 methodology: run traceroute from instances in every
zone to 200 PlanetLab nodes, ``whois`` the first non-EC2 hop, and count
distinct downstream ASes per zone/region.  Two properties of the real
Internet must hold in the model for the paper's findings to emerge:

* regions differ widely in multihoming (us-east-1 peered with ~36
  downstream ISPs, sa-east-1 with ~4);
* the spread of routes across those ISPs is *uneven* (the top ISP can
  carry ~1/3 of routes), which the model produces with Zipf-weighted,
  per-destination-persistent ISP selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cloud.base import CloudProvider, Instance
from repro.internet.vantage import VantagePoint
from repro.net.asn import ASRegistry, AutonomousSystem
from repro.net.ipv4 import IPv4Address, IPv4Network
from repro.sim import StreamRegistry, derive_rng

#: Downstream-ISP pool sizes per EC2 region, set so that distinct-AS
#: counts observed over 200 vantage points land near Table 16.
EC2_DOWNSTREAM_POOL: Dict[str, int] = {
    "us-east-1": 38,
    "us-west-1": 20,
    "us-west-2": 20,
    "eu-west-1": 13,
    "ap-northeast-1": 10,
    "ap-southeast-1": 13,
    "ap-southeast-2": 4,
    "sa-east-1": 4,
}

#: Azure regions were not part of Table 16; give them a plausible mid
#: pool so traceroutes from Azure still work.
AZURE_DOWNSTREAM_POOL_DEFAULT = 12

#: Zipf exponent for route spread across a region's downstream ISPs.
ROUTE_SPREAD_EXPONENT = 0.9

#: Probability that a particular ISP is not reachable from a particular
#: zone (separate zone edge routers miss a few sessions), producing the
#: small per-zone count differences in Table 16.
ZONE_INVISIBILITY = 0.04


@dataclass(frozen=True)
class TracerouteHop:
    """One hop in a traceroute: an address and who owns it."""

    address: IPv4Address
    owner: str
    is_cloud: bool


@dataclass
class _DownstreamISP:
    asys: AutonomousSystem
    router_ips: List[IPv4Address]


class RoutingModel:
    """Builds the AS topology and answers traceroute queries."""

    def __init__(
        self,
        streams: StreamRegistry,
        providers: Dict[str, CloudProvider],
        registry: Optional[ASRegistry] = None,
    ):
        self.streams = streams
        self.providers = providers
        self.registry = registry or ASRegistry()
        self.rng = streams.stream("routing", "setup")
        self._downstream: Dict[Tuple[str, str], List[_DownstreamISP]] = {}
        self._transit: List[_DownstreamISP] = []
        self._next_asn = 7000
        self._next_prefix24 = 0
        self._cloud_routers: Dict[Tuple[str, str], List[IPv4Address]] = {}
        #: (provider, region, vantage, picks) -> persistent ISP
        #: preference order, and (provider, region, zone, ASN) -> zone
        #: visibility: each derived once, as a sweep re-asks per
        #: instance and per traceroute.
        self._route_cache: Dict[Tuple, Tuple[int, ...]] = {}
        self._visibility_cache: Dict[Tuple, bool] = {}
        self._build_transit_core()
        for provider in providers.values():
            for region_name in provider.region_names():
                self._build_region(provider, region_name)

    # -- topology construction ---------------------------------------------

    def _allocate_prefix(self) -> IPv4Network:
        """A fresh /24 for one ISP's routers, from 80.0.0.0/9."""
        base = IPv4Network.parse("80.0.0.0/9")
        prefix = IPv4Network(
            base.first + (self._next_prefix24 << 8), 24
        )
        self._next_prefix24 += 1
        if prefix.last > base.last:
            raise RuntimeError("router prefix pool exhausted")
        return prefix

    def _new_isp(self, name: str) -> _DownstreamISP:
        prefix = self._allocate_prefix()
        asys = self.registry.register(self._next_asn, name, [prefix])
        self._next_asn += 1
        routers = [prefix.address_at(i) for i in range(1, 9)]
        return _DownstreamISP(asys=asys, router_ips=routers)

    def _build_transit_core(self) -> None:
        for i in range(12):
            self._transit.append(self._new_isp(f"transit-core-{i + 1}"))

    def _build_region(self, provider: CloudProvider, region_name: str) -> None:
        if provider.name == "ec2":
            pool_size = EC2_DOWNSTREAM_POOL.get(region_name, 12)
        else:
            pool_size = AZURE_DOWNSTREAM_POOL_DEFAULT
        isps = [
            self._new_isp(f"{provider.name}-{region_name}-peer-{i + 1}")
            for i in range(pool_size)
        ]
        self._downstream[(provider.name, region_name)] = isps
        # Cloud-side border routers get addresses inside the provider's
        # published ranges, so traceroute hops classify as cloud hops.
        routers = [
            provider.plan.allocate_public_ip(region_name, self.rng)
            for _ in range(4)
        ]
        self._cloud_routers[(provider.name, region_name)] = routers

    # -- queries ---------------------------------------------------------------

    def downstream_isps(
        self, provider_name: str, region_name: str
    ) -> List[AutonomousSystem]:
        return [
            isp.asys
            for isp in self._downstream[(provider_name, region_name)]
        ]

    def _zone_visible(
        self, provider_name: str, region_name: str, zone_index: int,
        isp: _DownstreamISP,
    ) -> bool:
        key = (provider_name, region_name, zone_index, isp.asys.number)
        visible = self._visibility_cache.get(key)
        if visible is None:
            rng = derive_rng(self.streams.seed, "zone-visibility", *key)
            visible = rng.random() >= ZONE_INVISIBILITY
            self._visibility_cache[key] = visible
        return visible

    def _route_order(
        self, key: Tuple[str, str], vantage: VantagePoint, picks: int
    ) -> Tuple[int, ...]:
        """The first ``picks`` Zipf-weighted ISP indices of the
        persistent (region, vantage) preference order."""
        cache_key = key + (vantage.name, picks)
        order = self._route_cache.get(cache_key)
        if order is None:
            count = len(self._downstream[key])
            weights = [
                1.0 / (rank + 1) ** ROUTE_SPREAD_EXPONENT
                for rank in range(count)
            ]
            rng = derive_rng(
                self.streams.seed, "route", *key, vantage.name
            )
            order = tuple(
                rng.choices(range(count), weights=weights, k=picks)
            )
            self._route_cache[cache_key] = order
        return order

    def _pick_downstream(
        self,
        instance: Instance,
        vantage: VantagePoint,
        failed_isps: frozenset = frozenset(),
    ) -> Optional[_DownstreamISP]:
        """The downstream ISP carrying routes from this zone to this
        destination: Zipf-weighted, persistent per (region, vantage).

        ``failed_isps`` models BGP re-convergence after ISP failures:
        the router falls through its (persistent) preference order to
        the best surviving session.  Returns None when every candidate
        is down.
        """
        key = (instance.provider_name, instance.region_name)
        isps = self._downstream[key]
        order = self._route_order(key, vantage, 8 + 2 * len(failed_isps))
        fallback: Optional[_DownstreamISP] = None
        for choice in order:
            isp = isps[choice]
            if isp.asys.number in failed_isps:
                continue
            if fallback is None:
                fallback = isp
            if self._zone_visible(
                instance.provider_name,
                instance.region_name,
                instance.zone_index,
                isp,
            ):
                return isp
        if fallback is not None:
            return fallback
        # The preference sample missed every healthy ISP; scan the
        # full table (a router would, eventually).
        for isp in isps:
            if isp.asys.number not in failed_isps:
                return isp
        return None

    def traceroute(
        self,
        instance: Instance,
        vantage: VantagePoint,
        failed_isps: frozenset = frozenset(),
    ) -> List[TracerouteHop]:
        """Hops from a cloud instance out to a vantage point.

        A couple of in-cloud hops, then the downstream ISP's border
        router (the hop the paper whoises), then transit, then the
        destination's network.  With ``failed_isps`` the route
        re-converges around the failures; an empty list past the cloud
        hops means the destination is unreachable.
        """
        provider = self.providers[instance.provider_name]
        key = (instance.provider_name, instance.region_name)
        hops: List[TracerouteHop] = []
        cloud_routers = self._cloud_routers[key]
        rng = derive_rng(
            self.streams.seed, "trace", instance.instance_id, vantage.name
        )
        for router in rng.sample(cloud_routers, k=2):
            hops.append(
                TracerouteHop(
                    address=router,
                    owner=instance.provider_name,
                    is_cloud=True,
                )
            )
        downstream = self._pick_downstream(instance, vantage, failed_isps)
        if downstream is None:
            return hops
        hops.append(
            TracerouteHop(
                address=rng.choice(downstream.router_ips),
                owner=downstream.asys.name,
                is_cloud=False,
            )
        )
        for transit in rng.sample(self._transit, k=rng.randint(2, 4)):
            hops.append(
                TracerouteHop(
                    address=rng.choice(transit.router_ips),
                    owner=transit.asys.name,
                    is_cloud=False,
                )
            )
        return hops

    def first_non_cloud_hop(
        self, hops: List[TracerouteHop], cloud_ranges
    ) -> Optional[TracerouteHop]:
        """The first hop outside ``cloud_ranges`` (a PrefixSet), i.e.
        the address the paper's whois step classifies."""
        for hop in hops:
            if hop.address not in cloud_ranges:
                return hop
        return None
