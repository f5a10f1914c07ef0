"""The RTT model.

Round-trip time between two endpoints decomposes as:

* **intra-region** (both endpoints instances in the same cloud region):
  a fixed same-zone floor plus a per-zone-pair step (Table 11), with
  noise scaled by instance type;
* **wide-area** (everything else): great-circle propagation with path
  inflation, plus last-mile overhead, a *persistent* per-path quality
  multiplier (some client↔region pairs are just bad), a *per-region*
  connectivity factor (not all regions are equally well peered), and
  *time-varying congestion episodes* that temporarily inflate a path —
  the mechanism behind the paper's Figure 11 best-region flips.

All randomness is deterministic: persistent factors hash the path key;
episodes hash (path key, hour bucket); per-probe jitter comes from a
named substream.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cloud.base import CloudProvider, Instance, InstanceType
from repro.cloud.ec2 import intra_region_rtt_ms
from repro.internet.vantage import VantagePoint
from repro.net.geo import GeoPoint, propagation_delay_ms
from repro.sim import StreamRegistry, derive_rng

#: Fixed last-mile/stack overhead added to every wide-area RTT (ms).
ACCESS_OVERHEAD_MS = 6.0

#: Per-region connectivity inflation.  us-west-2 was newer and less
#: well peered than us-west-1 in 2013 (the paper measured 145 ms vs
#: 130 ms average); sa-east-1 and ap-southeast-2 were poorly multihomed.
REGION_INFLATION: Dict[Tuple[str, str], float] = {
    ("ec2", "us-east-1"): 1.00,
    ("ec2", "us-west-1"): 1.00,
    ("ec2", "us-west-2"): 1.16,
    ("ec2", "eu-west-1"): 1.02,
    ("ec2", "ap-southeast-1"): 1.06,
    ("ec2", "ap-northeast-1"): 1.02,
    ("ec2", "sa-east-1"): 1.20,
    ("ec2", "ap-southeast-2"): 1.18,
}

#: Probability that any given (path, hour) is inside a congestion
#: episode, and the multiplier range applied when it is.
EPISODE_PROBABILITY = 0.08
EPISODE_MIN_FACTOR = 1.3
EPISODE_MAX_FACTOR = 3.0

#: Spread of the persistent per-path quality multiplier.
PATH_QUALITY_MAX = 1.35

#: Probability that a given intra-region instance pair carries a
#: persistent extra delay (oversubscribed host, longer switch path).
#: These are what defeat latency cartography: Table 12/13 show 17%
#: unknowns and a 25% error rate in eu-west-1, the noisiest region.
INTRA_NOISE_PROBABILITY: Dict[str, float] = {
    "us-east-1": 0.10,
    "eu-west-1": 0.38,
    "ap-northeast-1": 0.30,
}
INTRA_NOISE_DEFAULT_PROBABILITY = 0.06
#: Persistent same-pair offset range (ms) when noise applies.
INTRA_NOISE_MIN_MS = 0.4
INTRA_NOISE_MAX_MS = 1.8
#: Cross-zone pair base RTTs also vary persistently by this much (ms),
#: occasionally dipping below the cartography threshold.
CROSS_ZONE_SPREAD_MS = 0.55


class LatencyModel:
    """Computes RTTs between vantage points and cloud instances."""

    def __init__(
        self,
        streams: StreamRegistry,
        providers: Dict[str, CloudProvider],
        enable_episodes: bool = True,
    ):
        self.streams = streams
        self.providers = providers
        self.enable_episodes = enable_episodes
        self._jitter_rng = streams.stream("latency", "jitter")
        self._quality_cache: Dict[Tuple, float] = {}
        #: (provider, region) -> region location, saving a provider
        #: registry walk per described instance.
        self._region_locations: Dict[Tuple[str, str], GeoPoint] = {}
        #: (key_a, key_b) -> wide-area RTT before the episode factor.
        #: Keyed on the *unsorted* pair: float multiplication is not
        #: associative, so each argument order keeps the bit pattern it
        #: always produced.
        self._wide_base_cache: Dict[Tuple[Tuple, Tuple], float] = {}
        #: (sorted pair, hour bucket) -> congestion episode factor.
        self._episode_cache: Dict[Tuple, float] = {}

    # -- endpoint introspection ------------------------------------------

    def _describe(self, endpoint) -> Tuple[Tuple, GeoPoint, Optional[Instance]]:
        """(path key component, location, instance-or-None)."""
        if isinstance(endpoint, VantagePoint):
            return ("vp", endpoint.name), endpoint.location, None
        if isinstance(endpoint, Instance):
            region_key = (endpoint.provider_name, endpoint.region_name)
            location = self._region_locations.get(region_key)
            if location is None:
                provider = self.providers[endpoint.provider_name]
                location = provider.region(endpoint.region_name).location
                self._region_locations[region_key] = location
            return ("cloud",) + region_key, location, endpoint
        raise TypeError(f"unsupported endpoint: {endpoint!r}")

    # -- persistent path factors -----------------------------------------

    def _path_quality(self, key_a: Tuple, key_b: Tuple) -> float:
        key = (min(key_a, key_b), max(key_a, key_b))
        quality = self._quality_cache.get(key)
        if quality is None:
            rng = derive_rng(self.streams.seed, "path-quality", *key)
            quality = 1.0 + rng.random() * (PATH_QUALITY_MAX - 1.0)
            self._quality_cache[key] = quality
        return quality

    def _episode_factor(self, key_a: Tuple, key_b: Tuple, time_s: float) -> float:
        if not self.enable_episodes:
            return 1.0
        key = (min(key_a, key_b), max(key_a, key_b))
        hour_bucket = int(time_s // 3600.0)
        cache_key = (key, hour_bucket)
        factor = self._episode_cache.get(cache_key)
        if factor is None:
            rng = derive_rng(self.streams.seed, "episode", *key, hour_bucket)
            if rng.random() >= EPISODE_PROBABILITY:
                factor = 1.0
            else:
                factor = EPISODE_MIN_FACTOR + rng.random() * (
                    EPISODE_MAX_FACTOR - EPISODE_MIN_FACTOR
                )
            self._episode_cache[cache_key] = factor
        return factor

    def _intra_pair_adjust(self, inst_a: Instance, inst_b: Instance) -> float:
        """Persistent RTT adjustment for one intra-region pair.

        Same-zone pairs occasionally carry a constant positive offset;
        cross-zone pairs additionally get a symmetric base spread that
        can dip below the cartography threshold — the two effects that
        produce the paper's unknown and error rates.
        """
        pair = tuple(sorted((inst_a.instance_id, inst_b.instance_id)))
        key = ("intra",) + pair
        adjust = self._quality_cache.get(key)
        if adjust is not None:
            return adjust
        rng = derive_rng(self.streams.seed, *key)
        adjust = 0.0
        if inst_a.zone_index != inst_b.zone_index:
            adjust += (rng.random() * 2.0 - 1.0) * CROSS_ZONE_SPREAD_MS
        noise_probability = INTRA_NOISE_PROBABILITY.get(
            inst_a.region_name, INTRA_NOISE_DEFAULT_PROBABILITY
        )
        if rng.random() < noise_probability:
            adjust += INTRA_NOISE_MIN_MS + rng.random() * (
                INTRA_NOISE_MAX_MS - INTRA_NOISE_MIN_MS
            )
        self._quality_cache[key] = adjust
        return adjust

    def _region_inflation(self, instance: Optional[Instance]) -> float:
        if instance is None:
            return 1.0
        return REGION_INFLATION.get(
            (instance.provider_name, instance.region_name), 1.05
        )

    # -- the model ----------------------------------------------------------

    def base_rtt_ms(self, a, b, time_s: float = 0.0) -> float:
        """RTT without per-probe jitter (what min-of-10-probes estimates)."""
        return self._base_rtt_from(
            self._describe(a), self._describe(b), time_s
        )

    def _base_rtt_from(self, desc_a, desc_b, time_s: float) -> float:
        """Base RTT from already-computed endpoint descriptions.

        The wide-area product up to (but excluding) the time-varying
        episode factor is persistent per path, so it is computed once
        per (ordered) endpoint-key pair and cached.
        """
        key_a, loc_a, inst_a = desc_a
        key_b, loc_b, inst_b = desc_b
        if (
            inst_a is not None
            and inst_b is not None
            and inst_a.provider_name == inst_b.provider_name
            and inst_a.region_name == inst_b.region_name
        ):
            base = intra_region_rtt_ms(inst_a.zone_index, inst_b.zone_index)
            return base + self._intra_pair_adjust(inst_a, inst_b)
        pair = (key_a, key_b)
        persistent = self._wide_base_cache.get(pair)
        if persistent is None:
            base = propagation_delay_ms(loc_a, loc_b) + ACCESS_OVERHEAD_MS
            base *= self._path_quality(key_a, key_b)
            base *= self._region_inflation(inst_a)
            base *= self._region_inflation(inst_b)
            persistent = base
            self._wide_base_cache[pair] = persistent
        return persistent * self._episode_factor(key_a, key_b, time_s)

    def _intra_jitter_ms(self, desc_a, desc_b) -> Optional[float]:
        """The jitter sigma of an intra-region pair, or None for a pair
        that crosses the wide area.

        Intra-region probes see jitter scaled by the *instance types*
        involved — small shared instances are noisier neighbours, which
        is visible in Table 11.
        """
        inst_a = desc_a[2]
        inst_b = desc_b[2]
        if (
            inst_a is not None
            and inst_b is not None
            and inst_a.provider_name == inst_b.provider_name
            and inst_a.region_name == inst_b.region_name
        ):
            return _type_jitter(inst_a.itype) + _type_jitter(inst_b.itype)
        return None

    def probe_rtt_ms(self, a, b, time_s: float = 0.0) -> float:
        """One probe's RTT: base plus additive and multiplicative jitter."""
        return self.probe_rtts_ms(a, b, 1, time_s)[0]

    def probe_rtts_ms(
        self, a, b, count: int, time_s: float = 0.0
    ) -> list:
        """RTTs of ``count`` back-to-back probes of one endpoint pair.

        Each probe is its base RTT plus jitter from the shared
        ``latency/jitter`` stream: one draw within a region, two (a
        multiplicative and an additive term) across the wide area.  The
        endpoint descriptions and the base RTT are computed once per
        burst.
        """
        desc_a = self._describe(a)
        desc_b = self._describe(b)
        base = self._base_rtt_from(desc_a, desc_b, time_s)
        sigma = self._intra_jitter_ms(desc_a, desc_b)
        gauss = self._jitter_rng.gauss
        if sigma is not None:
            return [base + abs(gauss(0.0, sigma)) for _ in range(count)]
        mult_sigma = 0.04 * base
        # Parenthesised as base + (g1 + g2): float addition is not
        # associative, so the grouping is part of the output.
        return [
            base + (abs(gauss(0.0, mult_sigma)) + abs(gauss(0.0, 0.4)))
            for _ in range(count)
        ]


def _type_jitter(itype: InstanceType) -> float:
    return itype.rtt_jitter_ms
