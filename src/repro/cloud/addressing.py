"""Address allocation: public ranges per region, internal blocks per zone.

Public addressing mirrors what the paper relies on: each provider
publishes per-region CIDR lists, so an address maps to (provider,
region) by prefix matching.  Internal addressing mirrors what the
proximity cartography method exploits: within an EC2 region, 10.0.0.0/8
is carved into /16 blocks and each availability zone draws its instances
from its own runs of consecutive /16s, producing the banded structure of
the paper's Figure 7.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.ipv4 import IPv4Address, IPv4Network
from repro.net.prefixset import PrefixSet


@dataclass
class AddressPlan:
    """Public address ranges for one provider, carved per region.

    ``supernets`` are the provider's announced blocks; each region gets
    a contiguous slice of /16s from them, allocated round-robin so the
    published list has multiple prefixes per region (as real lists do).
    """

    provider_name: str
    supernets: List[IPv4Network]
    per_region_slash16s: int = 4

    def __post_init__(self) -> None:
        self._region_blocks: Dict[str, List[IPv4Network]] = {}
        self._cursors: List[Tuple[int, int]] = []  # (supernet idx, offset)
        self._slash16_pool: List[IPv4Network] = []
        for net in self.supernets:
            if net.prefix_len > 16:
                raise ValueError(
                    f"supernet {net} too small to carve /16 blocks"
                )
            self._slash16_pool.extend(net.subnets(16))
        self._next_block = 0
        self._host_cursor: Dict[IPv4Network, int] = {}

    def assign_region(self, region_name: str) -> List[IPv4Network]:
        """Carve the next ``per_region_slash16s`` /16 blocks for a region."""
        if region_name in self._region_blocks:
            return self._region_blocks[region_name]
        blocks = []
        for _ in range(self.per_region_slash16s):
            if self._next_block >= len(self._slash16_pool):
                raise RuntimeError(
                    f"{self.provider_name} address plan exhausted"
                )
            blocks.append(self._slash16_pool[self._next_block])
            self._next_block += 1
        self._region_blocks[region_name] = blocks
        return blocks

    def region_blocks(self, region_name: str) -> List[IPv4Network]:
        return list(self._region_blocks.get(region_name, []))

    def published_ranges(self) -> List[Tuple[IPv4Network, str]]:
        """The publishable list: (CIDR, region-name) pairs."""
        pairs = []
        for region_name, blocks in self._region_blocks.items():
            for block in blocks:
                pairs.append((block, region_name))
        return pairs

    def prefix_set(self) -> PrefixSet:
        """A PrefixSet labelled with region names."""
        return PrefixSet(self.published_ranges())

    def allocate_public_ip(
        self, region_name: str, rng: random.Random
    ) -> IPv4Address:
        """A fresh public address in one of the region's blocks.

        Addresses are handed out sequentially within a randomly chosen
        block, skipping the network/broadcast-ish first addresses; real
        clouds assign from large pools with no locality guarantee, and
        nothing downstream depends on public-address adjacency.
        """
        blocks = self._region_blocks.get(region_name)
        if not blocks:
            raise KeyError(
                f"region {region_name} has no public blocks assigned"
            )
        block = rng.choice(blocks)
        cursor = self._host_cursor.get(block, 10)
        if cursor >= block.num_addresses - 1:
            # Fall back to a linear scan of other blocks.
            for candidate in blocks:
                if self._host_cursor.get(candidate, 10) < candidate.num_addresses - 1:
                    block = candidate
                    cursor = self._host_cursor.get(block, 10)
                    break
            else:
                raise RuntimeError(f"public pool exhausted in {region_name}")
        self._host_cursor[block] = cursor + 1
        return block.address_at(cursor)


#: Number of consecutive /16 blocks a zone owns before the allocator
#: moves to the next zone's band (gives Figure 7 its striping).
_ZONE_BAND_RUN = 8

#: Allocations a /16 absorbs before the zone opens its next block.
#: Small enough that busy zones span many /16s (so proximity sampling
#: has real coverage gaps, as in the paper's 79%).
_BLOCK_FILL_LIMIT = 3000


@dataclass
class ZoneInternalAllocator:
    """Internal (10/8) addressing for one region, banded by zone.

    The region's /16 blocks are dealt to its zones in runs of
    ``_ZONE_BAND_RUN`` consecutive blocks, round-robin, so zone ``z``'s
    ``k``-th block lies in run ``(k // _ZONE_BAND_RUN) * num_zones + z``.
    Blocks are computed from that rule, never stored.
    """

    region_name: str
    num_zones: int
    internal_root: IPv4Network = field(
        default_factory=lambda: IPv4Network.parse("10.0.0.0/8")
    )

    def __post_init__(self) -> None:
        if self.num_zones <= 0:
            raise ValueError("region must have at least one zone")
        if self.internal_root.prefix_len > 16:
            raise ValueError(
                f"internal root {self.internal_root} too small to carve "
                "/16 blocks"
            )
        # Paper-tier headroom: keep striping past the root's last /16 by
        # continuing into the three adjacent root-sized blocks.  Extending
        # the *tail* of each zone's block list preserves every address
        # smaller tiers ever issued (allocation only opens higher block
        # indices once earlier blocks fill), so seed/mid outputs are
        # unchanged.
        self._num_blocks = 4 * (self.internal_root.num_addresses >> 16)
        self._block_counts = [0] * self.num_zones
        for start in range(0, self._num_blocks, _ZONE_BAND_RUN):
            run = start // _ZONE_BAND_RUN
            self._block_counts[run % self.num_zones] += min(
                _ZONE_BAND_RUN, self._num_blocks - start
            )
        #: Per-(zone, block) allocation cursors and the highest block
        #: index each zone has opened so far.
        self._cursors: Dict[Tuple[int, int], int] = {}
        self._active: Dict[int, int] = {z: 0 for z in range(self.num_zones)}

    def _block_first(self, zone_index: int, k: int) -> int:
        """First address of the zone's ``k``-th /16 block."""
        run = (k // _ZONE_BAND_RUN) * self.num_zones + zone_index
        block = run * _ZONE_BAND_RUN + k % _ZONE_BAND_RUN
        return self.internal_root.first + (block << 16)

    def zone_blocks(self, zone_index: int) -> List[IPv4Network]:
        return [
            IPv4Network(self._block_first(zone_index, k), 16)
            for k in range(self._block_counts[zone_index])
        ]

    def zone_of_internal_ip(self, ip: IPv4Address) -> Optional[int]:
        """Ground-truth zone owning an internal address (for scoring
        cartography accuracy; the measurement pipeline never calls this)."""
        block = (ip.value - self.internal_root.first) >> 16
        if not 0 <= block < self._num_blocks:
            return None
        return (block // _ZONE_BAND_RUN) % self.num_zones

    def allocate(self, zone_index: int, rng: random.Random) -> IPv4Address:
        """Allocate an internal address somewhere in the zone's bands.

        Launches mostly land in the zone's newest /16, but a sizeable
        minority land in earlier, still-active blocks — real zones fill
        over years, which is what lets proximity samples taken *after*
        tenant launches share the tenants' /16s.
        """
        if zone_index not in range(self.num_zones):
            raise KeyError(
                f"zone {zone_index} not in region {self.region_name}"
            )
        active = self._active[zone_index]
        if active > 0 and rng.random() < 0.35:
            block_idx = rng.randrange(active + 1)
        else:
            block_idx = active
        offset = self._cursors.get((zone_index, block_idx), 4)
        offset += rng.randint(1, 7)
        if offset >= _BLOCK_FILL_LIMIT and block_idx != active:
            # An older block filled up; fall back to the newest one.
            block_idx = active
            offset = self._cursors.get((zone_index, block_idx), 4)
            offset += rng.randint(1, 7)
        if offset >= _BLOCK_FILL_LIMIT:
            # The newest block is full too; open the next band.
            active += 1
            if active >= self._block_counts[zone_index]:
                raise RuntimeError(
                    f"internal pool exhausted in zone {zone_index}"
                )
            self._active[zone_index] = active
            block_idx = active
            offset = 4 + rng.randint(1, 7)
        self._cursors[(zone_index, block_idx)] = offset
        return IPv4Address(self._block_first(zone_index, block_idx) + offset)
