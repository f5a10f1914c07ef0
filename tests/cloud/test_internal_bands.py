"""The internal allocator computes each zone's /16 bands from the band
rule; this pins the rule to the block lists it replaced, which dealt
the root /8 and the next three /8s to zones in runs of eight
consecutive /16s, round-robin."""

import pytest

from repro.cloud.addressing import ZoneInternalAllocator
from repro.net.ipv4 import IPv4Address, IPv4Network


def _materialized_bands(num_zones):
    root = IPv4Network.parse("10.0.0.0/8")
    blocks = list(root.subnets(16))
    extension = IPv4Network(root.last + 1, root.prefix_len)
    for _ in range(3):
        blocks.extend(extension.subnets(16))
        extension = IPv4Network(extension.last + 1, extension.prefix_len)
    bands = {zone: [] for zone in range(num_zones)}
    zone = 0
    for start in range(0, len(blocks), 8):
        bands[zone].extend(blocks[start:start + 8])
        zone = (zone + 1) % num_zones
    return bands


@pytest.mark.parametrize("num_zones", [1, 2, 3, 4])
def test_computed_bands_equal_materialized_lists(num_zones):
    allocator = ZoneInternalAllocator("r", num_zones=num_zones)
    bands = _materialized_bands(num_zones)
    for zone, blocks in bands.items():
        assert allocator.zone_blocks(zone) == blocks
        for block in blocks:
            for value in (block.first, block.last):
                assert allocator.zone_of_internal_ip(
                    IPv4Address(value)
                ) == zone
    below = IPv4Address(IPv4Network.parse("10.0.0.0/8").first - 1)
    above = IPv4Address(IPv4Network.parse("13.255.0.0/16").last + 1)
    assert allocator.zone_of_internal_ip(below) is None
    assert allocator.zone_of_internal_ip(above) is None
