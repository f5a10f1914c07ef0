"""The bulk latency survey equals the per-target loop it replaced.

``LatencyZoneIdentifier.identify_all`` draws a whole survey's jitter
from one ``GaussStream`` in blocks of targets.  The reference below is
the loop it replaced: per target, per probe, ``repeats`` scalar
``Prober.tcp_ping`` bursts.  Both must give the same estimates, bit for
bit, and leave ``latency/jitter`` in the same state.
"""

from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cartography import latency_method
from repro.cartography.latency_method import (
    LatencyZoneIdentifier,
    SURVEY_BLOCK,
    ZoneEstimate,
)
from repro.cloud.azure import AzureCloud
from repro.cloud.base import InstanceRole, InstanceType
from repro.cloud.ec2 import EC2Cloud
from repro.dns.infrastructure import DnsInfrastructure
from repro.internet.latency import LatencyModel
from repro.net.ipv4 import IPv4Address
from repro.probing.directory import EndpointDirectory
from repro.probing.ping import Prober
from repro.sim import StreamRegistry

#: us-west-2 has three probes (one per zone), so an odd pings-per-pair
#: count leaves a cached half-pair between targets; us-east-1 has two
#: probes per zone label.
REGIONS = ("us-west-2", "us-east-1")
TENANTS_PER_REGION = 8
#: Tenants, two ELB proxies, two PaaS nodes, the Azure IP, 9.9.9.9.
POOL_SIZE = TENANTS_PER_REGION + 6


def _reference_identify(ident, region_name, target) -> ZoneEstimate:
    """The per-target loop: scalar ``tcp_ping`` per probe per repeat."""
    probes = ident.probes_for_region(region_name)
    internal = ident.ec2.internal_ip_of(target)
    probe_target = internal if internal is not None else target
    best_by_label = {}
    responded = False
    for probe in probes:
        label = ident._probe_zone_label(probe, region_name)
        for _ in range(ident.repeats):
            result = ident.prober.tcp_ping(
                probe,
                probe_target,
                count=ident.pings_per_probe,
                region_hint=region_name,
            )
            if result.min_ms is None:
                continue
            responded = True
            current = best_by_label.get(label)
            if current is None or result.min_ms < current:
                best_by_label[label] = result.min_ms
    estimate = ZoneEstimate(
        target=target,
        region=region_name,
        zone_label=None,
        responded=responded,
        probe_times_ms=best_by_label,
    )
    if not responded or not best_by_label:
        return estimate
    ordered = sorted(best_by_label.items(), key=lambda kv: kv[1])
    best_label, best_time = ordered[0]
    tie = len(ordered) > 1 and abs(ordered[1][1] - best_time) < 1e-9
    if not tie and best_time < ident.threshold_ms:
        estimate.zone_label = best_label
    return estimate


def _survey_world(repeats: int = 2, pings: int = 4):
    """EC2 and Azure with tenants, ELB and PaaS nodes in each region.

    Every call builds the same world, so one copy runs the reference
    and another the survey.  Each region's pool also holds an Azure
    Cloud Service's public IP (a wide-area path from the probes) and
    an address nothing answers on.
    """
    streams = StreamRegistry(31)
    dns = DnsInfrastructure()
    ec2 = EC2Cloud(streams, dns)
    azure = AzureCloud(streams, dns)
    latency = LatencyModel(streams, {"ec2": ec2, "azure": azure})
    prober = Prober(latency, EndpointDirectory([ec2, azure]))
    azure_region = azure.region_names()[0]
    azure_ip = azure.create_cloud_service(azure_region).public_ip
    itypes = list(InstanceType)
    pools = {}
    for region_name in REGIONS:
        zones = ec2.region(region_name).num_zones
        launched = [
            ec2.launch_instance(
                "tenant", region_name, physical_zone=i % zones,
                itype=itypes[i % len(itypes)],
            )
            for i in range(TENANTS_PER_REGION)
        ]
        for i, role in enumerate(
            [InstanceRole.ELB_PROXY, InstanceRole.PAAS_NODE] * 2
        ):
            launched.append(ec2.launch_instance(
                "platform", region_name, physical_zone=i % zones,
                role=role,
            ))
        pools[region_name] = [inst.public_ip for inst in launched] + [
            azure_ip, IPv4Address.parse("9.9.9.9"),
        ]
    ident = LatencyZoneIdentifier(
        ec2, prober, pings_per_probe=pings, repeats=repeats
    )
    return SimpleNamespace(
        ident=ident, ec2=ec2, latency=latency, prober=prober, pools=pools
    )


def _fields(estimate: ZoneEstimate):
    return (
        estimate.target,
        estimate.region,
        estimate.zone_label,
        estimate.responded,
        [(k, v.hex()) for k, v in estimate.probe_times_ms.items()],
    )


def _assert_survey_matches(region_name, picks, repeats, pings, carried):
    reference = _survey_world(repeats, pings)
    bulk = _survey_world(repeats, pings)
    if carried:
        # One scalar draw leaves the Box-Muller half-pair cached.
        for side in (reference, bulk):
            side.latency._jitter_rng.gauss(0.0, 1.0)
    targets = [reference.pools[region_name][i] for i in picks]
    expected = [
        _reference_identify(reference.ident, region_name, target)
        for target in targets
    ]
    got = bulk.ident.identify_all(region_name, targets)
    assert [_fields(e) for e in got] == [_fields(e) for e in expected]
    assert (
        bulk.latency._jitter_rng.getstate()
        == reference.latency._jitter_rng.getstate()
    )
    # Probes launch for a non-empty survey only, as the loop did.
    assert len(bulk.ec2.all_instances()) == len(
        reference.ec2.all_instances()
    )


@st.composite
def surveys(draw):
    region_name = draw(st.sampled_from(REGIONS))
    picks = draw(st.lists(st.integers(0, POOL_SIZE - 1), max_size=24))
    return {
        "region_name": region_name,
        "picks": picks,
        "repeats": draw(st.integers(1, 3)),
        "pings": draw(st.integers(1, 5)),
        "carried": draw(st.booleans()),
        "block": draw(st.sampled_from([1, 2, 5, SURVEY_BLOCK])),
    }


class TestBulkSurveyEqualsLoop:
    def test_pool_mixes_every_kind_of_target(self):
        world = _survey_world()
        for region_name in REGIONS:
            pool = world.pools[region_name]
            assert len(pool) == POOL_SIZE
            kinds = set()
            for target in pool:
                if world.prober.directory.instance_for_ip(target) is None:
                    kinds.add("unresolvable")
                    continue
                internal = world.ec2.internal_ip_of(target)
                responder = world.prober.responder(
                    internal if internal is not None else target,
                    region_name,
                )
                kinds.add(
                    "silent" if responder is None
                    else (responder.provider_name, responder.role)
                )
            assert kinds == {
                "unresolvable",
                "silent",
                ("ec2", InstanceRole.WEB),
                ("ec2", InstanceRole.ELB_PROXY),
                ("ec2", InstanceRole.PAAS_NODE),
                ("azure", InstanceRole.ELB_PROXY),
            }

    @settings(max_examples=150, deadline=None)
    @given(surveys())
    def test_estimates_and_stream_state_match(self, drawn):
        block = drawn.pop("block")
        with mock.patch.object(latency_method, "SURVEY_BLOCK", block):
            _assert_survey_matches(**drawn)

    def test_survey_longer_than_one_block(self):
        picks = [i % POOL_SIZE for i in range(SURVEY_BLOCK + 7)]
        _assert_survey_matches(
            "us-west-2", picks, repeats=1, pings=3, carried=True
        )
