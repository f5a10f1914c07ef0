"""Columnar WAN campaign: batched latency/throughput matrices.

Replaces the per-cell engine walk of
:meth:`repro.analysis.wan.WanAnalysis._measure` with block
computations over the whole (round × client × pair) grid, producing
bit-identical matrices and leaving the world in the identical state:

* The shared jitter and noise streams are separate ``StreamRegistry``
  lanes, so each can be drawn in bulk, one :class:`GaussStream` block
  per round — the scalar cell loop interleaves them per probe, but
  interleaving across *different* generators does not change what
  either generator yields.
* The base RTT for a (client, instance) pair depends on the instance
  only through its ``("cloud", provider, region)`` path key, so it is
  computed once per (round, client, region) through the *scalar*
  latency model — filling its persistent-path caches in the exact
  order the sequential campaign would (first instance of each region
  first) and charging the hash-derived path randomness identically.
* The slow-start ramp is a tiny integer recurrence per
  (round, client, region); the per-pair work is then pure elementwise
  arithmetic (IEEE-exact in NumPy) with the scalar code's
  parenthesization replicated term by term.

The caller (``WanAnalysis._columnar_measure``) gates this path to the
engine-equivalent configuration: no outage scenario, default probe
policy, event sink disabled.  Campaign span and deterministic metrics
(``probes_total`` per sorted kind) are emitted exactly as
``CampaignEngine.run`` would.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro.columnar.parity import vec_exp
from repro.columnar.rng import GaussStream
from repro.internet.throughput import INIT_CWND_BYTES, WINDOW_BYTES
from repro.probing.httpget import DEFAULT_OBJECT_BYTES, DEFAULT_TIMEOUT_S


def measure_columnar(analysis) -> None:
    """Fill ``analysis._latency`` / ``_throughput`` bit-identically."""
    start = time.perf_counter()
    config = analysis.config
    world = analysis.world
    campaign = analysis._campaign()  # launches the fleet, same as scalar
    clients = analysis.clients
    regions = analysis.regions
    pairs = campaign.pairs
    rounds = config.rounds
    pings = config.pings_per_round
    n_clients = len(clients)
    n_pairs = len(pairs)
    records_total = 2 * rounds * n_clients * n_pairs

    with analysis.obs.tracer.span(
        campaign.name,
        category="campaign",
        rounds=rounds,
        vantages=n_clients,
        targets=n_pairs,
        workers=config.workers,
    ):
        latency, throughput = _compute_matrices(
            world, campaign, clients, regions, pairs, rounds, pings
        )
    analysis._latency = latency
    analysis._throughput = throughput

    elapsed = time.perf_counter() - start
    metrics = analysis.obs.metrics
    if metrics.enabled:
        per_kind = rounds * n_clients * n_pairs
        # sorted(kind) order, exactly like _observe_records.
        metrics.counter("probes_total", kind="http-get").inc(per_kind)
        metrics.counter("probes_total", kind="tcp-ping").inc(per_kind)
        if elapsed > 0:
            metrics.gauge(
                "campaign_records_per_s",
                campaign=campaign.name,
                volatile=True,
            ).set(records_total / elapsed)


def _compute_matrices(
    world, campaign, clients, regions, pairs, rounds: int, pings: int
) -> Tuple[Dict, Dict]:
    latency_model = world.latency
    throughput_model = world.throughput
    n_clients = len(clients)
    n_regions = len(regions)
    n_pairs = len(pairs)
    size = DEFAULT_OBJECT_BYTES
    timeout = DEFAULT_TIMEOUT_S

    # Region blocks along the pair axis (pairs are region-major).
    blocks: List[Tuple[int, int]] = []
    cursor = 0
    for region in regions:
        count = sum(1 for name, _ in pairs if name == region)
        blocks.append((cursor, cursor + count))
        cursor += count
    first_instance = {}
    for region_name, instance in pairs:
        first_instance.setdefault(region_name, instance)

    client_descs = [latency_model._describe(c) for c in clients]
    region_descs = [
        latency_model._describe(first_instance[r])
        if r in first_instance else None
        for r in regions
    ]

    # Base RTT and deterministic download duration per
    # (round, client, region) — scalar model calls, engine cell order.
    base = np.empty((rounds, n_clients, n_regions), dtype=np.float64)
    duration_det = np.empty_like(base)
    bottleneck_cache: Dict[Tuple[int, int], float] = {}
    for r in range(rounds):
        t = campaign.time_of_round(r)
        for ci, desc_c in enumerate(client_descs):
            for ri, desc_r in enumerate(region_descs):
                if desc_r is None:
                    base[r, ci, ri] = 0.0
                    duration_det[r, ci, ri] = 0.0
                    continue
                b = latency_model._base_rtt_from(desc_c, desc_r, t)
                base[r, ci, ri] = b
                bn = bottleneck_cache.get((ci, ri))
                if bn is None:
                    bn = throughput_model._bottleneck_bps(
                        desc_c[0], desc_r[0]
                    )
                    bottleneck_cache[(ci, ri)] = bn
                # throughput.download's deterministic part, term for
                # term (parenthesization is part of the output).
                rtt_s = b / 1000.0
                steady = min(bn, WINDOW_BYTES / rtt_s)
                ramp_rounds = 0
                ramp_bytes = 0
                cwnd = INIT_CWND_BYTES
                while ramp_bytes < size and cwnd < steady * rtt_s:
                    ramp_bytes += cwnd
                    cwnd *= 2
                    ramp_rounds += 1
                remaining = max(0, size - ramp_bytes)
                duration_det[r, ci, ri] = (
                    rtt_s + ramp_rounds * rtt_s + remaining / steady
                )

    # Draw and reduce one round at a time, in the scalar consumption
    # order: jitter (round → client → pair → ping → [mult, fixed]) and
    # noise (round → client → pair) are independent lanes, so the scalar
    # interleave between them is immaterial.  Both are consumed
    # round-major and a GaussStream carries the cached half-pair from
    # block to block, so the per-round blocks are exactly the slices of
    # one campaign-wide draw while the temporaries stay one round big.
    pair_counts = [hi - lo for lo, hi in blocks]
    ping_mean = np.empty((rounds, n_clients, n_pairs), dtype=np.float64)
    rate_kb = np.empty_like(ping_mean)
    completed = np.empty(ping_mean.shape, dtype=bool)
    jitter = GaussStream(latency_model._jitter_rng)
    noise = GaussStream(throughput_model._noise_rng)
    for r in range(rounds):
        jitter_z = jitter.take(
            n_clients * n_pairs * pings * 2
        ).reshape(n_clients, n_pairs, pings, 2)
        noise_z = noise.take(n_clients * n_pairs).reshape(n_clients, n_pairs)

        # probe_rtts_ms: base + (abs(g1) + abs(g2)), g1 ~ N(0,
        # 0.04*base), g2 ~ N(0, 0.4).  |z*sigma| == |z|*sigma exactly.
        base_b = np.repeat(base[r], pair_counts, axis=1)[..., None]
        rtt = base_b + (
            np.abs(jitter_z[..., 0]) * (0.04 * base_b)
            + np.abs(jitter_z[..., 1]) * 0.4
        )
        # Mean over pings: sequential adds, like sum(valid)/len(valid).
        acc = rtt[..., 0]
        for k in range(1, pings):
            acc = acc + rtt[..., k]
        ping_mean[r] = acc / pings

        # download: duration *= exp(gauss(0, 0.18)); completed iff
        # within the timeout; rate_kb = (size/duration)/1024.
        duration = np.repeat(duration_det[r], pair_counts, axis=1) * (
            vec_exp(noise_z * 0.18)
        )
        completed[r] = duration <= timeout
        rate_kb[r] = (size / duration) / 1024.0
    jitter.close()
    noise.close()

    # Region folds, pair-sequential like the scalar defaultdict walk.
    lat_out = np.empty((rounds, n_clients, n_regions), dtype=np.float64)
    thr_out = np.empty_like(lat_out)
    for ri, (lo, hi) in enumerate(blocks):
        if hi == lo:
            lat_out[:, :, ri] = float("nan")
            thr_out[:, :, ri] = 0.0
            continue
        acc_l = ping_mean[:, :, lo]
        for p in range(lo + 1, hi):
            acc_l = acc_l + ping_mean[:, :, p]
        lat_out[:, :, ri] = acc_l / (hi - lo)
        # Masked sequential sum: adding 0.0 for a failed download is
        # the identity, so partial sums match the scalar skip exactly.
        acc_t = np.where(completed[:, :, lo], rate_kb[:, :, lo], 0.0)
        cnt = completed[:, :, lo].astype(np.int64)
        for p in range(lo + 1, hi):
            acc_t = acc_t + np.where(
                completed[:, :, p], rate_kb[:, :, p], 0.0
            )
            cnt = cnt + completed[:, :, p]
        thr_out[:, :, ri] = np.where(
            cnt > 0, acc_t / np.maximum(cnt, 1), 0.0
        )

    latency: Dict[Tuple[str, str], List[float]] = {}
    throughput: Dict[Tuple[str, str], List[float]] = {}
    for ci, client in enumerate(clients):
        for ri, region in enumerate(regions):
            key = (client.name, region)
            latency[key] = lat_out[:, ci, ri].tolist()
            throughput[key] = thr_out[:, ci, ri].tolist()
    return latency, throughput
