//! Shard-order independence of the parallel runtime's reductions.
//!
//! The parallel executor merges per-shard [`NetStats`] and per-shard
//! [`MetricsRegistry`] instances in deterministic shard order, but the
//! *result* must not depend on that order (or on how workers group
//! shards): both merges have to be commutative and associative, so any
//! worker/shard partition reduces to the same machine-wide totals. The
//! properties are checked over randomized inputs and all orderings of a
//! three-shard merge — every way two workers could have pre-reduced a
//! subset before the final fold.

use anton_des::SimDuration;
use anton_net::NetStats;
use anton_obs::{
    stream::log2_bucket, MetricsRegistry, MetricsSnapshot, QuantileSketch, Reservoir,
    SpaceSavingTopK, StreamingMoments,
};
use proptest::prelude::*;

/// Build a `NetStats` from 13 scalar counters and two per-node vectors.
fn stats(scalars: &[u64], sent: &[u64], delivered: &[u64]) -> NetStats {
    NetStats {
        packets_sent: scalars[0],
        packets_delivered: scalars[1],
        payload_bytes_delivered: scalars[2],
        link_traversals: scalars[3],
        sent_by_node: sent.to_vec(),
        delivered_by_node: delivered.to_vec(),
        faults_dropped: scalars[4],
        faults_corrupted: scalars[5],
        retransmits: scalars[6],
        retry_budget_exhausted: scalars[7],
        packets_unreachable: scalars[8],
        packets_lost: scalars[9],
        delivery_errors: scalars[10],
    }
}

/// Build a small registry whose key set and values derive from `spec`:
/// counters `c0..`, gauges `g0..`, one histogram fed every sample.
/// Varying lengths give partially overlapping key sets across shards.
fn registry(counters: &[u64], gauges: &[u64], samples: &[u64]) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for (i, v) in counters.iter().enumerate() {
        m.inc(&format!("c{i}"), *v);
    }
    for (i, v) in gauges.iter().enumerate() {
        m.set_gauge(&format!("g{i}"), *v as f64);
    }
    for ns in samples {
        m.observe("lat", SimDuration::from_ns(*ns));
    }
    m
}

fn merged_stats(order: &[&NetStats]) -> NetStats {
    let mut acc = NetStats::default();
    for s in order {
        acc.merge(s);
    }
    acc
}

fn merged_snapshot(order: &[&MetricsRegistry]) -> MetricsSnapshot {
    let mut acc = MetricsRegistry::new();
    for m in order {
        acc.merge(m);
    }
    acc.snapshot()
}

proptest! {
    /// `NetStats::merge` is commutative and associative: every
    /// permutation of three shard blocks — and every pre-reduction of a
    /// pair before the final fold — yields identical totals.
    #[test]
    fn net_stats_merge_is_order_independent(
        sa in prop::collection::vec(0u64..1_000_000, 11..12),
        sb in prop::collection::vec(0u64..1_000_000, 11..12),
        sc in prop::collection::vec(0u64..1_000_000, 11..12),
        va in prop::collection::vec(0u64..1000, 0..5),
        vb in prop::collection::vec(0u64..1000, 0..5),
        vc in prop::collection::vec(0u64..1000, 0..5),
    ) {
        let a = stats(&sa, &va, &vb);
        let b = stats(&sb, &vb, &vc);
        let c = stats(&sc, &vc, &va);
        let base = merged_stats(&[&a, &b, &c]);
        // Commutativity: all six shard orders agree.
        for order in [
            [&a, &c, &b], [&b, &a, &c], [&b, &c, &a], [&c, &a, &b], [&c, &b, &a],
        ] {
            prop_assert_eq!(&merged_stats(&order), &base);
        }
        // Associativity: a worker pre-reducing (b, c) before the final
        // fold changes nothing.
        let mut bc = NetStats::default();
        bc.merge(&b);
        bc.merge(&c);
        let mut assoc = a.clone();
        assoc.merge(&bc);
        prop_assert_eq!(&assoc, &base);
    }

    /// `MetricsRegistry::merge` (counters add, gauges max, histograms
    /// pool) is order-independent down to the flattened snapshot, even
    /// with partially overlapping key sets.
    #[test]
    fn metrics_merge_is_order_independent(
        ca in prop::collection::vec(0u64..1000, 0..4),
        cb in prop::collection::vec(0u64..1000, 0..4),
        cc in prop::collection::vec(0u64..1000, 0..4),
        ga in prop::collection::vec(0u64..1000, 0..3),
        gb in prop::collection::vec(0u64..1000, 0..3),
        gc in prop::collection::vec(0u64..1000, 0..3),
        ha in prop::collection::vec(1u64..100_000, 0..6),
        hb in prop::collection::vec(1u64..100_000, 0..6),
        hc in prop::collection::vec(1u64..100_000, 0..6),
    ) {
        let a = registry(&ca, &ga, &ha);
        let b = registry(&cb, &gb, &hb);
        let c = registry(&cc, &gc, &hc);
        let base = merged_snapshot(&[&a, &b, &c]);
        for order in [
            [&a, &c, &b], [&b, &a, &c], [&b, &c, &a], [&c, &a, &b], [&c, &b, &a],
        ] {
            prop_assert_eq!(&merged_snapshot(&order), &base);
        }
        // Associativity via pre-reduced (b, c).
        let mut bc = MetricsRegistry::new();
        bc.merge(&b);
        bc.merge(&c);
        let mut assoc = a.clone();
        assoc.merge(&bc);
        prop_assert_eq!(&assoc.snapshot(), &base);
    }

    /// Merging an empty registry is the identity — shards that ran no
    /// events contribute nothing.
    #[test]
    fn metrics_merge_empty_is_identity(
        ca in prop::collection::vec(0u64..1000, 0..4),
        ha in prop::collection::vec(1u64..100_000, 0..6),
    ) {
        let a = registry(&ca, &[7, 9], &ha);
        let before = a.snapshot();
        let mut merged = a.clone();
        merged.merge(&MetricsRegistry::new());
        prop_assert_eq!(&merged.snapshot(), &before);
        let mut from_empty = MetricsRegistry::new();
        from_empty.merge(&a);
        prop_assert_eq!(&from_empty.snapshot(), &before);
    }

    /// `QuantileSketch::merge` is bit-deterministic under every shard
    /// permutation and under pre-reduction of any pair: bucket counts
    /// are plain integer adds, so no order can perturb them.
    #[test]
    fn quantile_sketch_merge_is_order_independent(
        pa in prop::collection::vec(0u64..10_000_000_000, 0..40),
        pb in prop::collection::vec(0u64..10_000_000_000, 0..40),
        pc in prop::collection::vec(0u64..10_000_000_000, 0..40),
    ) {
        let a = sketch(&pa);
        let b = sketch(&pb);
        let c = sketch(&pc);
        let base = merged_sketch(&[&a, &b, &c]);
        for order in [
            [&a, &c, &b], [&b, &a, &c], [&b, &c, &a], [&c, &a, &b], [&c, &b, &a],
        ] {
            prop_assert_eq!(&merged_sketch(&order), &base);
        }
        let mut bc = QuantileSketch::new();
        bc.merge(&b);
        bc.merge(&c);
        let mut assoc = a.clone();
        assoc.merge(&bc);
        prop_assert_eq!(&assoc, &base);
        // The merge pools everything: count and exact sum add.
        prop_assert_eq!(base.count(), (pa.len() + pb.len() + pc.len()) as u64);
        let want: u128 = pa.iter().chain(&pb).chain(&pc).map(|&p| p as u128).sum();
        prop_assert_eq!(base.sum_ps(), want);
    }

    /// `StreamingMoments::merge` is order-independent: count, sum and
    /// sum-of-squares are exact integer accumulators, so shard order
    /// (and pre-reduction) cannot introduce float drift.
    #[test]
    fn streaming_moments_merge_is_order_independent(
        pa in prop::collection::vec(0u64..10_000_000_000, 0..40),
        pb in prop::collection::vec(0u64..10_000_000_000, 0..40),
        pc in prop::collection::vec(0u64..10_000_000_000, 0..40),
    ) {
        let a = moments(&pa);
        let b = moments(&pb);
        let c = moments(&pc);
        let base = merged_moments(&[&a, &b, &c]);
        for order in [
            [&a, &c, &b], [&b, &a, &c], [&b, &c, &a], [&c, &a, &b], [&c, &b, &a],
        ] {
            prop_assert_eq!(&merged_moments(&order), &base);
        }
        let mut bc = StreamingMoments::new();
        bc.merge(&b);
        bc.merge(&c);
        let mut assoc = a;
        assoc.merge(&bc);
        prop_assert_eq!(&assoc, &base);
    }

    /// `SpaceSavingTopK::merge` (exact union-sum over disjoint-owner
    /// shards) is commutative and associative, including the carried
    /// per-key error bounds.
    #[test]
    fn topk_merge_is_order_independent(
        ka in prop::collection::vec(0u64..64_000_000, 0..30),
        kb in prop::collection::vec(0u64..64_000_000, 0..30),
        kc in prop::collection::vec(0u64..64_000_000, 0..30),
    ) {
        let a = topk(&ka);
        let b = topk(&kb);
        let c = topk(&kc);
        let base = merged_topk(&[&a, &b, &c]);
        for order in [
            [&a, &c, &b], [&b, &a, &c], [&b, &c, &a], [&c, &a, &b], [&c, &b, &a],
        ] {
            prop_assert_eq!(merged_topk(&order).top(64), base.top(64));
        }
        let mut bc = SpaceSavingTopK::new(16);
        bc.merge(&b);
        bc.merge(&c);
        let mut assoc = a.clone();
        assoc.merge(&bc);
        prop_assert_eq!(assoc.top(64), base.top(64));
    }

    /// `Reservoir::merge` (bottom-k priority sampling) keeps the same
    /// sample whatever order the shards arrive in — the kept set is the
    /// k smallest hash priorities over the union of offers.
    #[test]
    fn reservoir_merge_is_order_independent(
        ia in prop::collection::vec(0u64..1_000_000, 0..30),
        ib in prop::collection::vec(0u64..1_000_000, 0..30),
        ic in prop::collection::vec(0u64..1_000_000, 0..30),
    ) {
        let a = reservoir(&ia);
        let b = reservoir(&ib);
        let c = reservoir(&ic);
        let base = merged_reservoir(&[&a, &b, &c]);
        for order in [
            [&a, &c, &b], [&b, &a, &c], [&b, &c, &a], [&c, &a, &b], [&c, &b, &a],
        ] {
            let m = merged_reservoir(&order);
            prop_assert_eq!(
                m.entries().map(|(id, v)| (id, *v)).collect::<Vec<_>>(),
                base.entries().map(|(id, v)| (id, *v)).collect::<Vec<_>>()
            );
        }
        let mut bc = Reservoir::new(8, 42);
        bc.merge(&b);
        bc.merge(&c);
        let mut assoc = a.clone();
        assoc.merge(&bc);
        prop_assert_eq!(
            assoc.entries().map(|(id, v)| (id, *v)).collect::<Vec<_>>(),
            base.entries().map(|(id, v)| (id, *v)).collect::<Vec<_>>()
        );
    }

    /// The streaming sketch tracks the exact `LogHistogram` to within
    /// one log2 bucket at every quantile, on any shared input stream —
    /// the bounded-error contract `scale_probe` relies on at scale.
    #[test]
    fn sketch_quantiles_track_exact_histogram(
        ps in prop::collection::vec(1u64..100_000_000_000, 1..200),
        qs in prop::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let mut reg = MetricsRegistry::new();
        let mut sk = QuantileSketch::new();
        for &p in &ps {
            reg.observe("lat", SimDuration(p));
            sk.record_ps(p);
        }
        let hist = reg.histogram("lat").unwrap();
        for &q in &qs {
            let exact = hist.quantile(q).unwrap().as_ps();
            let approx = sk.quantile_ps(q).unwrap();
            let (be, ba) = (log2_bucket(exact), log2_bucket(approx));
            prop_assert!(
                be.abs_diff(ba) <= 1,
                "q={q}: sketch {approx} vs exact {exact} ({ba} vs {be})"
            );
        }
    }
}

/// Feed raw picosecond samples into a sketch.
fn sketch(ps: &[u64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &p in ps {
        s.record_ps(p);
    }
    s
}

fn merged_sketch(order: &[&QuantileSketch]) -> QuantileSketch {
    let mut acc = QuantileSketch::new();
    for s in order {
        acc.merge(s);
    }
    acc
}

fn moments(ps: &[u64]) -> StreamingMoments {
    let mut m = StreamingMoments::new();
    for &p in ps {
        m.record(SimDuration(p));
    }
    m
}

fn merged_moments(order: &[&StreamingMoments]) -> StreamingMoments {
    let mut acc = StreamingMoments::new();
    for m in order {
        acc.merge(m);
    }
    acc
}

/// A small-capacity table so evictions actually happen while filling.
/// Each raw sample packs a key (low 6 bits of the quotient space) and a
/// weight, since this proptest build has no tuple strategies.
fn topk(offers: &[u64]) -> SpaceSavingTopK<u32> {
    let mut t = SpaceSavingTopK::new(16);
    for &raw in offers {
        t.offer((raw % 64) as u32, raw / 64);
    }
    t
}

fn merged_topk(order: &[&SpaceSavingTopK<u32>]) -> SpaceSavingTopK<u32> {
    let mut acc = SpaceSavingTopK::new(16);
    for t in order {
        acc.merge(t);
    }
    acc
}

fn reservoir(ids: &[u64]) -> Reservoir<u64> {
    let mut r = Reservoir::new(8, 42);
    for &id in ids {
        r.offer(id, id * 3);
    }
    r
}

fn merged_reservoir(order: &[&Reservoir<u64>]) -> Reservoir<u64> {
    let mut acc = Reservoir::new(8, 42);
    for r in order {
        acc.merge(r);
    }
    acc
}
