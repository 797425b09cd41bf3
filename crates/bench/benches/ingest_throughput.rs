//! Steady-state append throughput: the segmented ingestion pipeline
//! (`usi_ingest`: seal small segments, tier-merge in the background)
//! against an epoch baseline (a local closure that rebuilds the whole
//! index over the concatenation every threshold letters). Same input,
//! same threshold — the difference is exactly the cost model of the
//! two designs: the epoch baseline re-pays the full `O(n)` build on
//! every threshold crossing, the segmented one pays `O(threshold)` per
//! seal plus amortised tier merges.
//!
//! Tracked by the nightly gate via `ci/nightly-thresholds.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use usi_core::UsiBuilder;
use usi_datasets::Dataset;
use usi_ingest::{IngestIndex, IngestOptions};
use usi_strings::WeightedString;

/// Base document size (letters already indexed when appends start).
const BASE: usize = 1 << 16; // 64 Ki
/// Letters appended per measured iteration.
const APPENDS: usize = 1 << 13; // 8 Ki
/// Seal / rebuild threshold shared by both designs.
const THRESHOLD: usize = 1 << 10; // 1 Ki

fn bench_append_throughput(c: &mut Criterion) {
    let base_ws = Dataset::Hum.generate(BASE, 17);
    let tail_ws = Dataset::Hum.generate(APPENDS, 18);
    let builder = UsiBuilder::new().with_k(BASE / 200).deterministic(3);
    let base = builder.build(base_ws.clone());

    let mut group = c.benchmark_group("ingest_throughput");
    group.sample_size(5);
    group.throughput(Throughput::Elements(APPENDS as u64));

    group.bench_function("segmented_append", |b| {
        b.iter(|| {
            let mut idx = IngestIndex::new(
                base.clone(),
                IngestOptions {
                    seal_threshold: THRESHOLD,
                    compact_fanout: 4,
                    ..IngestOptions::default()
                },
            );
            for (&letter, &weight) in tail_ws.text().iter().zip(tail_ws.weights()) {
                idx.push(letter, weight);
            }
            idx.compact_to_quiescence();
            idx.len()
        })
    });

    group.bench_function("epoch_rebuild_append", |b| {
        b.iter(|| {
            // the epoch baseline: rebuild everything every THRESHOLD letters
            let (mut text, mut weights) = base_ws.clone().into_parts();
            let mut index = builder.build(base_ws.clone());
            for (i, (&letter, &weight)) in tail_ws.text().iter().zip(tail_ws.weights()).enumerate()
            {
                text.push(letter);
                weights.push(weight);
                if (i + 1) % THRESHOLD == 0 {
                    let ws = WeightedString::new(text.clone(), weights.clone()).unwrap();
                    index = builder.build(ws);
                }
            }
            index.text().len()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_append_throughput);
criterion_main!(benches);
