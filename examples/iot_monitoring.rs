//! IoT link-quality monitoring with live appends (Section X dynamics).
//!
//! A sensor network streams beacon identifiers, each with an RSSI-derived
//! link-quality utility. The operator queries the aggregate quality of
//! recurring beacon sequences while the stream keeps growing — the
//! dynamic-USI scenario. New readings are appended through
//! [`IngestIndex`], which seals them into small immutable segments next
//! to the static index of the history.
//!
//! Run with: `cargo run --release --example iot_monitoring`

use usi::datasets::Dataset;
use usi::prelude::*;

fn main() {
    // Historical window: 200k readings.
    let history = Dataset::Iot.generate(200_000, 13);
    let n0 = history.len();
    let probe = history.text()[1_000..1_016].to_vec(); // a recurring sweep fragment

    let mut index = IngestIndex::new(
        UsiBuilder::new().with_k(n0 / 100).deterministic(17).build(history),
        IngestOptions { seal_threshold: 50_000, ..IngestOptions::default() }, // seal every 50k readings
    );
    let q0 = index.query(&probe);
    println!(
        "historical window: sequence occurs {} times, total link quality {:.1}",
        q0.occurrences,
        q0.value.unwrap_or(0.0)
    );

    // Live stream: 120k new readings arrive (two seals), and the
    // recurring sweep keeps appearing.
    let live = Dataset::Iot.generate(120_000, 14);
    for (i, (&b, &w)) in live.text().iter().zip(live.weights()).enumerate() {
        index.push(b, w);
        if (i + 1) % 40_000 == 0 {
            let q = index.query(&probe);
            println!(
                "after {:>6} live readings: occurrences {}, utility {:.1}, \
                 tail {} (seals so far: {})",
                i + 1,
                q.occurrences,
                q.value.unwrap_or(0.0),
                index.tail_len(),
                index.seals()
            );
        }
    }

    let q1 = index.query(&probe);
    assert!(q1.occurrences >= q0.occurrences);
    println!(
        "\nfinal: {} readings indexed, {} seals, sequence utility {:.1}",
        index.len(),
        index.seals(),
        q1.value.unwrap_or(0.0)
    );
}
