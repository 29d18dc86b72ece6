//! Figure 1b: scalability — runtime of parallel And (k-truss) across
//! thread counts, reported as speedup over the sequential peeling
//! baseline, "Peeling-1t".
//!
//! The paper's reference line is Peeling-24t, a partially parallel peel.
//! Sequential [`peel()`] replaces it here because a barrier-free parallel
//! peel drain was slower than sequential peeling on every core count it
//! was measured on (0.28–0.89× on 2 vCPUs), so the sequential peel is the
//! stronger baseline.
//!
//! The paper's thread axis {4, 6, 12, 24} maps to {1, 2, 4, max} here;
//! on a single-core host the sweep is honest but flat.

use hdsd_datasets::SCALABILITY_SET;
use hdsd_nucleus::{and, peel, LocalConfig, Order, TrussSpace};

use crate::{ms, time_best, Env, Table};

/// Regenerates the Figure 1b table.
pub fn run(env: &Env) {
    let max_threads = env.threads.max(1);
    let sweep: Vec<usize> = [1usize, 2, 4, max_threads]
        .into_iter()
        .filter(|&t| t <= max_threads)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    println!("Figure 1b — k-truss scalability: And speedup over Peeling-1t (threads: {sweep:?})\n");

    let mut headers: Vec<(&str, usize)> = vec![("dataset", 10), ("peel-1t-ms", 10)];
    let labels: Vec<String> = sweep.iter().map(|t| format!("and-{t}t")).collect();
    for l in &labels {
        headers.push((l.as_str(), 10));
    }
    let speedup_headers: Vec<String> = sweep.iter().map(|t| format!("spd-{t}t")).collect();
    for l in &speedup_headers {
        headers.push((l.as_str(), 8));
    }
    let t = Table::new(&headers);

    // Dedup the scalability set (the paper's FRI slot maps onto SLJ).
    let mut seen = std::collections::HashSet::new();
    for d in SCALABILITY_SET {
        if !seen.insert(d.short_name()) {
            continue;
        }
        let g = env.load(d);
        let space = TrussSpace::precomputed(&g);
        let (_, peel_time) = time_best(2, || peel(&space));
        let mut row = vec![d.short_name().to_string(), ms(peel_time)];
        let mut speeds = Vec::new();
        for &threads in &sweep {
            let (_, and_time) =
                time_best(2, || and(&space, &LocalConfig::with_threads(threads), &Order::Natural));
            row.push(ms(and_time));
            speeds.push(format!("{:.2}x", peel_time.as_secs_f64() / and_time.as_secs_f64()));
        }
        row.extend(speeds);
        t.row(&row);
    }
    println!("\nPaper shape: local And beats the peeling baseline and scales with threads");
    println!("(the paper reports 4.8x from 4→24 threads on average, against Peeling-24t).");
}
