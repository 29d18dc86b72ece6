//! Incremental core maintenance: keep κ₂ exact while edges stream in and
//! out. Each batch splices the graph and the resident container snapshot
//! (no re-enumeration of the clique universe) and re-peels the spliced
//! rows; every batch is checked against a from-scratch peel.
//!
//! Run with: `cargo run --release --example incremental_updates`

use hdsd::nucleus::IncrementalCore;
use hdsd::prelude::*;
use std::time::Instant;

fn main() {
    let g = hdsd::datasets::thin_edges(&hdsd::datasets::holme_kim(20_000, 8, 0.5, 77), 0.7, 77);
    println!("initial graph: {} vertices, {} edges", g.num_vertices(), g.num_edges());

    let mut inc = IncrementalCore::new(g);

    // Stream 10 batches of mixed insertions and deletions.
    let mut state = 0xD1Eu64;
    let mut rand = move |m: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    println!("\n{:>6} {:>8} {:>10} {:>12}", "batch", "op", "edges", "update-ms");
    for batch in 0..10 {
        let (op, ins, rm) = if batch % 2 == 0 {
            let n = inc.graph().num_vertices() as u64;
            let edges: Vec<(u32, u32)> = (0..4).map(|_| (rand(n) as u32, rand(n) as u32)).collect();
            ("insert", edges, Vec::new())
        } else {
            let m = inc.graph().num_edges() as u64;
            let victims: Vec<(u32, u32)> =
                (0..20).map(|_| inc.graph().edges()[rand(m) as usize]).collect();
            ("delete", Vec::new(), victims)
        };
        let t = Instant::now();
        inc.update_edges(&ins, &rm);
        let update_ms = t.elapsed().as_secs_f64() * 1e3;
        let fresh = peel(&CoreSpace::new(inc.graph())).kappa;
        assert_eq!(inc.core_numbers(), fresh.as_slice());
        println!("{:>6} {:>8} {:>10} {:>12.1}", batch, op, ins.len() + rm.len(), update_ms);
    }
    println!("\nevery batch verified against a from-scratch peel: exact ✓");
    println!(
        "(The same splice + re-peel maintains k-truss and (3,4)-nucleus indices: \
         see Incremental<TrussKind> / Incremental<Nucleus34Kind>.)"
    );
}
