//! The correctness gate: pinned report digests hold, at one thread and
//! at two (the determinism contract), on the canonical and held-out
//! seeds. Benchmark sizes take minutes in a debug build, so the check
//! runs under `cargo test --release`.

use perfbench::{pinned_digest, pins, render, Workload, CANONICAL_SEED, HELD_OUT_SEED};

#[test]
fn pinned_file_covers_every_workload_and_seed() {
    let pins = pins().expect("pinned.txt parses");
    for w in Workload::ALL {
        for seed in [CANONICAL_SEED, HELD_OUT_SEED] {
            assert!(
                pins.iter().any(|p| p.workload == w && p.seed == seed),
                "{} has no pinned digest at seed {seed}",
                w.name()
            );
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "benchmark sizes: run with --release")]
fn digests_match_pins_at_one_and_two_threads() {
    for w in Workload::ALL {
        for seed in [CANONICAL_SEED, HELD_OUT_SEED] {
            let pinned = pinned_digest(w, seed).expect("pinned.txt parses");
            for threads in [1, 2] {
                let (_, digest) = render(&w.run_report(seed, threads));
                assert_eq!(
                    Some(digest),
                    pinned,
                    "{} seed {seed} at {threads} thread(s)",
                    w.name()
                );
            }
        }
    }
}
