//! Full-scale digest oracle for the scenario registry.
//!
//! The goldens (`tests/golden/e*.json`) pin every report at golden
//! sizes only, where several kernels never reach the regime they are
//! optimized for. This test runs all twenty scenarios at `Scale::Full`
//! with the canonical seed and checks the 64-bit FNV-1a digest of each
//! compact report JSON against `tests/golden/full_digests.txt`, so a
//! kernel swap that claims bit-exactness is checked at the sizes it
//! targets. The sweep takes minutes in release, so it is opt-in:
//!
//! ```text
//! cargo test --release --test full_digests -- --ignored --nocapture
//! ```
//!
//! Each scenario's digest and wall-clock go to stderr as it finishes.

use hot_exp::registry::{registry, RunCtx, Scale};
use hot_exp::SEED;
use hotgen::graph::io::fnv1a;
use hotgen::graph::parallel::default_threads;
use std::time::Instant;

const PINNED: &str = include_str!("golden/full_digests.txt");

/// `(id, digest)` per non-comment line of the pin file.
fn pinned() -> Vec<(&'static str, u64)> {
    PINNED
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut f = line.split_whitespace();
            match (f.next(), f.next(), f.next()) {
                (Some(id), Some(hex), None) => (
                    id,
                    u64::from_str_radix(hex, 16)
                        .unwrap_or_else(|_| panic!("bad digest in {:?}", line)),
                ),
                _ => panic!("expected `id hex-digest`, got {:?}", line),
            }
        })
        .collect()
}

#[test]
fn pin_file_covers_the_registry() {
    let ids: Vec<&str> = pinned().into_iter().map(|(id, _)| id).collect();
    let expected: Vec<&str> = registry().iter().map(|s| s.id).collect();
    assert_eq!(ids, expected);
}

#[test]
#[ignore = "full-scale sweep: cargo test --release --test full_digests -- --ignored"]
fn full_scale_reports_match_pinned_digests() {
    let pins = pinned();
    let threads = default_threads();
    let mut mismatched = Vec::new();
    for spec in registry() {
        let start = Instant::now();
        let report = (spec.run)(RunCtx {
            scale: Scale::Full,
            seed: SEED,
            threads,
            snapshot_dir: None,
        });
        let digest = fnv1a(report.to_json().compact().as_bytes());
        eprintln!(
            "{} {:016x} ({:.1} s, {} threads)",
            spec.id,
            digest,
            start.elapsed().as_secs_f64(),
            threads
        );
        let want = pins.iter().find(|(id, _)| *id == spec.id).map(|p| p.1);
        if want != Some(digest) {
            mismatched.push(format!("{} {:016x}", spec.id, digest));
        }
    }
    assert!(
        mismatched.is_empty(),
        "full-scale reports diverged from tests/golden/full_digests.txt:\n{}",
        mismatched.join("\n")
    );
}
