//! The benchmark's own span recorder.
//!
//! Spans wrap calls into one layer's public entry points from the
//! benchmark's replays; nothing inside the library is instrumented.
//! Layer spans never nest (each wraps one leaf call), so a span's self
//! time is simply its duration. Whatever the replay does between spans
//! is glue, reported as `unattributed_s`.

use std::collections::BTreeMap;
use std::time::Instant;

/// Busy time and call count of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    pub seconds: f64,
    pub calls: u64,
}

/// Per-layer busy times plus integer work counters, kept in memory and
/// read out when the replay returns.
#[derive(Debug, Default)]
pub struct Tracer {
    pub busy: BTreeMap<&'static str, Busy>,
    pub counters: BTreeMap<String, u64>,
}

impl Tracer {
    /// Runs `f` as one call of `layer`, charging its wall time to it.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let b = self.busy.entry(layer).or_default();
        b.seconds += start.elapsed().as_secs_f64();
        b.calls += 1;
        out
    }

    /// Adds `by` to the counter `<layer>.<name>`.
    pub fn count(&mut self, layer: &str, name: &str, by: u64) {
        *self.counters.entry(format!("{layer}.{name}")).or_default() += by;
    }

    /// Sum of all layer busy times.
    pub fn attributed_seconds(&self) -> f64 {
        self.busy.values().map(|b| b.seconds).sum()
    }
}
