//! The clock-free stage-observer protocol and its timing implementation.
//!
//! The engine's `forward_one` must never read a clock (the workspace
//! `clippy::disallowed_methods` lint denies it), yet per-stage profiling needs
//! to know where a forward spends its time. The split: compute code emits
//! *events* — [`StageObserver::enter`]/[`StageObserver::exit`] around each
//! [`Stage`] — and only the observer implementation turns events into
//! durations. [`StageTimer`] (here, in the sanctioned timing crate) is that
//! implementation; [`NoopObserver`] is the zero-cost default the bare
//! forward path uses.
//!
//! Stages are non-overlapping by convention: the engine closes `Attention`
//! before opening `Softmax` and re-opens it after, so per-stage totals are
//! additive and sum to (approximately) the whole forward.

use std::time::{Duration, Instant};

/// The profiled phases of one ViT forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Patch-embedding linear + sequence assembly (CLS token, positions).
    PatchEmbed,
    /// Attention linear algebra: q/k/v projections, scores, merge, output
    /// projection (softmax excluded — it is its own stage).
    Attention,
    /// The SC softmax over attention score rows.
    Softmax,
    /// The SC GELU inside the MLP block.
    Gelu,
    /// MLP linear algebra: fc1/fc2 and the surrounding affine/quant steps
    /// (GELU excluded).
    Mlp,
    /// Final layer-norm affine + classification head linear.
    Head,
}

/// Number of distinct stages.
pub const STAGE_COUNT: usize = 6;

impl Stage {
    /// Every stage, in forward-pass order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::PatchEmbed,
        Stage::Attention,
        Stage::Softmax,
        Stage::Gelu,
        Stage::Mlp,
        Stage::Head,
    ];

    /// Stable dense index in `0..STAGE_COUNT`.
    pub fn index(self) -> usize {
        match self {
            Stage::PatchEmbed => 0,
            Stage::Attention => 1,
            Stage::Softmax => 2,
            Stage::Gelu => 3,
            Stage::Mlp => 4,
            Stage::Head => 5,
        }
    }

    /// Snake-case stage name, stable across releases (used as the
    /// `stage="..."` label value in metric names and in the profile table).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::PatchEmbed => "patch_embed",
            Stage::Attention => "attention",
            Stage::Softmax => "softmax",
            Stage::Gelu => "gelu",
            Stage::Mlp => "mlp",
            Stage::Head => "head",
        }
    }
}

/// Receiver for stage boundary events emitted by an instrumented forward.
///
/// Implementations must tolerate unbalanced events (an `exit` without a
/// matching `enter` is ignored) — the emitting code may bail out early on
/// error paths.
pub trait StageObserver {
    /// A stage begins now.
    fn enter(&mut self, stage: Stage);
    /// The most recently entered `stage` ends now.
    fn exit(&mut self, stage: Stage);
}

/// The do-nothing observer used by the uninstrumented forward path.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl StageObserver for NoopObserver {
    fn enter(&mut self, _stage: Stage) {}
    fn exit(&mut self, _stage: Stage) {}
}

/// A [`StageObserver`] that accumulates wall-clock time per stage.
///
/// Multiple `enter`/`exit` pairs for the same stage accumulate (a 12-layer
/// model enters `Attention` twelve times per forward); `exit` without a
/// pending `enter` is ignored.
#[derive(Debug, Default, Clone)]
pub struct StageTimer {
    open: [Option<Instant>; STAGE_COUNT],
    total_ns: [u64; STAGE_COUNT],
    calls: [u64; STAGE_COUNT],
}

impl StageTimer {
    /// A timer with all stage totals at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated time in `stage` across all completed `enter`/`exit`
    /// pairs observed so far.
    pub fn total(&self, stage: Stage) -> Duration {
        Duration::from_nanos(self.total_ns.get(stage.index()).copied().unwrap_or(0))
    }

    /// Number of completed `enter`/`exit` pairs for `stage`.
    pub fn calls(&self, stage: Stage) -> u64 {
        self.calls.get(stage.index()).copied().unwrap_or(0)
    }

    /// Sum of all stage totals.
    pub fn grand_total(&self) -> Duration {
        Duration::from_nanos(self.total_ns.iter().sum())
    }

    /// Resets all totals and pending entries.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl StageObserver for StageTimer {
    fn enter(&mut self, stage: Stage) {
        if let Some(slot) = self.open.get_mut(stage.index()) {
            *slot = Some(Instant::now());
        }
    }

    fn exit(&mut self, stage: Stage) {
        let idx = stage.index();
        let Some(started) = self.open.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let elapsed = started.elapsed();
        if let Some(total) = self.total_ns.get_mut(idx) {
            *total = total.saturating_add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
        if let Some(calls) = self.calls.get_mut(idx) {
            *calls += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_match_all_order() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        names.dedup();
        assert_eq!(names.len(), STAGE_COUNT);
    }

    #[test]
    fn timer_accumulates_across_pairs() {
        let mut t = StageTimer::new();
        for _ in 0..3 {
            t.enter(Stage::Softmax);
            std::thread::sleep(Duration::from_millis(1));
            t.exit(Stage::Softmax);
        }
        assert_eq!(t.calls(Stage::Softmax), 3);
        assert!(t.total(Stage::Softmax) >= Duration::from_millis(3));
        assert_eq!(t.calls(Stage::Gelu), 0);
        assert_eq!(t.total(Stage::Gelu), Duration::ZERO);
        assert_eq!(t.grand_total(), t.total(Stage::Softmax));
    }

    #[test]
    fn unmatched_exit_is_ignored() {
        let mut t = StageTimer::new();
        t.exit(Stage::Head);
        assert_eq!(t.calls(Stage::Head), 0);
        assert_eq!(t.total(Stage::Head), Duration::ZERO);
    }

    #[test]
    fn reset_clears_totals() {
        let mut t = StageTimer::new();
        t.enter(Stage::Mlp);
        t.exit(Stage::Mlp);
        assert_eq!(t.calls(Stage::Mlp), 1);
        t.reset();
        assert_eq!(t.calls(Stage::Mlp), 0);
        assert_eq!(t.grand_total(), Duration::ZERO);
    }

    #[test]
    fn noop_observer_is_inert() {
        let mut n = NoopObserver;
        n.enter(Stage::Attention);
        n.exit(Stage::Attention);
    }
}
