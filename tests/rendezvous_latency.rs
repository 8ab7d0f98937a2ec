//! Recovery rendezvous latency: a survivor leaves `undo` when the
//! replacement announces itself, not one backoff step later.
//!
//! Survivors of a DP crash park in the undo phase until the scenario
//! driver has seen the failure declared, collected their acks and
//! brought the replacement up. When those KV rendezvous slept on an
//! exponential backoff (200 µs × 1.5ⁿ, capped at 10 ms), a crash late in
//! a job met a driver whose poll had already grown to the cap, and the
//! undo segment measured 3–11 ms. Waits that park on the store wake on
//! the write instead.

use std::sync::Arc;

use swift::core::DpScenario;
use swift::data::BlobsDataset;
use swift::dnn::models::mlp;
use swift::obs::{reconstruct, Event, MemoryRecorder, Phase};

/// One recovered incident, in ms from its failure declaration.
struct UndoTiming {
    /// Until the first rank entered undo: the rendezvous chain from the
    /// survivors' acks through the driver's wake to the replacement's
    /// start, with no model work in it.
    entry_lag_ms: f64,
    /// The reconstructed undo segment: until the last rank left undo.
    /// It also holds the undo work, which for the replacement is
    /// building its model.
    segment_ms: f64,
}

/// A 2-machine `mlp[64,256,256,10]` DP job whose machine 1 dies
/// mid-update at iteration 10.
fn late_crash_undo() -> UndoTiming {
    let rec = Arc::new(MemoryRecorder::new());
    swift::obs::install(rec.clone());
    let result = DpScenario::builder(
        Arc::new(|| mlp("rdv", &[64, 256, 256, 10], 3)),
        Arc::new(BlobsDataset::new(3, 64, 10, 6.0)),
    )
    .machines(2)
    .batch_size(64)
    .iters(12)
    .crash(1, 10, 3)
    .run();
    swift::obs::uninstall();
    assert!(result.recovered);
    let events = rec.events();
    let timeline = reconstruct(&events).expect("valid timeline");
    assert_eq!(timeline.incidents.len(), 1, "one crash, one incident");
    let undo = timeline.incidents[0]
        .segment(Phase::Undo)
        .expect("incident has an undo segment");
    let first_entry = events
        .iter()
        .filter(|s| {
            matches!(
                s.event,
                Event::PhaseBegin {
                    phase: Phase::Undo,
                    ..
                }
            )
        })
        .map(|s| s.at_ns)
        .min()
        .expect("some rank entered undo");
    let ms = |ns: u64| ns as f64 / 1e6;
    UndoTiming {
        entry_lag_ms: ms(first_entry.saturating_sub(undo.start_ns)),
        segment_ms: ms(undo.duration_ns()),
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
fn late_crash_undo_is_not_held_behind_a_backoff_poll() {
    let runs: Vec<UndoTiming> = (0..5).map(|_| late_crash_undo()).collect();
    let lag = median(runs.iter().map(|r| r.entry_lag_ms).collect());
    assert!(lag < 5.0, "median undo entry lag {lag:.2} ms");
    // Unoptimized builds spend ~4 ms of the segment building the
    // replacement's model, and a survivor woken meanwhile competes with
    // that work for the CPU. The segment is held to the bound where the
    // work is cheap and what remains is waiting.
    if !cfg!(debug_assertions) {
        let segment = median(runs.iter().map(|r| r.segment_ms).collect());
        assert!(segment < 5.0, "median undo segment {segment:.2} ms");
    }
}
