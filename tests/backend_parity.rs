//! Tier-1 parity contract between the [`InferenceBackend`]
//! implementations, driven end to end through the [`Session`] facade:
//!
//! * the float-reference backend and the SC-exact backend, compiled from
//!   the *same* checkpoint, must agree on predicted classes within the
//!   paper's tolerance — their only delta is SC approximation (iterative
//!   softmax + transfer-table GELU), which the network was trained to
//!   absorb;
//! * a [`FaultInjectingBackend`] at rate 0.0 must be **bit-identical** to
//!   its inner backend — the decorator may never perturb the clean path;
//! * at a small non-zero rate, thermometer fault tolerance must show: the
//!   network degrades gracefully instead of collapsing.

#![allow(
    clippy::expect_used,
    reason = "an integration test fails by panicking, helpers included"
)]

use ascend::engine::EngineConfig;
use ascend::fixture::{session_or_load, FixtureRecipe};
use ascend::{BackendKind, FaultInjectingBackend, InferenceBackend, Session};
use ascend_vit::data::Dataset;

/// The converged shared fixture — the same definition (and therefore the
/// same cached checkpoint) the engine unit tests use. Parity must be
/// judged on a converged model: an underfit model sits at near-tie logits
/// where argmax is noise, not signal.
fn parity_recipe() -> FixtureRecipe {
    FixtureRecipe::tiny_converged("engine-unit", 5)
}

fn sessions() -> (Session, Session, Dataset) {
    let recipe = parity_recipe();
    let (sc, _, test) =
        session_or_load(&recipe, EngineConfig::default(), BackendKind::Sc).expect("sc session");
    let (reference, _, _) =
        session_or_load(&recipe, EngineConfig::default(), BackendKind::Ref).expect("ref session");
    (sc, reference, test)
}

mod support;
use support::assert_bit_identical;

#[test]
fn ref_and_sc_backends_agree_within_the_papers_tolerance() {
    let (sc, reference, test) = sessions();
    assert_eq!(sc.backend().name(), "sc-exact");
    assert_eq!(reference.backend().name(), "float-ref");
    assert_eq!(sc.backend().vit_config(), reference.backend().vit_config());
    assert_eq!(sc.backend().plan(), reference.backend().plan());

    let n = test.len();
    let patches = test.patches(&(0..n).collect::<Vec<_>>(), 4);
    let sc_logits = sc.forward(&patches, n).expect("sc forward");
    let ref_logits = reference.forward(&patches, n).expect("ref forward");
    let agree = sc_logits
        .argmax_rows()
        .iter()
        .zip(ref_logits.argmax_rows().iter())
        .filter(|(a, b)| a == b)
        .count();
    // The paper's end-to-end claim is ~1% accuracy loss at [8, 32, 8, 3];
    // at this miniature scale we hold the analogous bound: the SC engine
    // may not flip more than a small minority of predictions vs the
    // high-precision reference.
    assert!(
        agree * 4 >= n * 3,
        "SC-exact and float-ref disagree on {}/{n} images (need ≥ 75% agreement)",
        n - agree
    );

    let sc_acc = sc.accuracy(&test, 8).expect("sc accuracy");
    let ref_acc = reference.accuracy(&test, 8).expect("ref accuracy");
    assert!(
        (sc_acc - ref_acc).abs() <= 0.25,
        "backend accuracy gap too wide: sc {sc_acc} vs ref {ref_acc}"
    );
}

#[test]
fn zero_rate_fault_wrapper_is_bit_identical_to_its_inner_backend() {
    let (sc, reference, test) = sessions();
    let n = 8usize;
    let patches = test.patches(&(0..n).collect::<Vec<_>>(), 4);

    // Wrap each bare backend directly (the decorator composes over any
    // `InferenceBackend`, including the session's boxed trait object).
    for (session, label) in [(&sc, "sc-exact"), (&reference, "float-ref")] {
        let clean = session.forward(&patches, n).expect("clean forward");
        let wrapped = FaultInjectingBackend::new(session.backend(), 0.0, 99).expect("wrapper");
        let faulted = wrapped.forward(&patches, n).expect("wrapped forward");
        assert_bit_identical(&faulted, &clean, &format!("rate-0 wrapper over {label}"));
    }

    // And through the facade: a session built with .fault(0.0, seed).
    let recipe = parity_recipe();
    let (ckpt, _, _) = ascend::fixture::checkpoint_or_load(&recipe);
    let via_builder = Session::builder()
        .checkpoint(ckpt)
        .backend(BackendKind::Sc)
        .fault(0.0, 123)
        .build()
        .expect("fault session builds");
    assert_eq!(via_builder.backend().name(), "fault(rate=0)+sc-exact");
    let clean = sc.forward(&patches, n).expect("clean forward");
    let got = via_builder
        .forward(&patches, n)
        .expect("fault-session forward");
    assert_bit_identical(&got, &clean, "rate-0 session");
}

#[test]
fn small_fault_rates_degrade_gracefully_and_deterministically() {
    let (sc, _, test) = sessions();
    let n = test.len();
    let patches = test.patches(&(0..n).collect::<Vec<_>>(), 4);
    let clean_acc = sc.accuracy(&test, 8).expect("clean accuracy");

    let wrapped = FaultInjectingBackend::new(sc.backend(), 0.02, 7).expect("wrapper");
    // Determinism: the fault universe is a function of (seed, image), so
    // two runs see identical faults.
    let a = wrapped.forward(&patches, n).expect("faulted forward");
    let b = wrapped.forward(&patches, n).expect("faulted forward again");
    assert_bit_identical(&a, &b, "faulted forward determinism");

    // Graceful degradation (the SC fault-tolerance argument, end to end):
    // 2% input bit flips must not collapse accuracy to chance.
    let faulted_acc = wrapped.accuracy(&test, 8).expect("faulted accuracy");
    assert!(
        faulted_acc >= clean_acc - 0.25,
        "2% bit flips collapsed accuracy: clean {clean_acc} vs faulted {faulted_acc}"
    );
}

#[test]
fn parallel_serving_is_bit_identical_for_every_backend() {
    // The serve determinism contract holds per backend: the pool is
    // generic, so the proof must not silently narrow to the SC engine.
    let (sc, reference, test) = sessions();
    let n = 13usize;
    let patches = test.patches(&(0..n).collect::<Vec<_>>(), 4);
    for (session, label) in [(&sc, "sc"), (&reference, "ref")] {
        let serial = session.forward(&patches, n).expect("serial forward");
        let parallel = session.serve_batch(&patches, n).expect("parallel serve");
        // Shapes are compared too: one row of logits per served image.
        assert_bit_identical(&parallel, &serial, &format!("{label} parallel vs serial"));
    }
}

#[test]
fn fault_injecting_backend_stays_deterministic_on_a_reused_pool() {
    // The persistent pool must preserve the parallel == serial contract
    // for the decorator stack too: fault sampling is a function of
    // (seed, image), never of which long-lived worker serves the request
    // or how many runs the pool has already served.
    let recipe = parity_recipe();
    let (ckpt, _, test) = ascend::fixture::checkpoint_or_load(&recipe);
    let session = Session::builder()
        .checkpoint(ckpt)
        .backend(BackendKind::Sc)
        .fault(0.02, 7)
        .workers(2)
        .micro_batch(4)
        .build()
        .expect("fault session builds");
    let n = 13usize;
    let patches = test.patches(&(0..n).collect::<Vec<_>>(), 4);
    let serial = session
        .forward(&patches, n)
        .expect("serial faulted forward");
    for round in 0..3 {
        // Every round reuses the session's one pool (same worker threads).
        let parallel = session.serve_batch(&patches, n).expect("faulted serve");
        assert_bit_identical(
            &parallel,
            &serial,
            &format!("faulted pool reuse round {round}"),
        );
        assert_eq!(session.runner().expect("session pool").workers(), 2);
    }
}
