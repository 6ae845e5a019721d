//! Unit tests of the shared Las-Vegas loop, driven by fake closures.
//!
//! The loop is crate-private to `qcc-apsp`, so this suite compiles its
//! source file directly: `crate::ApspError` inside it resolves to the
//! import below. Every caller (the APSP driver, the distance-parameter
//! search stage, gossip APSP) relies on exactly these rules.

use qcc::algo::ApspError;
use qcc::congest::{CongestError, NodeId};
use std::cell::Cell;

#[path = "../crates/core/src/las_vegas.rs"]
#[allow(dead_code)]
mod las_vegas;

use las_vegas::{las_vegas, Charged, Tried, Try};

/// What the fake record builder keeps of each try.
#[derive(Clone, Debug, PartialEq)]
struct Rec {
    at: Try,
    output: Option<u32>,
    rounds: u64,
    verified: Option<bool>,
    failed: bool,
}

fn rec(t: Tried<'_, u32>) -> Rec {
    Rec {
        at: t.at,
        output: t.output.copied(),
        rounds: t.rounds,
        verified: t.verified,
        failed: t.error.is_some(),
    }
}

fn attempt_at(index: u32) -> Try {
    Try {
        index,
        fallback: false,
    }
}

fn lost() -> ApspError {
    ApspError::faulted(
        5,
        ApspError::Congest(CongestError::DeliveryFailed {
            phase: "p".into(),
            undelivered: 1,
            attempts: 9,
        }),
    )
}

fn crash() -> ApspError {
    ApspError::faulted(
        46,
        ApspError::Congest(CongestError::NodeCrashed {
            node: NodeId::new(1),
            phase: "p".into(),
        }),
    )
}

/// Every output passes a certificate charging 3 rounds.
fn accept(_: Try, _: &u32) -> Option<Result<(bool, u64), ApspError>> {
    Some(Ok((true, 3)))
}

/// Every output fails a certificate charging 2 rounds.
fn reject(_: Try, _: &u32) -> Option<Result<(bool, u64), ApspError>> {
    Some(Ok((false, 2)))
}

fn no_fallback() -> Option<fn() -> Charged<u32>> {
    None
}

#[test]
fn labels_name_the_attempt_or_the_fallback() {
    assert_eq!(attempt_at(2).label("verify"), "verify-2");
    let fallback = Try {
        index: 4,
        fallback: true,
    };
    assert_eq!(fallback.label("ext-verify"), "ext-verify-fallback");
}

#[test]
fn a_retryable_error_is_retried_and_rounds_add_up() {
    let run = las_vegas(
        3,
        |k| {
            if k == 0 {
                (lost().rounds_charged(), Err(lost()))
            } else {
                (7, Ok(40 + k))
            }
        },
        accept,
        no_fallback(),
        rec,
    )
    .unwrap();
    assert_eq!(run.output, 41);
    assert_eq!(
        run.history,
        vec![
            Rec {
                at: attempt_at(0),
                output: None,
                rounds: 5,
                verified: None,
                failed: true,
            },
            Rec {
                at: attempt_at(1),
                output: Some(41),
                rounds: 10,
                verified: Some(true),
                failed: false,
            },
        ]
    );
    assert_eq!(run.total_rounds, 15);
    assert_eq!(run.verified, Some(true));
    assert!(!run.used_fallback);
}

#[test]
fn a_non_retryable_error_stops_at_once_and_skips_the_fallback() {
    for (err, expected) in [
        (ApspError::NegativeCycle, ApspError::NegativeCycle),
        (crash(), crash()),
    ] {
        let attempts = Cell::new(0);
        let fell_back = Cell::new(false);
        let got = las_vegas(
            3,
            |_| {
                attempts.set(attempts.get() + 1);
                (err.rounds_charged(), Err(err.clone()))
            },
            accept,
            Some(|| {
                fell_back.set(true);
                (1, Ok(0))
            }),
            rec,
        )
        .err()
        .unwrap();
        assert_eq!(got, expected, "the root cause survives");
        assert_eq!(attempts.get(), 1, "{expected}: no retry");
        assert!(!fell_back.get(), "{expected}: no fallback");
    }
}

#[test]
fn a_certificate_error_counts_as_a_failed_attempt() {
    let run = las_vegas(
        2,
        |k| (4, Ok(k)),
        |at: Try, _: &u32| {
            if at.index == 0 {
                Some(Err(ApspError::faulted(9, lost())))
            } else {
                Some(Ok((true, 1)))
            }
        },
        no_fallback(),
        rec,
    )
    .unwrap();
    assert_eq!(run.history.len(), 2);
    let failed = &run.history[0];
    assert_eq!(failed.output, Some(0), "the output it could not certify");
    assert_eq!(failed.rounds, 4 + 9, "the dead certificate's rounds count");
    assert_eq!(failed.verified, None);
    assert!(failed.failed);
    assert_eq!(run.total_rounds, 13 + 5);
    assert_eq!(run.output, 1);
}

#[test]
fn a_non_retryable_certificate_error_stops_at_once() {
    let err = las_vegas(
        3,
        |k| (4, Ok(k)),
        |_, _| Some(Err(crash())),
        no_fallback(),
        rec,
    )
    .err()
    .unwrap();
    assert_eq!(err, crash());
}

#[test]
fn without_a_certificate_the_first_output_is_accepted() {
    let run = las_vegas(3, |k| (6, Ok(k)), |_, _| None, no_fallback(), rec).unwrap();
    assert_eq!(run.output, 0);
    assert_eq!(run.verified, None);
    assert_eq!(run.total_rounds, 6);
}

#[test]
fn fail_policy_returns_the_last_error_or_verification_failed() {
    // Errors and rejections interleave: the last *error* is reported.
    let err = las_vegas(
        2,
        |k| {
            if k == 1 {
                (5, Err(lost()))
            } else {
                (1, Ok(k))
            }
        },
        reject,
        no_fallback(),
        rec,
    )
    .err()
    .unwrap();
    assert_eq!(err, lost());
    // Only rejections: verification failed after max_retries + 1 tries.
    let err = las_vegas(2, |k| (1, Ok(k)), reject, no_fallback(), rec)
        .err()
        .unwrap();
    assert_eq!(err, ApspError::VerificationFailed { attempts: 3 });
}

#[test]
fn the_fallback_runs_once_the_budget_is_spent() {
    let run = las_vegas(
        1,
        |_| (3, Err(lost())),
        |at: Try, _: &u32| Some(Ok((at.fallback, 2))),
        Some(|| (10, Ok(99))),
        rec,
    )
    .unwrap();
    assert!(run.used_fallback);
    assert_eq!(run.output, 99);
    assert_eq!(run.verified, Some(true));
    let last = run.history.last().unwrap();
    assert_eq!(
        last.at,
        Try {
            index: 2,
            fallback: true
        }
    );
    assert_eq!(last.rounds, 12);
    assert_eq!(run.history.len(), 3);
    assert_eq!(run.total_rounds, 3 + 3 + 12);
}

#[test]
fn a_failed_fallback_maps_to_verification_failed() {
    let max_retries = 2;
    // A retryable fallback error, and a rejected fallback certificate.
    for (fallback_run, certificate) in [(Err(lost()), true), (Ok(7), false)] {
        let err = las_vegas(
            max_retries,
            |k| (1, Ok(k)),
            |at: Try, _: &u32| Some(Ok((at.fallback && certificate, 1))),
            Some(|| (4, fallback_run)),
            rec,
        )
        .err()
        .unwrap();
        assert_eq!(
            err,
            ApspError::VerificationFailed {
                attempts: max_retries + 2
            }
        );
    }
    // A retryable certificate error on the fallback maps the same way.
    let err = las_vegas(
        max_retries,
        |k| (1, Ok(k)),
        |_, _| Some(Err(lost())),
        Some(|| (4, Ok(7))),
        rec,
    )
    .err()
    .unwrap();
    assert_eq!(
        err,
        ApspError::VerificationFailed {
            attempts: max_retries + 2
        }
    );
    // A non-retryable fallback error keeps its cause.
    let err = las_vegas(
        max_retries,
        |k| (1, Ok(k)),
        reject,
        Some(|| (4, Err(crash()))),
        rec,
    )
    .err()
    .unwrap();
    assert_eq!(err, crash());
}

#[test]
fn the_largest_retry_budget_does_not_overflow() {
    let run = las_vegas(
        u32::MAX,
        |k| if k < 2 { (1, Err(lost())) } else { (1, Ok(k)) },
        accept,
        Some(|| (1, Ok(0))),
        rec,
    )
    .unwrap();
    assert_eq!(run.output, 2);
    assert_eq!(run.history.len(), 3);
}
