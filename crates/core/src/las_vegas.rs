//! The one Las-Vegas loop: attempt → certify → retry → fallback.
//!
//! The APSP driver, the distance-parameter search stage and gossip APSP
//! all turn a randomized, fault-exposed computation into a Las-Vegas one
//! the same way: run an attempt with fresh fault randomness, certify its
//! output, retry on a typed retryable error or a rejected certificate,
//! and once the budget is spent either degrade to a fallback or report.
//! [`las_vegas`] owns that loop — the attempt budget, the round sums, the
//! attempt records, the single retryability decision and the fallback
//! error mapping — while each caller keeps its own salts, span labels and
//! report types in the closures it passes.
//!
//! A non-retryable error ends the loop at once, fallback included, so the
//! root cause survives into the returned error. That covers fail-stop
//! crashes: a reseeded fault plan keeps its `crash=NODE@ROUND` schedule,
//! so a retry would only crash again.

use crate::ApspError;

/// Which try of the loop a closure is serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Try {
    /// `0..=max_retries` for the attempts, `max_retries + 1` for the
    /// fallback.
    pub(crate) index: u32,
    /// `true` for the fallback.
    pub(crate) fallback: bool,
}

impl Try {
    /// `"{prefix}-{index}"`, or `"{prefix}-fallback"` for the fallback.
    pub(crate) fn label(self, prefix: &str) -> String {
        if self.fallback {
            format!("{prefix}-fallback")
        } else {
            format!("{prefix}-{}", self.index)
        }
    }
}

/// A try's outcome with the rounds it charged, failed work included.
pub(crate) type Charged<T> = (u64, Result<T, ApspError>);

/// Pairs `run` with its rounds: `rounds(output)` on success, the rounds a
/// failed run's error says it charged otherwise.
pub(crate) fn charged<T>(run: Result<T, ApspError>, rounds: impl FnOnce(&T) -> u64) -> Charged<T> {
    (
        run.as_ref().map_or_else(ApspError::rounds_charged, rounds),
        run,
    )
}

/// One finished try, handed to the caller's record builder.
pub(crate) struct Tried<'a, T> {
    /// Which try this was.
    pub(crate) at: Try,
    /// The try's output, when it produced one (even if its certificate
    /// then failed to run).
    pub(crate) output: Option<&'a T>,
    /// Rounds charged by the try and its certificate.
    pub(crate) rounds: u64,
    /// Certificate verdict; `None` when none ran or it died first.
    pub(crate) verified: Option<bool>,
    /// The typed error that ended the try, if one did.
    pub(crate) error: Option<String>,
}

/// The accepted output of a Las-Vegas run and its history.
pub(crate) struct Accepted<T, R> {
    /// The accepted try's output.
    pub(crate) output: T,
    /// One record per try, the accepted one last.
    pub(crate) history: Vec<R>,
    /// Rounds across every try, failed ones and certificates included.
    pub(crate) total_rounds: u64,
    /// The accepted try's verdict; `None` when no certificate ran.
    pub(crate) verified: Option<bool>,
    /// `true` iff the fallback produced the output.
    pub(crate) used_fallback: bool,
}

/// Runs up to `max_retries + 1` attempts, then the fallback if one is
/// given, and returns the first output whose certificate does not reject
/// it.
///
/// `attempt(k)` runs attempt `k`; `certify` checks an output and returns
/// `None` when there is nothing to certify; `fallback` runs the last
/// resort; `record` turns each finished try into the caller's record type.
///
/// # Errors
///
/// * A non-retryable error from any try (attempt, fallback or
///   certificate), at once.
/// * Without a fallback: the last typed error, or
///   [`ApspError::VerificationFailed`] when every try produced an output
///   and every certificate rejected it.
/// * With a fallback that fails (a retryable error or a rejected
///   certificate): [`ApspError::VerificationFailed`] counting
///   `max_retries + 2` tries.
pub(crate) fn las_vegas<T, R>(
    max_retries: u32,
    mut attempt: impl FnMut(u32) -> Charged<T>,
    mut certify: impl FnMut(Try, &T) -> Option<Result<(bool, u64), ApspError>>,
    mut fallback: Option<impl FnOnce() -> Charged<T>>,
    mut record: impl FnMut(Tried<'_, T>) -> R,
) -> Result<Accepted<T, R>, ApspError> {
    let mut history = Vec::new();
    let mut total_rounds = 0;
    let mut last_error = None;
    let mut fell_back = false;
    // Saturating, so a budget of `u32::MAX` retries cannot overflow.
    let fallback_index = max_retries.saturating_add(1);
    for index in 0..=fallback_index {
        let at = Try {
            index,
            fallback: index == fallback_index,
        };
        let (mut rounds, run) = if !at.fallback {
            attempt(index)
        } else if let Some(fallback) = fallback.take() {
            fell_back = true;
            fallback()
        } else {
            break;
        };
        let (output, verified, error) = match run {
            Err(e) => (None, None, Some(e)),
            Ok(out) => match certify(at, &out) {
                None => (Some(out), None, None),
                Some(Ok((ok, certificate_rounds))) => {
                    rounds += certificate_rounds;
                    (Some(out), Some(ok), None)
                }
                // The certificate itself died on the network: the try
                // proves nothing either way, so it counts as failed.
                Some(Err(e)) => {
                    rounds += e.rounds_charged();
                    (Some(out), None, Some(e))
                }
            },
        };
        total_rounds += rounds;
        history.push(record(Tried {
            at,
            output: output.as_ref(),
            rounds,
            verified,
            error: error.as_ref().map(ToString::to_string),
        }));
        match (output, error) {
            (_, Some(e)) if !e.is_retryable() => return Err(e),
            (_, Some(e)) => last_error = Some(e),
            (Some(output), None) if verified != Some(false) => {
                return Ok(Accepted {
                    output,
                    history,
                    total_rounds,
                    verified,
                    used_fallback: at.fallback,
                })
            }
            _ => {}
        }
    }
    match last_error {
        // A failed fallback still means "nothing verified", whatever it hit.
        Some(e) if !fell_back => Err(e),
        _ => Err(ApspError::VerificationFailed {
            attempts: history.len() as u32,
        }),
    }
}
