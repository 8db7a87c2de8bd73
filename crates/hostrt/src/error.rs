//! `OmpxError`: the typed error of the fallible host-runtime APIs.
//!
//! The infallible host APIs (`ompx_malloc`, `ompx_memcpy_h2d`,
//! `PreparedTarget::execute`, …) keep their historical signatures — the
//! 24-cell benchmark suite compiles unchanged — but are thin wrappers over
//! `try_` variants returning `Result<_, OmpxError>`. The wrapper layer
//! retries transient faults under the device's
//! [`ompx_sim::fault::RetryPolicy`] and degrades gracefully when the
//! retries run out; the `try_` layer surfaces the typed error instead.

use ompx_sim::error::SimError;
use ompx_sim::fault::RetryPolicy;
use std::fmt;

/// Error of a fallible host-runtime operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OmpxError {
    /// The underlying device operation failed (not retried, or not
    /// retryable).
    Device(SimError),
    /// A transient fault persisted through every attempt the retry policy
    /// allowed.
    RetriesExhausted {
        /// What was being retried (kernel or API name).
        op: String,
        /// Attempts made (the policy's budget).
        attempts: u32,
        /// The failure of the final attempt.
        last: SimError,
    },
}

impl OmpxError {
    /// The underlying simulator error (the final one, for exhausted
    /// retries) — used by the infallible wrappers that keep `SimResult`
    /// signatures.
    pub fn into_sim(self) -> SimError {
        match self {
            OmpxError::Device(e) => e,
            OmpxError::RetriesExhausted { last, .. } => last,
        }
    }

    /// A reference to the underlying simulator error.
    pub fn sim_error(&self) -> &SimError {
        match self {
            OmpxError::Device(e) => e,
            OmpxError::RetriesExhausted { last, .. } => last,
        }
    }
}

/// Classify the terminal error of an operation retried under `policy`: a
/// transient fault that outlived the retry budget reports the budget;
/// everything else passes through as a device error.
pub fn classify(policy: &RetryPolicy, op: &str, e: SimError) -> OmpxError {
    if e.is_transient() {
        OmpxError::RetriesExhausted { op: op.to_string(), attempts: policy.max_attempts, last: e }
    } else {
        OmpxError::Device(e)
    }
}

impl fmt::Display for OmpxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmpxError::Device(e) => write!(f, "device error: {e}"),
            OmpxError::RetriesExhausted { op, attempts, last } => {
                write!(f, "{op} failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for OmpxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.sim_error())
    }
}

impl From<SimError> for OmpxError {
    fn from(e: SimError) -> Self {
        OmpxError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_carry_the_inner_error() {
        let inner = SimError::EccTransient { op: "memcpy H2D".into() };
        let e = OmpxError::RetriesExhausted { op: "memcpy H2D".into(), attempts: 4, last: inner };
        let msg = e.to_string();
        assert!(msg.contains("4 attempts"), "{msg}");
        assert!(msg.contains("ECC"), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
        assert!(matches!(e.into_sim(), SimError::EccTransient { .. }));

        let d: OmpxError = SimError::DeviceLost { device: 1 }.into();
        assert!(d.to_string().contains("device 1 lost"));
        assert!(matches!(d.into_sim(), SimError::DeviceLost { device: 1 }));
    }
}
