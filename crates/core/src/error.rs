//! Error types.

/// Why a replay could not be performed or diverged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The recording's machine shape (processor count) does not match
    /// the replaying machine.
    MachineMismatch {
        /// Processors the recording was made on.
        recorded: u32,
        /// Processors the replaying machine has.
        replaying: u32,
    },
    /// The recording's mode does not match the replaying machine's.
    ModeMismatch {
        /// Mode of the recording.
        recorded: crate::Mode,
        /// Mode of the replaying machine.
        replaying: crate::Mode,
    },
    /// The replayed execution's digest differs from the recorded one —
    /// the logs are corrupt or the substrate is buggy.
    Diverged {
        /// Human-readable description of the first observed mismatch.
        detail: String,
    },
    /// The log source failed mid-replay: the stream is corrupt,
    /// truncated, or missing required metadata.
    Source {
        /// Human-readable description of the stream failure.
        detail: String,
    },
    /// A stratified replay cannot apply: the mode keeps no PI log to
    /// stratify (PicoLog), or the stratum capacity is zero.
    Unstratifiable {
        /// Mode of the recording.
        mode: crate::Mode,
        /// The requested chunks-per-processor-per-stratum capacity.
        max_per_stratum: u32,
    },
}

impl core::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ReplayError::MachineMismatch {
                recorded,
                replaying,
            } => write!(
                f,
                "recording was made on {recorded} processors but the machine has {replaying}"
            ),
            ReplayError::ModeMismatch {
                recorded,
                replaying,
            } => write!(
                f,
                "recording was made in {recorded} mode but the machine is in {replaying} mode"
            ),
            ReplayError::Diverged { detail } => {
                write!(f, "replay diverged from the recording: {detail}")
            }
            ReplayError::Source { detail } => {
                write!(f, "replay log source failed: {detail}")
            }
            ReplayError::Unstratifiable {
                mode,
                max_per_stratum,
            } => {
                if mode.has_pi_log() {
                    write!(
                        f,
                        "stratum capacity must be at least 1 chunk, got {max_per_stratum}"
                    )
                } else {
                    write!(f, "{mode} recordings have no PI log to stratify")
                }
            }
        }
    }
}

impl std::error::Error for ReplayError {}

#[cfg(test)]
mod tests {
    // Test code may panic freely.
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ReplayError::MachineMismatch {
            recorded: 8,
            replaying: 4,
        };
        assert!(e.to_string().contains('8'));
        let e = ReplayError::ModeMismatch {
            recorded: crate::Mode::PicoLog,
            replaying: crate::Mode::OrderOnly,
        };
        assert!(e.to_string().contains("PicoLog"));
        let e = ReplayError::Diverged {
            detail: "memory hash".into(),
        };
        assert!(e.to_string().contains("memory hash"));
    }
}
