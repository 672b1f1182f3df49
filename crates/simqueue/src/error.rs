//! The workspace-wide typed error: every fallible public API in
//! `simqueue`, `lgg-cli` and the experiment drivers returns [`LggError`].
//!
//! The enum is hand-rolled (no `thiserror`; the build is offline) and
//! `#[non_exhaustive]`: downstream matches must carry a wildcard arm, so
//! new failure classes can be added without a breaking release. Domain
//! errors from the lower crates ([`mgraph::GraphError`],
//! [`netmodel::ModelError`]) stay typed and are wrapped verbatim —
//! nothing is flattened to a string until display time.
//!
//! [`LggError::exit_code`] gives each failure class a distinct, stable
//! process exit code for the `lgg-sim` and `experiments` binaries:
//! scenario 2, parse 3, I/O 4, graph/model 5, corrupt checkpoint 6,
//! checkpoint version 7, checkpoint mismatch 8, invariant violation 9,
//! usage 64, failed self-check 70. Scripts (including `scripts/ci.sh`) can tell a corrupt
//! checkpoint from a bad scenario file or a mistyped flag without
//! parsing stderr.

use mgraph::GraphError;
use netmodel::ModelError;

/// Every failure the workspace can report, by class.
#[derive(Debug)]
#[non_exhaustive]
pub enum LggError {
    /// A scenario (or other input) failed structural validation.
    Scenario(String),
    /// JSON (or other serialized input) did not parse.
    Parse(String),
    /// An I/O operation failed; `context` names the file or operation.
    Io {
        /// What was being read/written when the error occurred.
        context: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A multigraph construction/indexing error.
    Graph(GraphError),
    /// A traffic-specification construction error.
    Model(ModelError),
    /// A checkpoint file failed its digest, magic or structural checks.
    CheckpointCorrupt {
        /// What check failed and where.
        reason: String,
    },
    /// A checkpoint was written by an incompatible format version.
    CheckpointVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// A (valid) checkpoint does not belong to the simulation it is being
    /// restored into — different topology, seed or component stack.
    CheckpointMismatch {
        /// The first field that disagreed.
        reason: String,
    },
    /// A guarded run (see [`crate::guard`]) detected a broken runtime
    /// invariant — packet conservation, link capacity, declaration
    /// legality, a certified `P_t` bound, or sustained divergence — and
    /// aborted. The run driver dumps a checkpoint and a reproducer before
    /// surfacing this.
    InvariantViolation {
        /// Which invariant broke (kebab-case, e.g. `conservation`).
        kind: String,
        /// The step whose end-of-step check failed.
        step: u64,
        /// Expected-vs-observed specifics.
        detail: String,
    },
    /// A command line the binaries cannot run: an unknown flag, a missing
    /// or malformed flag value, a stray operand, or flags that contradict
    /// each other. The message names the command and the flag; when the
    /// flag parser rejects a single flag or operand, it ends with the
    /// command's usage line.
    Usage(String),
    /// A self-check of the program itself failed: the sweep's serial and
    /// parallel legs disagree, two `trace --smoke` captures differ, or
    /// `bench --baseline` finds the disabled-observer engine too slow.
    /// The input was fine; the build is not.
    SelfCheck(String),
}

/// Exit codes for the classes above. 0 is success and 1 is a run that
/// finished with a negative verdict (`experiments` NOT REPRODUCED, a
/// `chaos --replay` that did not re-trigger); neither is an error.
impl LggError {
    /// The stable process exit code of `lgg-sim` and `experiments` for
    /// this error class; a usage error is 64, sysexits' `EX_USAGE`, and a
    /// failed self-check 70, `EX_SOFTWARE`.
    pub fn exit_code(&self) -> u8 {
        match self {
            LggError::Scenario(_) => 2,
            LggError::Parse(_) => 3,
            LggError::Io { .. } => 4,
            LggError::Graph(_) | LggError::Model(_) => 5,
            LggError::CheckpointCorrupt { .. } => 6,
            LggError::CheckpointVersion { .. } => 7,
            LggError::CheckpointMismatch { .. } => 8,
            LggError::InvariantViolation { .. } => 9,
            LggError::Usage(_) => 64,
            LggError::SelfCheck(_) => 70,
        }
    }

    /// Shorthand for an [`LggError::Io`] with context.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        LggError::Io {
            context: context.into(),
            source,
        }
    }

    /// Shorthand for an [`LggError::Scenario`].
    pub fn scenario(msg: impl Into<String>) -> Self {
        LggError::Scenario(msg.into())
    }

    /// Shorthand for an [`LggError::CheckpointCorrupt`].
    pub fn corrupt(reason: impl Into<String>) -> Self {
        LggError::CheckpointCorrupt {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for LggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LggError::Scenario(m) => write!(f, "invalid scenario: {m}"),
            LggError::Parse(m) => write!(f, "parse error: {m}"),
            LggError::Io { context, source } => write!(f, "{context}: {source}"),
            LggError::Graph(e) => write!(f, "graph error: {e}"),
            LggError::Model(e) => write!(f, "network model error: {e}"),
            LggError::CheckpointCorrupt { reason } => {
                write!(f, "corrupt checkpoint: {reason}")
            }
            LggError::CheckpointVersion { found, expected } => write!(
                f,
                "checkpoint format version {found} is not supported (this build \
                 reads version {expected})"
            ),
            LggError::CheckpointMismatch { reason } => {
                write!(f, "checkpoint does not match this simulation: {reason}")
            }
            LggError::InvariantViolation { kind, step, detail } => {
                write!(f, "invariant violation at step {step}: {kind}: {detail}")
            }
            LggError::Usage(m) => f.write_str(m),
            LggError::SelfCheck(m) => write!(f, "self-check failed: {m}"),
        }
    }
}

impl std::error::Error for LggError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LggError::Io { source, .. } => Some(source),
            LggError::Graph(e) => Some(e),
            LggError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for LggError {
    fn from(e: GraphError) -> Self {
        LggError::Graph(e)
    }
}

impl From<ModelError> for LggError {
    fn from(e: ModelError) -> Self {
        LggError::Model(e)
    }
}

impl From<serde_json::Error> for LggError {
    fn from(e: serde_json::Error) -> Self {
        LggError::Parse(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = LggError::scenario("cycle needs n >= 3");
        assert!(e.to_string().contains("invalid scenario"));
        let e = LggError::io(
            "cannot read x.json",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("x.json"));
        assert!(std::error::Error::source(&e).is_some());
        let e: LggError = ModelError::UnknownNode(9).into();
        assert!(e.to_string().contains('9'));
        assert!(std::error::Error::source(&e).is_some());
        let e: LggError = GraphError::TooLarge.into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn exit_codes_are_distinct_per_class() {
        let codes = [
            LggError::scenario("x").exit_code(),
            LggError::Parse("x".into()).exit_code(),
            LggError::io("x", std::io::Error::other("y")).exit_code(),
            LggError::Graph(GraphError::TooLarge).exit_code(),
            LggError::corrupt("x").exit_code(),
            LggError::CheckpointVersion {
                found: 2,
                expected: 1,
            }
            .exit_code(),
            LggError::CheckpointMismatch { reason: "x".into() }.exit_code(),
            LggError::InvariantViolation {
                kind: "conservation".into(),
                step: 7,
                detail: "x".into(),
            }
            .exit_code(),
            LggError::Usage("x".into()).exit_code(),
            LggError::SelfCheck("x".into()).exit_code(),
        ];
        let set: std::collections::BTreeSet<_> = codes.iter().collect();
        assert_eq!(set.len(), codes.len(), "exit codes must be distinct");
        assert!(codes.iter().all(|&c| c >= 2), "0/1 are reserved");
        // Model shares the domain-error code with Graph by design.
        assert_eq!(
            LggError::Model(ModelError::MissingTerminals).exit_code(),
            LggError::Graph(GraphError::TooLarge).exit_code()
        );
    }
}
