//! Shared supervision plumbing: the `--deadline` / `--max-units` /
//! `--checkpoint` / `--resume` / `--manifest` flags,
//! their translation into a [`Supervisor`], and the partial-result
//! exit-code protocol.

#![warn(clippy::panic, clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::time::Duration;

use limba_guard::{RunManifest, Supervisor};

use crate::args::Parsed;
use crate::CmdOutcome;

/// The value flags shared by every supervised subcommand.
pub(crate) const OPTIONS: &[&str] = &["deadline", "max-units", "checkpoint", "manifest"];

/// The bare switches shared by every supervised subcommand.
pub(crate) const SWITCHES: &[&str] = &["resume"];

/// Supervision options parsed from the command line.
#[derive(Debug, Clone, Default)]
pub(crate) struct Supervision {
    pub deadline: Option<Duration>,
    pub max_units: Option<usize>,
    pub checkpoint: Option<PathBuf>,
    pub resume: bool,
    pub manifest: Option<PathBuf>,
}

impl Supervision {
    /// No supervision at all — the defaults the tests use.
    #[cfg(test)]
    pub(crate) fn none() -> Self {
        Supervision::default()
    }

    /// Extracts the supervision flags from a parsed command line.
    pub(crate) fn from_args(parsed: &Parsed) -> Result<Self, String> {
        let deadline = match parsed.get("deadline") {
            Some(v) => {
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("invalid value {v:?} for --deadline"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!("--deadline must be a non-negative number, got {v}"));
                }
                Some(Duration::from_secs_f64(secs))
            }
            None => None,
        };
        let max_units = match parsed.get("max-units") {
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("invalid value {v:?} for --max-units"))?,
            ),
            None => None,
        };
        let checkpoint = parsed.get("checkpoint").map(PathBuf::from);
        let resume = parsed.has("resume");
        if resume && checkpoint.is_none() {
            return Err("--resume needs --checkpoint <path>".into());
        }
        let manifest = parsed.get("manifest").map(PathBuf::from);
        Ok(Supervision {
            deadline,
            max_units,
            checkpoint,
            resume,
            manifest,
        })
    }

    /// Builds the [`Supervisor`] these options describe.
    pub(crate) fn supervisor(&self, jobs: usize) -> Supervisor {
        let mut supervisor = Supervisor::new(jobs);
        if let Some(deadline) = self.deadline {
            supervisor = supervisor.with_deadline(deadline);
        }
        if let Some(cap) = self.max_units {
            supervisor = supervisor.with_max_units(cap);
        }
        if let Some(path) = &self.checkpoint {
            supervisor = supervisor.with_checkpoint(path, self.resume);
        }
        supervisor
    }

    /// Writes the run manifest when `--manifest` was given.
    pub(crate) fn write_manifest(&self, manifest: &RunManifest) -> Result<(), String> {
        if let Some(path) = &self.manifest {
            std::fs::write(path, manifest.to_json())
                .map_err(|e| format!("cannot write manifest {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// The command outcome a manifest maps to: complete runs exit 0,
    /// anything that left work undone or failed exits with the partial
    /// code.
    pub(crate) fn outcome_of(manifest: &RunManifest) -> CmdOutcome {
        if manifest.is_complete() {
            CmdOutcome::Complete
        } else {
            CmdOutcome::Partial
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::args::{parse, Flags};

    const FLAGS: Flags = Flags {
        command: "test",
        options: &[OPTIONS],
        switches: &[SWITCHES],
    };

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_set() {
        let parsed = parse(
            &strs(&[
                "--deadline",
                "2.5",
                "--max-units",
                "7",
                "--checkpoint",
                "run.ckpt",
                "--resume",
                "--manifest",
                "run.json",
            ]),
            &FLAGS,
        )
        .unwrap();
        let s = Supervision::from_args(&parsed).unwrap();
        assert_eq!(s.deadline, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(s.max_units, Some(7));
        assert_eq!(
            s.checkpoint.as_deref(),
            Some(std::path::Path::new("run.ckpt"))
        );
        assert!(s.resume);
        assert_eq!(
            s.manifest.as_deref(),
            Some(std::path::Path::new("run.json"))
        );
    }

    #[test]
    fn resume_requires_a_checkpoint() {
        let parsed = parse(&strs(&["--resume"]), &FLAGS).unwrap();
        assert!(Supervision::from_args(&parsed)
            .unwrap_err()
            .contains("--checkpoint"));
    }

    #[test]
    fn bad_deadlines_are_rejected() {
        for bad in ["-1", "nan", "inf", "x"] {
            let parsed = parse(&strs(&["--deadline", bad]), &FLAGS).unwrap();
            assert!(Supervision::from_args(&parsed).is_err(), "{bad}");
        }
    }

    #[test]
    fn absent_flags_mean_no_supervision() {
        let parsed = parse(&[], &FLAGS).unwrap();
        let s = Supervision::from_args(&parsed).unwrap();
        assert!(s.deadline.is_none());
        assert!(s.max_units.is_none());
        assert!(s.checkpoint.is_none());
        assert!(!s.resume);
    }
}
