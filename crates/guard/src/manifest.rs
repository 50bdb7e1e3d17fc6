//! Machine-readable account of a supervised run.
//!
//! The manifest answers the operational questions an interrupted or
//! partially failed sweep raises: how much finished, what failed and
//! why, how much came from the checkpoint, and whether the run is
//! complete enough to trust. It renders as deterministic JSON — keys in
//! a fixed order, no timestamps — so two runs of the same work produce
//! byte-identical manifests.

use crate::job::{FailureKind, JobFailure};

/// Why a supervised run stopped before completing every unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline expired.
    DeadlineExpired,
    /// The configured unit cap was reached.
    UnitCapReached,
    /// The caller's cancel token tripped.
    Cancelled,
}

impl StopReason {
    /// The stable kebab-case name the manifest JSON uses.
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::DeadlineExpired => "deadline-expired",
            StopReason::UnitCapReached => "unit-cap-reached",
            StopReason::Cancelled => "cancelled",
        }
    }
}

/// Summary of one supervised run, suitable for rendering to a manifest
/// file next to the checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// The run kind (e.g. `"sweep"`, `"suite"`, `"advise-verify/2"`).
    pub kind: String,
    /// The configuration fingerprint the run executed under.
    pub fingerprint: u64,
    /// Total units in the run.
    pub total: usize,
    /// Units that completed this invocation (excludes cached).
    pub completed: usize,
    /// Units replayed from the checkpoint instead of executed.
    pub cached: usize,
    /// Units that failed permanently, in unit order.
    pub failures: Vec<JobFailure>,
    /// Units never started (interrupted before they were claimed).
    pub skipped: usize,
    /// Why the run stopped early, if it did.
    pub stopped: Option<StopReason>,
}

impl RunManifest {
    /// Whether every unit produced a payload (cached or fresh).
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.skipped == 0
    }

    /// Renders the manifest as deterministic JSON: fixed key order, no
    /// wall-clock data, failures sorted by unit index.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"kind\": {},\n", json_string(&self.kind)));
        out.push_str(&format!(
            "  \"fingerprint\": \"{:#018x}\",\n",
            self.fingerprint
        ));
        out.push_str(&format!("  \"total\": {},\n", self.total));
        out.push_str(&format!("  \"completed\": {},\n", self.completed));
        out.push_str(&format!("  \"cached\": {},\n", self.cached));
        out.push_str(&format!("  \"skipped\": {},\n", self.skipped));
        out.push_str(&format!("  \"complete\": {},\n", self.is_complete()));
        match &self.stopped {
            Some(reason) => out.push_str(&format!(
                "  \"stopped\": {},\n",
                json_string(reason.as_str())
            )),
            None => out.push_str("  \"stopped\": null,\n"),
        }
        out.push_str("  \"failures\": [");
        for (i, failure) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let kind = match &failure.kind {
                FailureKind::Panicked { .. } => "panicked",
                FailureKind::Failed { .. } => "failed",
            };
            out.push_str(&format!(
                "\n    {{\"unit\": {}, \"kind\": {}, \"message\": {}}}",
                failure.unit,
                json_string(kind),
                json_string(failure.kind.message())
            ));
        }
        if !self.failures.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            kind: "sweep".into(),
            fingerprint: 0xABCD,
            total: 10,
            completed: 6,
            cached: 2,
            failures: vec![JobFailure {
                unit: 4,
                kind: FailureKind::Failed {
                    message: "replication diverged".into(),
                },
            }],
            skipped: 1,
            stopped: Some(StopReason::DeadlineExpired),
        }
    }

    #[test]
    fn completeness_flags() {
        let mut m = sample();
        assert!(!m.is_complete());
        m.failures.clear();
        m.skipped = 0;
        m.stopped = None;
        assert!(m.is_complete());
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"kind\": \"sweep\""));
        assert!(a.contains("\"fingerprint\": \"0x000000000000abcd\""));
        assert!(a.contains("\"stopped\": \"deadline-expired\""));
        assert!(a.contains("\"unit\": 4"));
        assert!(a.contains("\"message\": \"replication diverged\""));
        // Balanced braces as a cheap well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn json_escapes_hostile_strings() {
        let mut m = sample();
        m.failures[0].kind = FailureKind::Panicked {
            message: "line1\n\"quoted\"\\x".into(),
        };
        let json = m.to_json();
        assert!(json.contains("line1\\n\\\"quoted\\\"\\\\x"));
    }

    #[test]
    fn empty_failures_render_as_empty_array() {
        let mut m = sample();
        m.failures.clear();
        assert!(m.to_json().contains("\"failures\": []"));
    }
}
