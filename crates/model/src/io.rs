//! Text persistence of measurement matrices.
//!
//! Tracefiles capture *events*; sometimes only the reduced matrix is
//! worth keeping (the paper's tables are exactly such matrices). The
//! format is line oriented and diff friendly:
//!
//! ```text
//! limba-measurements v1
//! processors 2
//! activities computation point-to-point
//! region 0 solver loop
//! cell 0 computation 1.5 2.5
//! ```
//!
//! `cell` lines carry one value per processor; unmentioned cells are
//! zero.

use std::io::{BufRead, BufReader, Read, Write};

use crate::{ActivityKind, ActivitySet, Measurements, MeasurementsBuilder, ModelError, RegionId};

const HEADER: &str = "limba-measurements v1";

/// Error raised while encoding or decoding measurement files.
#[derive(Debug)]
pub enum MeasurementsIoError {
    /// The text being decoded was malformed.
    Malformed {
        /// Description of the problem.
        detail: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The decoded data violated model invariants.
    Model(ModelError),
}

impl std::fmt::Display for MeasurementsIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasurementsIoError::Malformed { detail } => {
                write!(f, "malformed measurements file: {detail}")
            }
            MeasurementsIoError::Io(e) => write!(f, "measurements i/o failed: {e}"),
            MeasurementsIoError::Model(e) => write!(f, "invalid measurements data: {e}"),
        }
    }
}

impl std::error::Error for MeasurementsIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeasurementsIoError::Io(e) => Some(e),
            MeasurementsIoError::Model(e) => Some(e),
            MeasurementsIoError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for MeasurementsIoError {
    fn from(e: std::io::Error) -> Self {
        MeasurementsIoError::Io(e)
    }
}

impl From<ModelError> for MeasurementsIoError {
    fn from(e: ModelError) -> Self {
        MeasurementsIoError::Model(e)
    }
}

fn malformed(detail: impl Into<String>) -> MeasurementsIoError {
    MeasurementsIoError::Malformed {
        detail: detail.into(),
    }
}

/// Writes `measurements` in the text format.
///
/// # Errors
///
/// Propagates I/O failures of `writer`.
pub(crate) fn write<W: Write>(
    measurements: &Measurements,
    mut writer: W,
) -> Result<(), MeasurementsIoError> {
    writeln!(writer, "{HEADER}")?;
    writeln!(writer, "processors {}", measurements.processors())?;
    let labels: Vec<&str> = measurements
        .activities()
        .iter()
        .map(|k| k.label())
        .collect();
    writeln!(writer, "activities {}", labels.join(" "))?;
    for r in measurements.region_ids() {
        writeln!(
            writer,
            "region {} {}",
            r.index(),
            measurements.region_info(r).name()
        )?;
    }
    for r in measurements.region_ids() {
        for kind in measurements.activities().iter() {
            let slice = measurements
                .processor_slice(r, kind)
                .expect("kind is in the activity set");
            if slice.iter().any(|&v| v > 0.0) {
                let values: Vec<String> = slice.iter().map(|v| v.to_string()).collect();
                writeln!(
                    writer,
                    "cell {} {} {}",
                    r.index(),
                    kind.label(),
                    values.join(" ")
                )?;
            }
        }
    }
    Ok(())
}

/// Encodes `measurements` to a `String`.
pub fn to_string(measurements: &Measurements) -> String {
    let mut buf = Vec::new();
    write(measurements, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("codec emits utf-8")
}

/// Reads measurements in the text format.
///
/// # Errors
///
/// Returns [`MeasurementsIoError::Malformed`] on syntax errors, model
/// errors for invalid values, and propagates I/O failures.
pub(crate) fn read<R: Read>(reader: R) -> Result<Measurements, MeasurementsIoError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().ok_or_else(|| malformed("empty input"))??;
    if header.trim() != HEADER {
        return Err(malformed(format!("bad header {header:?}")));
    }
    let processors: usize = lines
        .next()
        .ok_or_else(|| malformed("missing processors line"))??
        .strip_prefix("processors ")
        .ok_or_else(|| malformed("expected `processors N`"))?
        .trim()
        .parse()
        .map_err(|e| malformed(format!("bad processor count: {e}")))?;
    let activities_line = lines
        .next()
        .ok_or_else(|| malformed("missing activities line"))??;
    let labels = activities_line
        .strip_prefix("activities ")
        .ok_or_else(|| malformed("expected `activities …`"))?;
    let kinds: Vec<ActivityKind> = labels
        .split_whitespace()
        .map(|l| {
            ActivityKind::parse_label(l).ok_or_else(|| malformed(format!("unknown activity {l:?}")))
        })
        .collect::<Result<_, _>>()?;
    let mut builder = MeasurementsBuilder::with_activities(processors, ActivitySet::new(kinds));

    for line in lines {
        let line = line?;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("region ") {
            let (idx, name) = rest
                .split_once(' ')
                .ok_or_else(|| malformed(format!("bad region line {line:?}")))?;
            let idx: usize = idx
                .parse()
                .map_err(|e| malformed(format!("bad region index: {e}")))?;
            if idx != builder.regions() {
                return Err(malformed(format!(
                    "region indices must be dense, got {idx}"
                )));
            }
            builder.add_region(name);
        } else if let Some(rest) = line.strip_prefix("cell ") {
            let mut parts = rest.split_whitespace();
            let region: usize = parts
                .next()
                .ok_or_else(|| malformed("cell missing region"))?
                .parse()
                .map_err(|e| malformed(format!("bad cell region: {e}")))?;
            let label = parts
                .next()
                .ok_or_else(|| malformed("cell missing activity"))?;
            let kind = ActivityKind::parse_label(label)
                .ok_or_else(|| malformed(format!("unknown activity {label:?}")))?;
            let values: Vec<f64> = parts
                .map(|v| {
                    v.parse()
                        .map_err(|e| malformed(format!("bad cell value: {e}")))
                })
                .collect::<Result<_, _>>()?;
            if values.len() != processors {
                return Err(malformed(format!(
                    "cell has {} values for {processors} processors",
                    values.len()
                )));
            }
            for (p, v) in values.into_iter().enumerate() {
                builder.set(RegionId::new(region), kind, p, v)?;
            }
        } else {
            return Err(malformed(format!("unrecognized line {line:?}")));
        }
    }
    Ok(builder.build()?)
}

/// Decodes measurements from a string in the text format.
///
/// # Errors
///
/// Returns [`MeasurementsIoError::Malformed`] on syntax errors and model
/// errors for invalid values.
pub fn from_str(s: &str) -> Result<Measurements, MeasurementsIoError> {
    read(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProcessorId;

    fn sample() -> Measurements {
        let mut b = MeasurementsBuilder::new(3);
        let r0 = b.add_region("solver loop");
        let r1 = b.add_region("halo exchange");
        b.record(r0, ActivityKind::Computation, 0, 1.5).unwrap();
        b.record(r0, ActivityKind::Computation, 2, 2.25).unwrap();
        b.record(r1, ActivityKind::PointToPoint, 1, 0.125).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_matrix() {
        let m = sample();
        let text = to_string(&m);
        let back = from_str(&text).unwrap();
        assert_eq!(m, back);
        assert!(text.contains("solver loop"));
    }

    #[test]
    fn zero_cells_are_omitted_from_the_encoding() {
        let text = to_string(&sample());
        // Only two cells carry time.
        assert_eq!(
            text.matches("\ncell ").count() + usize::from(text.starts_with("cell ")),
            2
        );
    }

    #[test]
    fn paper_matrix_round_trips_exactly() {
        // Exercise a full-sized, high-precision matrix.
        let mut b = MeasurementsBuilder::new(4);
        let r = b.add_region("precise");
        for p in 0..4 {
            b.record(r, ActivityKind::Synchronization, p, 0.1 + p as f64 * 1e-13)
                .unwrap();
        }
        let m = b.build().unwrap();
        let back = from_str(&to_string(&m)).unwrap();
        for p in 0..4 {
            assert_eq!(
                m.time(r, ActivityKind::Synchronization, ProcessorId::new(p)),
                back.time(r, ActivityKind::Synchronization, ProcessorId::new(p)),
                "shortest-round-trip float formatting must be lossless"
            );
        }
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(from_str("").is_err());
        assert!(from_str("wrong\n").is_err());
        assert!(from_str("limba-measurements v1\nnope\n").is_err());
        assert!(from_str("limba-measurements v1\nprocessors 1\nactivities warp\n").is_err());
        let ok_prefix = "limba-measurements v1\nprocessors 2\nactivities computation\nregion 0 r\n";
        assert!(from_str(&format!("{ok_prefix}cell 0 computation 1.0\n")).is_err()); // wrong arity
        assert!(from_str(&format!("{ok_prefix}cell 0 io 1.0 2.0\n")).is_err()); // kind not in set
        assert!(from_str(&format!("{ok_prefix}cell 0 computation 1.0 -2.0\n")).is_err()); // negative
        assert!(from_str(&format!("{ok_prefix}region 5 x\n")).is_err()); // sparse index
        assert!(from_str(&format!("{ok_prefix}mystery\n")).is_err());
        // Comments and blanks are fine.
        assert!(from_str(&format!(
            "{ok_prefix}\n# comment\ncell 0 computation 1.0 2.0\n"
        ))
        .is_ok());
    }
}
