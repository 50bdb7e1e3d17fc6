//! Renderings of load-imbalance analyses.
//!
//! * [`table`] — aligned text tables (the paper's Tables 1–4);
//! * [`pattern`] — ASCII pattern diagrams (Figures 1 and 2);
//! * [`report`] — a full text report from an
//!   [`Report`](limba_analysis::Report);
//! * [`advice`] — the ranked "recommended interventions" section from
//!   an advisor run;
//! * [`svg`] — standalone SVG renderings of pattern grids and Lorenz
//!   curves;
//! * [`stdout`] — the writer every rendering reaches standard output
//!   through, where a closed pipe is a quiet end.
//!
//! # Example
//!
//! ```
//! use limba_viz::table::TextTable;
//!
//! let mut t = TextTable::new(vec!["loop".into(), "seconds".into()]);
//! t.row(vec!["loop 1".into(), "19.051".into()]);
//! let rendered = t.render();
//! assert!(rendered.contains("loop 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advice;
pub mod csv;
pub mod pattern;
pub mod report;
pub mod stdout;
pub mod svg;
pub mod table;
pub mod timeline;
