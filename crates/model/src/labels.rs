//! Metadata describing code regions.

use std::fmt;

/// What kind of source construct a code region corresponds to.
///
/// The paper analyzes "loops, routines, code statements"; the kind is
/// informational and does not affect any metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RegionKind {
    /// A loop nest (the paper's case study uses the 7 main loops).
    #[default]
    Loop,
    /// A routine / function.
    Routine,
    /// A statement block.
    Statement,
    /// The whole program.
    Program,
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RegionKind::Loop => "loop",
            RegionKind::Routine => "routine",
            RegionKind::Statement => "statement",
            RegionKind::Program => "program",
        };
        f.write_str(s)
    }
}

/// Position of a region in the program source.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SourceLocation {
    /// Source file path as recorded by the instrumenter.
    pub file: String,
    /// First line of the region.
    pub line: u32,
}

impl SourceLocation {
    /// Creates a source location.
    pub fn new(file: impl Into<String>, line: u32) -> Self {
        SourceLocation {
            file: file.into(),
            line,
        }
    }
}

impl fmt::Display for SourceLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// Descriptive metadata for one code region.
///
/// # Example
///
/// ```
/// use limba_model::{RegionInfo, RegionKind, SourceLocation};
/// let info = RegionInfo::new("flux update")
///     .with_kind(RegionKind::Loop)
///     .with_location(SourceLocation::new("solver.f90", 120));
/// assert_eq!(info.name(), "flux update");
/// assert_eq!(info.kind(), RegionKind::Loop);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegionInfo {
    name: String,
    kind: RegionKind,
    location: Option<SourceLocation>,
}

impl RegionInfo {
    /// Creates region metadata with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        RegionInfo {
            name: name.into(),
            kind: RegionKind::default(),
            location: None,
        }
    }

    /// Sets the region kind.
    pub fn with_kind(mut self, kind: RegionKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the source location.
    pub fn with_location(mut self, location: SourceLocation) -> Self {
        self.location = Some(location);
        self
    }

    /// Display name of the region.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Kind of source construct.
    pub fn kind(&self) -> RegionKind {
        self.kind
    }
}

impl fmt::Display for RegionInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.location {
            Some(loc) => write!(f, "{} ({} at {})", self.name, self.kind, loc),
            None => write!(f, "{} ({})", self.name, self.kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_construction() {
        let info = RegionInfo::new("main loop")
            .with_kind(RegionKind::Loop)
            .with_location(SourceLocation::new("a.c", 10));
        assert_eq!(info.name(), "main loop");
        assert!(info.to_string().contains("a.c:10"));
    }

    #[test]
    fn default_kind_is_loop() {
        assert_eq!(RegionInfo::new("x").kind(), RegionKind::Loop);
    }

    #[test]
    fn display_without_location() {
        let info = RegionInfo::new("init").with_kind(RegionKind::Routine);
        assert_eq!(info.to_string(), "init (routine)");
    }

    #[test]
    fn region_kind_display() {
        assert_eq!(RegionKind::Program.to_string(), "program");
        assert_eq!(RegionKind::Statement.to_string(), "statement");
    }
}
