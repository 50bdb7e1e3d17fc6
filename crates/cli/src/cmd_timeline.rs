//! `limba timeline`: render a tracefile as an SVG timeline.

use std::fs;

use crate::args::{parse, Flags};

/// The flags `timeline` accepts.
const FLAGS: Flags = Flags {
    command: "timeline",
    options: &[&["out", "width"]],
    switches: &[],
};

/// Runs `limba timeline <tracefile> [--out PATH] [--width PX]`.
pub(crate) fn run(argv: &[String]) -> Result<crate::CmdOutcome, String> {
    let parsed = parse(argv, &FLAGS)?;
    let path = parsed
        .positional
        .first()
        .ok_or("timeline needs a tracefile path")?;
    let out = parsed.get("out").unwrap_or("timeline.svg");
    let width: usize = parsed.get_or("width", 1200)?;

    // The one command that needs the whole trace.
    let mut whole = limba_trace::MaterializeSink::new();
    crate::tracefile::read_trace(path, "auto", &mut whole, None)?;
    let trace = whole
        .into_trace()
        .ok_or_else(|| "trace read did not complete".to_string())?;
    let svg = limba_viz::timeline::timeline_svg(&trace, width).map_err(|e| e.to_string())?;
    fs::write(out, svg).map_err(|e| e.to_string())?;
    outln!("timeline written to {out}");
    Ok(crate::CmdOutcome::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_simulated_trace() {
        use limba_mpisim::{MachineConfig, Simulator};
        use limba_workloads::cfd::CfdConfig;
        let program = CfdConfig::new(4).build_program().unwrap();
        let out = Simulator::new(MachineConfig::new(4)).run(&program).unwrap();
        let dir = std::env::temp_dir();
        let trace_path = dir.join("limba-timeline-test.trace");
        limba_trace::binary::write(&out.trace, std::fs::File::create(&trace_path).unwrap())
            .unwrap();
        let svg_path = dir.join("limba-timeline-test.svg");
        run(&[
            trace_path.to_str().unwrap().to_string(),
            "--out".to_string(),
            svg_path.to_str().unwrap().to_string(),
        ])
        .unwrap();
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
        std::fs::remove_file(trace_path).ok();
        std::fs::remove_file(svg_path).ok();
    }

    #[test]
    fn missing_file_is_reported() {
        assert!(run(&["/nonexistent.trace".to_string()]).is_err());
    }
}
