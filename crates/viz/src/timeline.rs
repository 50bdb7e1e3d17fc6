//! Per-processor activity timelines (a miniature Jumpshot).
//!
//! The paper's related work visualizes executions as per-processor
//! timelines; this renderer produces that classic view from a limba
//! trace: one lane per processor, segments colored by activity, time on
//! the x axis.

use limba_model::ActivityKind;
use limba_trace::{Event, EventPayload, Trace, TraceError};

fn activity_color(kind: Option<ActivityKind>) -> &'static str {
    match kind {
        None => "#e8e8e8", // outside all regions
        Some(ActivityKind::Computation) => "#4daf4a",
        Some(ActivityKind::PointToPoint) => "#377eb8",
        Some(ActivityKind::Collective) => "#ff7f00",
        Some(ActivityKind::Synchronization) => "#e41a1c",
        Some(ActivityKind::Io) => "#984ea3",
        Some(ActivityKind::MemoryAccess) => "#a65628",
    }
}

/// One colored segment of a processor's lane.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Segment {
    start: f64,
    end: f64,
    kind: Option<ActivityKind>,
}

/// Extracts the activity segments of one processor from its
/// time-ordered events: inside regions, time between explicit
/// activities is computation; outside regions it is idle (`None`).
fn segments_of<'e>(events: impl IntoIterator<Item = &'e Event>) -> Vec<Segment> {
    let mut segments = Vec::new();
    let mut depth = 0usize;
    let mut mark = 0.0f64;
    let mut current: Option<(ActivityKind, f64)> = None;
    let mut push = |start: f64, end: f64, kind: Option<ActivityKind>| {
        if end > start {
            segments.push(Segment { start, end, kind });
        }
    };
    for e in events {
        match e.payload() {
            EventPayload::EnterRegion { .. } => {
                if depth == 0 {
                    push(mark, e.time, None);
                    mark = e.time;
                }
                depth += 1;
            }
            EventPayload::LeaveRegion { .. } => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    push(mark, e.time, Some(ActivityKind::Computation));
                    mark = e.time;
                }
            }
            EventPayload::BeginActivity { kind } => {
                push(mark, e.time, Some(ActivityKind::Computation));
                current = Some((kind, e.time));
                mark = e.time;
            }
            EventPayload::EndActivity { .. } => {
                if let Some((kind, start)) = current.take() {
                    push(start, e.time, Some(kind));
                    mark = e.time;
                }
            }
            _ => {}
        }
    }
    segments
}

/// Renders the trace as an SVG timeline: one lane per processor, colored
/// by activity (green computation, blue point-to-point, orange
/// collective, red synchronization, grey idle).
///
/// # Errors
///
/// Propagates validation errors for malformed traces and rejects traces
/// that span no time.
pub fn timeline_svg(trace: &Trace, width_px: usize) -> Result<String, TraceError> {
    trace.validate()?;
    let makespan = trace.events().iter().map(|e| e.time).fold(0.0f64, f64::max);
    if makespan <= 0.0 {
        return Err(TraceError::Malformed {
            detail: "trace spans no time, nothing to draw".into(),
        });
    }
    const LANE: usize = 16;
    const GAP: usize = 4;
    const LABEL: usize = 60;
    const TOP: usize = 40;
    let width_px = width_px.max(200);
    let procs = trace.processors();
    let height = TOP + procs * (LANE + GAP) + 10;
    let scale = (width_px - LABEL - 10) as f64 / makespan;
    let mut out = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width_px}\" height=\"{height}\" \
         font-family=\"sans-serif\" font-size=\"11\">\n"
    );
    out.push_str(&format!(
        "  <text x=\"{LABEL}\" y=\"16\" font-weight=\"bold\">timeline ({makespan:.4} s)</text>\n"
    ));
    // Legend.
    let legend = [
        ("comp", Some(ActivityKind::Computation)),
        ("p2p", Some(ActivityKind::PointToPoint)),
        ("coll", Some(ActivityKind::Collective)),
        ("sync", Some(ActivityKind::Synchronization)),
    ];
    for (i, (label, kind)) in legend.iter().enumerate() {
        let x = LABEL + i * 70;
        out.push_str(&format!(
            "  <rect x=\"{x}\" y=\"22\" width=\"10\" height=\"10\" fill=\"{}\"/>\n  \
             <text x=\"{}\" y=\"31\">{label}</text>\n",
            activity_color(*kind),
            x + 14
        ));
    }
    for (proc, events) in trace.rank_order().ranks() {
        let y = TOP + proc as usize * (LANE + GAP);
        out.push_str(&format!(
            "  <text x=\"4\" y=\"{}\">p{proc}</text>\n",
            y + LANE - 4
        ));
        for seg in segments_of(events.map(|(_, e)| e)) {
            let x = LABEL as f64 + seg.start * scale;
            let w = ((seg.end - seg.start) * scale).max(0.5);
            out.push_str(&format!(
                "  <rect x=\"{x:.1}\" y=\"{y}\" width=\"{w:.1}\" height=\"{LANE}\" fill=\"{}\"/>\n",
                activity_color(seg.kind)
            ));
        }
    }
    out.push_str("</svg>\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_trace::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        for p in 0..2 {
            b.push(Event::enter(0.0, p, r));
            b.push(Event::begin_activity(0.4, p, ActivityKind::Collective));
            b.push(Event::end_activity(0.6, p, ActivityKind::Collective));
            b.push(Event::leave(1.0, p, r));
        }
        b.build().unwrap()
    }

    #[test]
    fn renders_lanes_and_segments() {
        let svg = timeline_svg(&sample(), 800).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains(">p0<") && svg.contains(">p1<"));
        // Each proc: comp, coll, comp = 3 segments; plus 4 legend rects.
        assert_eq!(svg.matches("<rect").count(), 2 * 3 + 4);
        assert!(svg.contains(activity_color(Some(ActivityKind::Collective))));
    }

    #[test]
    fn segments_classify_gaps_correctly() {
        let segs = segments_of(&sample().events_by_processor(0));
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].kind, Some(ActivityKind::Computation));
        assert_eq!(segs[1].kind, Some(ActivityKind::Collective));
        assert_eq!(segs[2].kind, Some(ActivityKind::Computation));
        assert_eq!(segs[0].start, 0.0);
        assert_eq!(segs[2].end, 1.0);
    }

    #[test]
    fn rank_order_segments_match_per_processor_walk() {
        // Three ranks recorded round-robin and against time (ties keep
        // their order), each with idle gaps, nesting and an activity.
        let mut b = TraceBuilder::new(3);
        let outer = b.add_region("outer");
        let inner = b.add_region("inner");
        let per_rank: Vec<Vec<Event>> = (0..3u32)
            .map(|p| {
                let t0 = p as f64 * 0.5;
                vec![
                    Event::enter(t0, p, outer),
                    Event::enter(t0 + 1.0, p, inner),
                    Event::begin_activity(t0 + 1.0, p, ActivityKind::PointToPoint),
                    Event::end_activity(t0 + 2.0, p, ActivityKind::PointToPoint),
                    Event::leave(t0 + 2.5, p, inner),
                    Event::leave(t0 + 3.0, p, outer),
                ]
            })
            .collect();
        for step in [4, 5, 3, 1, 2, 0] {
            for events in &per_rank {
                b.push(events[step]);
            }
        }
        let trace = b.build().unwrap();
        trace.validate().unwrap();
        let order = trace.rank_order();
        for p in 0..3u32 {
            let indexed = segments_of(order.rank(p).map(|(_, e)| e));
            assert_eq!(indexed, segments_of(&trace.events_by_processor(p)));
            assert_eq!(indexed.len(), if p == 0 { 3 } else { 4 });
        }
    }

    #[test]
    fn idle_time_outside_regions_is_grey() {
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(1.0, 0, r)); // idle [0, 1)
        b.push(Event::leave(2.0, 0, r));
        let svg = timeline_svg(&b.build().unwrap(), 400).unwrap();
        assert!(svg.contains(activity_color(None)));
    }

    #[test]
    fn degenerate_traces_rejected() {
        let empty = TraceBuilder::new(1).build().unwrap();
        assert!(timeline_svg(&empty, 400).is_err());

        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 0, r)); // unbalanced
        assert!(timeline_svg(&b.build().unwrap(), 400).is_err());
    }
}
