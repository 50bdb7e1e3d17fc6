//! Reading a tracefile: the one way every command reads one.

use std::fs;
use std::io::Read;

use limba_par::Fnv;
use limba_trace::{MaterializeSink, StreamDecoder, Trace, TraceError, TraceSink};

/// Bytes per read: only one chunk of the tracefile is ever resident.
const CHUNK: usize = 64 * 1024;

/// Every binary container version starts with this; text does not.
const BINARY_MAGIC: &[u8] = b"LIMBATRC";

/// Reads the tracefile at `path` (stdin for `-`) into `sink` in 64 KiB
/// chunks: binary containers through [`StreamDecoder`], text through
/// [`limba_trace::text::feed`]. `format` is `auto`, `binary` or `text`.
/// Every byte read is folded into `content`, if given.
///
/// The folds walk each rank in recording order, the batch reductions
/// in time order. When a fold refuses a rank's events (a backwards
/// clock, or nesting that does not balance as recorded) and the input
/// is a file, the file is read again whole and returned, so the batch
/// reduction answers as it always has: an out-of-order file keeps its
/// report, a malformed one its error. `Ok(None)`: `sink` took it all.
pub(crate) fn read_trace(
    path: &str,
    format: &str,
    sink: &mut dyn TraceSink,
    mut content: Option<&mut Fnv>,
) -> Result<Option<Trace>, String> {
    match feed(path, format, sink, content.as_deref_mut())? {
        Ok(()) => Ok(None),
        Err(
            TraceError::NonMonotoneTime { .. }
            | TraceError::UnbalancedNesting { .. }
            | TraceError::MalformedEvent { .. },
        ) if path != "-" => {
            if let Some(fnv) = content.as_deref_mut() {
                *fnv = Fnv::new();
            }
            let mut whole = MaterializeSink::new();
            feed(path, format, &mut whole, content)?.map_err(|e| e.to_string())?;
            Ok(whole.into_trace())
        }
        Err(e) => Err(e.to_string()),
    }
}

/// [`read_trace`] through one fold: its result by `done`, or — for a
/// file the fold refused — the batch reduction's by `batch`.
pub(crate) fn fold_trace<S: TraceSink, T>(
    path: &str,
    format: &str,
    mut fold: S,
    content: Option<&mut Fnv>,
    done: impl FnOnce(S) -> Option<T>,
    batch: impl FnOnce(&Trace) -> Result<T, TraceError>,
) -> Result<T, String> {
    match read_trace(path, format, &mut fold, content)? {
        None => done(fold).ok_or_else(|| "stream fold did not complete".to_string()),
        Some(trace) => batch(&trace).map_err(|e| e.to_string()),
    }
}

/// [`read_trace`]'s one pass: the outer error is the input's (it could
/// not be opened or read), the inner one its bytes'.
fn feed(
    path: &str,
    format: &str,
    sink: &mut dyn TraceSink,
    content: Option<&mut Fnv>,
) -> Result<Result<(), TraceError>, String> {
    if !matches!(format, "auto" | "binary" | "text") {
        return Err(format!("unknown trace format {format:?}"));
    }
    let (input, name): (Box<dyn Read>, &str) = if path == "-" {
        (Box::new(std::io::stdin().lock()), "stdin")
    } else {
        let file = fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        (Box::new(file), path)
    };
    let mut input = Tapped { input, content };
    let cannot_read = |e: std::io::Error| format!("cannot read {name}: {e}");
    // Sniff the format from the first bytes, then hand them on.
    let mut head = Vec::new();
    (&mut input)
        .take(BINARY_MAGIC.len() as u64)
        .read_to_end(&mut head)
        .map_err(cannot_read)?;
    let binary = match format {
        "auto" => head.starts_with(BINARY_MAGIC),
        other => other == "binary",
    };
    if !binary {
        return Ok(limba_trace::text::feed(head.chain(input), sink));
    }
    let mut decoder = StreamDecoder::new();
    let mut buf = vec![0u8; CHUNK];
    let mut chunk = &head[..];
    while !chunk.is_empty() {
        if let Err(e) = decoder.feed(chunk, sink) {
            return Ok(Err(e));
        }
        let n = input.read(&mut buf).map_err(cannot_read)?;
        chunk = &buf[..n];
    }
    Ok(decoder.finish(sink))
}

/// The input, folding every byte read into the content hash, if any.
struct Tapped<'a> {
    input: Box<dyn Read>,
    content: Option<&'a mut Fnv>,
}

impl Read for Tapped<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.input.read(buf)?;
        if let Some(fnv) = self.content.as_deref_mut() {
            fnv.update(&buf[..n]);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limba_trace::{Event, TraceBuilder};

    #[test]
    fn content_hash_covers_every_byte_once() {
        // A backwards clock: the strict fold refuses it and the file is
        // read again whole; either way the hash covers each byte once.
        let mut b = TraceBuilder::new(1);
        let r = b.add_region("r");
        b.push(Event::enter(1.0, 0, r));
        b.push(Event::leave(0.5, 0, r));
        let bytes = limba_trace::stream::to_stream_bytes(&b.build().unwrap(), 1).unwrap();
        let path = std::env::temp_dir().join("limba-content-hash.trc");
        fs::write(&path, &bytes).unwrap();
        let path = path.to_str().unwrap();
        let mut strict = limba_trace::ReduceSink::new(limba_model::ActivitySet::standard());
        for (sink, refused) in [
            (&mut strict as &mut dyn TraceSink, true),
            (&mut limba_trace::ScanSink::new(), false),
        ] {
            let mut fnv = Fnv::new();
            let whole = read_trace(path, "auto", sink, Some(&mut fnv)).unwrap();
            assert_eq!(whole.is_some(), refused);
            assert_eq!(fnv.digest(), limba_par::fnv1a(&bytes));
        }
        fs::remove_file(path).ok();
    }
}
