//! The one writer every command's standard output goes through.
//!
//! A reader that goes away early (`limba paper | head -1`) is not an
//! error: the rest of the output is dropped, the command finishes, and
//! its exit status and stderr are what they would have been. Any other
//! write failure is reported when the command ends.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Set once stdout's reader has closed the pipe.
static CLOSED: AtomicBool = AtomicBool::new(false);

/// The first write failure other than a closed pipe.
static FAILED: OnceLock<io::Error> = OnceLock::new();

/// Standard output, as every command writes it. A write to a closed
/// pipe succeeds and is dropped; any other failure is returned, to a
/// caller that can stop early (a streamed trace), and kept for
/// [`finish`].
pub(crate) struct Stdout;

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        settle(|stdout| stdout.write_all(buf)).map(|()| buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        settle(|stdout| stdout.flush())
    }
}

/// Runs `op` on stdout unless its reader is gone, and records how it
/// ended.
fn settle(op: impl FnOnce(&mut io::Stdout) -> io::Result<()>) -> io::Result<()> {
    let copy = |e: &io::Error| io::Error::new(e.kind(), e.to_string());
    if CLOSED.load(Ordering::Relaxed) {
        return Ok(());
    }
    if let Some(e) = FAILED.get() {
        return Err(copy(e));
    }
    match op(&mut io::stdout()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
            CLOSED.store(true, Ordering::Relaxed);
            Ok(())
        }
        Err(e) => Err(copy(FAILED.get_or_init(|| e))),
        Ok(()) => Ok(()),
    }
}

/// Flushes stdout; the error of a write that failed for any reason but
/// a closed pipe.
pub(crate) fn finish() -> Result<(), String> {
    let _ = settle(|stdout| stdout.flush());
    match FAILED.get() {
        Some(e) => Err(format!("cannot write to stdout: {e}")),
        None => Ok(()),
    }
}

/// `print!` through [`Stdout`]; a failure is left to [`finish`].
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = $crate::out::Stdout.write_fmt(format_args!($($arg)*));
    }};
}

/// `println!` through [`Stdout`]; a failure is left to [`finish`].
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}
