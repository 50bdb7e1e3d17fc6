//! The one writer standard output goes through — every `limba`
//! command's and every reproduction binary's — through [`out!`] and
//! [`outln!`].
//!
//! A reader that goes away early (`limba paper | head -1`) is not an
//! error: the rest of the output is dropped, the program finishes, and
//! its exit status and stderr are what they would have been. Any other
//! write failure is reported by [`finish`] when the program ends. A
//! producer that can stop early instead — a streamed trace — writes
//! through [`StreamStdout`], which returns the closed pipe as an error.
//!
//! [`out!`]: crate::out
//! [`outln!`]: crate::outln

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Set once stdout's reader has closed the pipe.
static CLOSED: AtomicBool = AtomicBool::new(false);

/// The first write failure other than a closed pipe.
static FAILED: OnceLock<io::Error> = OnceLock::new();

/// Standard output, as every program writes it. A write to a closed
/// pipe succeeds and is dropped; any other failure is returned and
/// kept for [`finish`].
pub struct Stdout;

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        settle(|stdout| stdout.write_all(buf)).map(|()| buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        settle(|stdout| stdout.flush())
    }
}

/// [`Stdout`] for a producer that stops when nobody reads on: a closed
/// pipe is a [`BrokenPipe`](io::ErrorKind::BrokenPipe) error, every
/// write after it too, and [`closed`] then says so.
pub struct StreamStdout;

impl Write for StreamStdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Stdout.write(buf).and_then(gone)
    }

    fn flush(&mut self) -> io::Result<()> {
        Stdout.flush().and_then(gone)
    }
}

/// `written` unless stdout's reader has closed the pipe.
fn gone<T>(written: T) -> io::Result<T> {
    if closed() {
        Err(io::ErrorKind::BrokenPipe.into())
    } else {
        Ok(written)
    }
}

/// Whether stdout's reader has closed the pipe.
pub fn closed() -> bool {
    CLOSED.load(Ordering::Relaxed)
}

/// Runs `op` on stdout unless its reader is gone, and records how it
/// ended.
fn settle(op: impl FnOnce(&mut io::Stdout) -> io::Result<()>) -> io::Result<()> {
    let copy = |e: &io::Error| io::Error::new(e.kind(), e.to_string());
    if closed() {
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
///
/// # Errors
///
/// `cannot write to stdout: …` with the first such failure.
pub fn finish() -> Result<(), String> {
    let _ = settle(|stdout| stdout.flush());
    match FAILED.get() {
        Some(e) => Err(format!("cannot write to stdout: {e}")),
        None => Ok(()),
    }
}

/// `print!` through [`Stdout`]; a failure is left to [`finish`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = $crate::stdout::Stdout.write_fmt(format_args!($($arg)*));
    }};
}

/// `println!` through [`Stdout`]; a failure is left to [`finish`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out!("\n")
    };
    ($($arg:tt)*) => {
        $crate::out!("{}\n", format_args!($($arg)*))
    };
}
