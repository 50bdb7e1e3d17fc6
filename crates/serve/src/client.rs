//! The push/query client side of the serving protocol.
//!
//! A [`PushSession`] opens one TCP connection, performs the binary
//! handshake, and then streams a chunked-v3 trace — either an existing
//! tracefile ([`PushSession::push_file`]) or anything that drives a
//! [`TraceSink`] ([`PushSession::push_sink`]), which is how the CLI
//! streams a *live simulation* into the server without materializing
//! it. The handshake ack carries a **resume offset**: when the server
//! already spooled a prefix of this run (an earlier session
//! disconnected), the client skips that many bytes and the server
//! appends seamlessly. For a deterministic producer that makes
//! reconnect-and-resume byte-exact.
//!
//! [`query`] is the one-shot line protocol: send one request line,
//! read the response until the server closes.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};

use limba_trace::{TraceSink, WriteSink};

use crate::protocol::{
    self, read_ack, read_final, write_handshake, STATUS_OK, STATUS_REJECTED, STATUS_SALVAGED,
};
use crate::ServeError;

/// How a push ended, plus the report the server sent back.
#[derive(Debug, Clone, PartialEq)]
pub struct PushOutcome {
    /// Whether the run completed or was salvaged.
    pub status: PushStatus,
    /// The server's final payload: a full analysis report
    /// ([`PushStatus::Complete`]) or a salvage-grade partial report
    /// ([`PushStatus::Salvaged`]).
    pub report: String,
}

/// Terminal status of a push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushStatus {
    /// The end chunk arrived and verified; the report is final and
    /// byte-identical to the offline analysis of the same bytes.
    Complete,
    /// The stream ended early; the report covers the salvaged prefix
    /// and the run may be resumed by a later session.
    Salvaged,
}

/// One push connection after a successful handshake.
#[derive(Debug)]
pub struct PushSession {
    stream: TcpStream,
    offset: u64,
}

impl PushSession {
    /// Connects and performs the push handshake for `tenant`/`run`.
    ///
    /// Fails with [`ServeError::Rejected`] when admission control
    /// refuses the run (duplicate live session, completed run, tenant
    /// cap).
    pub fn connect<A: ToSocketAddrs>(addr: A, tenant: &str, run: &str) -> Result<Self, ServeError> {
        if !protocol::valid_name(tenant) || !protocol::valid_name(run) {
            return Err(ServeError::Protocol(
                "tenant and run names must be 1-64 chars of [A-Za-z0-9._-]".into(),
            ));
        }
        let mut stream = TcpStream::connect(addr)?;
        write_handshake(&mut stream, tenant, run)?;
        let ack = read_ack(&mut stream)?;
        if ack.status != STATUS_OK {
            return Err(ServeError::Rejected(ack.message));
        }
        Ok(PushSession {
            stream,
            offset: ack.offset,
        })
    }

    /// The resume offset the server requested (0 for a fresh run).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Streams an existing tracefile, skipping the resume offset, then
    /// half-closes and reads the server's verdict. A server whose fold
    /// failed answers before the upload ends and closes; that verdict
    /// is returned instead of the failed write.
    pub fn push_file(mut self, path: &std::path::Path) -> Result<PushOutcome, ServeError> {
        let mut inner = std::fs::File::open(path)?;
        let mut file = SkipReader {
            inner: &mut inner,
            remaining: self.offset,
        };
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            let n = match file.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            };
            if let Err(e) = self.stream.write_all(&buf[..n]) {
                return self.verdict(Err(e));
            }
        }
        self.finish()
    }

    /// Hands a [`TraceSink`] writing straight to the socket to
    /// `produce`, then half-closes and reads the server's verdict.
    ///
    /// The producer must drive the full sink protocol (`begin` →
    /// `events`* → `finish`); the simulator's streaming entry points
    /// do. On resume the first `offset` bytes the producer emits are
    /// discarded instead of sent — a deterministic producer therefore
    /// regenerates the exact suffix the server is missing.
    pub fn push_sink<F>(self, produce: F) -> Result<PushOutcome, ServeError>
    where
        F: FnOnce(&mut dyn TraceSink) -> Result<(), ServeError>,
    {
        {
            let writer = SkipWriter {
                inner: self.stream.try_clone()?,
                remaining: self.offset,
            };
            let mut sink = WriteSink::new(writer);
            produce(&mut sink)?;
        }
        self.finish()
    }

    fn finish(mut self) -> Result<PushOutcome, ServeError> {
        let sent = self
            .stream
            .flush()
            .and_then(|()| self.stream.shutdown(Shutdown::Write));
        self.verdict(sent)
    }

    /// Reads the server's verdict after an upload that ended with
    /// `sent`. The upload's error counts only when no verdict follows
    /// it: a server that already answered may have closed the
    /// connection under the client's last writes.
    fn verdict(mut self, sent: std::io::Result<()>) -> Result<PushOutcome, ServeError> {
        let fin = match read_final(&mut self.stream) {
            Ok(fin) => fin,
            Err(e) => return Err(sent.err().map_or(e, ServeError::from)),
        };
        let report = fin.body;
        match fin.status {
            STATUS_OK => Ok(PushOutcome {
                status: PushStatus::Complete,
                report,
            }),
            STATUS_SALVAGED => Ok(PushOutcome {
                status: PushStatus::Salvaged,
                report,
            }),
            STATUS_REJECTED => Err(ServeError::Rejected(report)),
            _ => Err(ServeError::State(report)),
        }
    }
}

/// Discards the first `remaining` bytes written, forwarding the rest.
/// Skipped bytes count as written, so upstream encoders never see a
/// short write.
struct SkipWriter<W: Write> {
    inner: W,
    remaining: u64,
}

impl<W: Write> Write for SkipWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.remaining == 0 {
            return self.inner.write(buf);
        }
        let skip = (self.remaining as usize).min(buf.len());
        self.remaining -= skip as u64;
        if skip < buf.len() {
            let sent = self.inner.write(&buf[skip..])?;
            Ok(skip + sent)
        } else {
            Ok(skip)
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Skips the first `remaining` bytes of the underlying reader.
struct SkipReader<'a, R: Read> {
    inner: &'a mut R,
    remaining: u64,
}

impl<R: Read> Read for SkipReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        while self.remaining > 0 {
            let mut scratch = [0u8; 4096];
            let want = (self.remaining as usize).min(scratch.len());
            let n = self.inner.read(&mut scratch[..want])?;
            if n == 0 {
                return Ok(0);
            }
            self.remaining -= n as u64;
        }
        self.inner.read(buf)
    }
}

/// Sends one query line and reads the full response.
pub fn query<A: ToSocketAddrs>(addr: A, line: &str) -> Result<String, ServeError> {
    if line.contains('\n') || line.is_empty() {
        return Err(ServeError::Protocol(
            "query must be one non-empty line".into(),
        ));
    }
    if line.as_bytes()[0] == protocol::MAGIC[0] {
        // The server dispatches on the first byte: the handshake magic
        // claims 'L', so no query verb may start with it.
        return Err(ServeError::Protocol(format!(
            "query may not start with {:?}",
            protocol::MAGIC[0] as char
        )));
    }
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    stream.shutdown(Shutdown::Write)?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    Ok(out)
}
