//! The wire protocol of the ingestion service.
//!
//! One TCP connection carries exactly one of two conversations, told
//! apart by the first byte the client sends:
//!
//! * **Push** — the byte is `L`, the first byte of the 8-byte magic
//!   `LIMBASRV`. A length-prefixed handshake names the protocol
//!   version, the tenant, and the run id; the server answers with an
//!   [`Ack`] carrying the *resume offset* (how many bytes of this run
//!   it has already persisted — `0` for a new run). The client then
//!   streams the raw chunked-v3 tracefile bytes **starting at that
//!   offset**, half-closes its write side, and reads one [`Final`]
//!   frame: the run's report (complete, or salvage-grade when the
//!   stream was truncated).
//! * **Query** — any other first byte starts a single `\n`-terminated
//!   text command line (`STATUS`, `TENANTS`, `RUNS <t>`,
//!   `REPORT <t> <r>`, `DIGEST <t> <r>`, `ALERTS <t> <r>`,
//!   `EVOLUTION <t> <r> <n>`, `SHUTDOWN`). The reply is plain text,
//!   delimited by the server closing the connection. No command starts
//!   with `L`, which is what makes the first-byte dispatch sound.
//!
//! All integers are little-endian, matching the trace container.

use std::io::{Read, Write};

use crate::ServeError;

/// Magic opening a push handshake.
pub(crate) const MAGIC: &[u8; 8] = b"LIMBASRV";
/// Protocol version this build speaks.
pub(crate) const VERSION: u16 = 1;
/// Handshake kind: push a trace stream.
pub(crate) const KIND_PUSH: u8 = 0;

/// Ack/Final status: accepted, or a complete run's report.
pub(crate) const STATUS_OK: u8 = 0;
/// Ack status: the handshake was rejected (message says why).
pub(crate) const STATUS_REJECTED: u8 = 1;
/// Final status: the stream was truncated; the body is a
/// salvage-grade partial report and the run stays resumable.
pub(crate) const STATUS_SALVAGED: u8 = 2;
/// Final status: ingestion failed (corrupt stream or internal error);
/// the body is the error message.
pub(crate) const STATUS_ERROR: u8 = 3;

/// Longest tenant or run name accepted.
pub(crate) const MAX_NAME: usize = 64;
/// Longest query line accepted.
pub(crate) const MAX_LINE: usize = 4096;
/// Largest final-frame body accepted by the client (reports are text;
/// anything near this is a protocol violation, not a report).
pub(crate) const MAX_FINAL: usize = 64 << 20;

/// `true` when `name` is a valid tenant or run id: 1–64 characters of
/// `[A-Za-z0-9._-]`. The charset keeps ids safe to embed in filesystem
/// paths (the spool layout is `<tenant>/<run>.spool`) and in the
/// space-separated query protocol.
pub(crate) fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

fn proto(detail: impl Into<String>) -> ServeError {
    ServeError::Protocol(detail.into())
}

fn read_exact(r: &mut dyn Read, buf: &mut [u8], what: &str) -> Result<(), ServeError> {
    r.read_exact(buf)
        .map_err(|e| proto(format!("connection ended while reading {what}: {e}")))
}

fn read_u16(r: &mut dyn Read, what: &str) -> Result<u16, ServeError> {
    let mut b = [0u8; 2];
    read_exact(r, &mut b, what)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32(r: &mut dyn Read, what: &str) -> Result<u32, ServeError> {
    let mut b = [0u8; 4];
    read_exact(r, &mut b, what)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut dyn Read, what: &str) -> Result<u64, ServeError> {
    let mut b = [0u8; 8];
    read_exact(r, &mut b, what)?;
    Ok(u64::from_le_bytes(b))
}

fn read_name(r: &mut dyn Read, what: &str) -> Result<String, ServeError> {
    let len = read_u16(r, what)? as usize;
    if len > MAX_NAME {
        return Err(proto(format!("{what} of {len} bytes exceeds {MAX_NAME}")));
    }
    let mut buf = vec![0u8; len];
    read_exact(r, &mut buf, what)?;
    let name = String::from_utf8(buf).map_err(|_| proto(format!("{what} is not utf-8")))?;
    if !valid_name(&name) {
        return Err(proto(format!(
            "invalid {what} {name:?}: 1-{MAX_NAME} characters of [A-Za-z0-9._-]"
        )));
    }
    Ok(name)
}

/// Writes the push handshake (client side).
///
/// # Errors
///
/// Invalid names and I/O failures.
pub(crate) fn write_handshake(
    w: &mut dyn Write,
    tenant: &str,
    run: &str,
) -> Result<(), ServeError> {
    for (what, name) in [("tenant", tenant), ("run", run)] {
        if !valid_name(name) {
            return Err(proto(format!(
                "invalid {what} {name:?}: 1-{MAX_NAME} characters of [A-Za-z0-9._-]"
            )));
        }
    }
    let mut buf = Vec::with_capacity(16 + tenant.len() + run.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(KIND_PUSH);
    for name in [tenant, run] {
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
    }
    w.write_all(&buf).map_err(ServeError::Io)?;
    w.flush().map_err(ServeError::Io)
}

/// Reads the push handshake after the first magic byte has already
/// been consumed by the first-byte dispatch (server side). Returns
/// `(tenant, run)`.
///
/// # Errors
///
/// Bad magic, unsupported version or kind, invalid names.
pub(crate) fn read_handshake_rest(r: &mut dyn Read) -> Result<(String, String), ServeError> {
    let mut magic = [0u8; 7];
    read_exact(r, &mut magic, "handshake magic")?;
    if magic != MAGIC[1..] {
        return Err(proto("bad handshake magic"));
    }
    let version = read_u16(r, "handshake version")?;
    if version != VERSION {
        return Err(proto(format!(
            "unsupported protocol version {version} (this build speaks {VERSION})"
        )));
    }
    let mut kind = [0u8; 1];
    read_exact(r, &mut kind, "handshake kind")?;
    if kind[0] != KIND_PUSH {
        return Err(proto(format!("unsupported handshake kind {}", kind[0])));
    }
    let tenant = read_name(r, "tenant name")?;
    let run = read_name(r, "run name")?;
    Ok((tenant, run))
}

/// The server's answer to a push handshake.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Ack {
    /// [`STATUS_OK`] or [`STATUS_REJECTED`].
    pub status: u8,
    /// Bytes of this run already persisted server-side; the client
    /// must start streaming at this offset.
    pub offset: u64,
    /// Human-readable detail (the rejection reason, or empty).
    pub message: String,
}

/// Writes an [`Ack`] (server side).
///
/// # Errors
///
/// I/O failures.
pub(crate) fn write_ack(w: &mut dyn Write, ack: &Ack) -> Result<(), ServeError> {
    let mut buf = Vec::with_capacity(13 + ack.message.len());
    buf.push(ack.status);
    buf.extend_from_slice(&ack.offset.to_le_bytes());
    buf.extend_from_slice(&(ack.message.len() as u32).to_le_bytes());
    buf.extend_from_slice(ack.message.as_bytes());
    w.write_all(&buf).map_err(ServeError::Io)?;
    w.flush().map_err(ServeError::Io)
}

/// Reads an [`Ack`] (client side).
///
/// # Errors
///
/// Truncated or malformed replies.
pub(crate) fn read_ack(r: &mut dyn Read) -> Result<Ack, ServeError> {
    let mut status = [0u8; 1];
    read_exact(r, &mut status, "ack status")?;
    let offset = read_u64(r, "ack offset")?;
    let len = read_u32(r, "ack message length")? as usize;
    if len > MAX_LINE {
        return Err(proto(format!("ack message of {len} bytes")));
    }
    let mut msg = vec![0u8; len];
    read_exact(r, &mut msg, "ack message")?;
    Ok(Ack {
        status: status[0],
        offset,
        message: String::from_utf8(msg).map_err(|_| proto("ack message is not utf-8"))?,
    })
}

/// The final frame closing a push session: the run's report or the
/// ingest error.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Final {
    /// [`STATUS_OK`], [`STATUS_SALVAGED`], or [`STATUS_ERROR`].
    pub status: u8,
    /// The rendered report (or the error message).
    pub body: String,
}

/// Writes a [`Final`] frame (server side).
///
/// # Errors
///
/// I/O failures.
pub(crate) fn write_final(w: &mut dyn Write, frame: &Final) -> Result<(), ServeError> {
    let mut buf = Vec::with_capacity(5 + frame.body.len());
    buf.push(frame.status);
    buf.extend_from_slice(&(frame.body.len() as u32).to_le_bytes());
    buf.extend_from_slice(frame.body.as_bytes());
    w.write_all(&buf).map_err(ServeError::Io)?;
    w.flush().map_err(ServeError::Io)
}

/// Reads a [`Final`] frame (client side).
///
/// # Errors
///
/// Truncated or oversized replies.
pub(crate) fn read_final(r: &mut dyn Read) -> Result<Final, ServeError> {
    let mut status = [0u8; 1];
    read_exact(r, &mut status, "final status")?;
    let len = read_u32(r, "final length")? as usize;
    if len > MAX_FINAL {
        return Err(proto(format!("final frame of {len} bytes")));
    }
    let mut body = vec![0u8; len];
    read_exact(r, &mut body, "final body")?;
    Ok(Final {
        status: status[0],
        body: String::from_utf8(body).map_err(|_| proto("final body is not utf-8"))?,
    })
}

/// Reads the rest of a query line whose first byte the dispatch
/// already consumed. Returns the whole trimmed command line.
///
/// # Errors
///
/// Lines over [`MAX_LINE`] bytes or ending before a newline.
pub(crate) fn read_line_rest(first: u8, r: &mut dyn Read) -> Result<String, ServeError> {
    let mut line = vec![first];
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(proto(format!("query line over {MAX_LINE} bytes")));
                }
            }
            Err(e) => return Err(ServeError::Io(e)),
        }
    }
    let line = String::from_utf8(line).map_err(|_| proto("query line is not utf-8"))?;
    Ok(line.trim().to_string())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn names_are_validated() {
        assert!(valid_name("tenant-1"));
        assert!(valid_name("a.b_c-D9"));
        assert!(!valid_name(""));
        assert!(!valid_name("has space"));
        assert!(!valid_name("sl/ash"));
        assert!(!valid_name(&"x".repeat(MAX_NAME + 1)));
    }

    #[test]
    fn handshake_round_trips() {
        let mut buf = Vec::new();
        write_handshake(&mut buf, "acme", "run-7").unwrap();
        let mut r = &buf[1..];
        let (tenant, run) = read_handshake_rest(&mut r).unwrap();
        assert_eq!((tenant.as_str(), run.as_str()), ("acme", "run-7"));
    }

    #[test]
    fn ack_and_final_round_trip() {
        let ack = Ack {
            status: STATUS_OK,
            offset: 12345,
            message: "resuming".into(),
        };
        let mut buf = Vec::new();
        write_ack(&mut buf, &ack).unwrap();
        assert_eq!(read_ack(&mut buf.as_slice()).unwrap(), ack);

        let fin = Final {
            status: STATUS_SALVAGED,
            body: "== report ==".into(),
        };
        let mut buf = Vec::new();
        write_final(&mut buf, &fin).unwrap();
        assert_eq!(read_final(&mut buf.as_slice()).unwrap(), fin);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut r: &[u8] = b"IMBAXRV\x01\x00\x00";
        assert!(read_handshake_rest(&mut r).is_err());
    }

    #[test]
    fn query_line_reads_to_newline() {
        let mut r: &[u8] = b"TATUS extra\nmore";
        let line = read_line_rest(b'S', &mut r).unwrap();
        assert_eq!(line, "STATUS extra");
    }
}
