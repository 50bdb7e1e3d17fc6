//! Compact binary codec for traces.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8 bytes  "LIMBATRC"
//! version  u16      2
//! procs    u32
//! nregions u32
//! regions  nregions × (u32 length, utf-8 bytes)
//! nevents  u64
//! events   nevents × (f64 time, u32 proc, u8 op, operands)
//! checksum u64      FNV-1a of every preceding byte (version 2 only)
//! ```
//!
//! Operands by op code: `0` enter / `1` leave → `u32` region; `2` begin /
//! `3` end → `u8` activity index; `4` send / `5` recv → `u32` peer +
//! `u64` bytes.
//!
//! Version 2 appends an FNV-1a content checksum so silent corruption
//! (bit rot, torn copies) surfaces as
//! [`TraceError::ChecksumMismatch`] instead of a confusing structural
//! error — or worse, a plausible-but-wrong trace. Version 1 files,
//! which carry no checksum, remain readable.
//!
//! There is one decoder: [`from_bytes`] verifies a version-2 file's
//! checksum over the whole buffer, then replays every version (1, 2,
//! and the streamed 3) through [`StreamDecoder`](crate::StreamDecoder)
//! into a [`MaterializeSink`]. The hostile-input bounds — count fields
//! checked before anything is allocated, so a corrupted header claiming
//! four billion events is rejected rather than attempted — are the
//! decoder's, documented once in [`crate::stream`].

use std::io::{Read, Write};

use bytes::{BufMut, Bytes, BytesMut};
use limba_par::fnv1a;

use crate::stream::{decode_all, put_event, MaterializeSink, MAGIC};
use crate::{Trace, TraceError};

const VERSION: u16 = 2;

/// Encodes `trace` into a byte buffer.
pub fn to_bytes(trace: &Trace) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + trace.events().len() * 24);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(trace.processors() as u32);
    buf.put_u32_le(trace.region_names().len() as u32);
    for name in trace.region_names() {
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name.as_bytes());
    }
    buf.put_u64_le(trace.events().len() as u64);
    for e in trace.events() {
        put_event(&mut buf, e);
    }
    let checksum = fnv1a(buf.as_ref());
    buf.put_u64_le(checksum);
    buf.freeze()
}

/// Writes the binary encoding of `trace` to `writer`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write<W: Write>(trace: &Trace, mut writer: W) -> Result<(), TraceError> {
    writer.write_all(&to_bytes(trace))?;
    Ok(())
}

/// Decodes a trace from a byte slice.
///
/// Reads the current version (2, with trailing content checksum),
/// legacy version-1 files (no checksum), and streamed version-3 files.
///
/// # Errors
///
/// Returns [`TraceError::ChecksumMismatch`] when a version-2 payload
/// does not hash to its recorded checksum — checked before any of its
/// structure is trusted — and otherwise the decoder's named errors:
/// [`TraceError::Malformed`] for bad magic, version, truncation, count
/// fields over their caps, or invalid activity indices, and
/// [`TraceError::UnknownProcessor`] / [`TraceError::UnknownRegion`] for
/// records naming a processor or region the header never declared. The
/// decoded trace is not otherwise validated.
pub fn from_bytes(buf: &[u8]) -> Result<Trace, TraceError> {
    if buf.len() >= 18 && buf.starts_with(MAGIC) && buf[8..10] == VERSION.to_le_bytes() {
        // Verify the whole payload before trusting any of its structure.
        if let Some((body, tail)) = buf.split_last_chunk() {
            let expected = u64::from_le_bytes(*tail);
            let actual = fnv1a(body);
            if expected != actual {
                return Err(TraceError::ChecksumMismatch { expected, actual });
            }
        }
    }
    let mut sink = MaterializeSink::new();
    decode_all(buf, &mut sink)?;
    sink.into_trace().ok_or_else(|| TraceError::Malformed {
        detail: "stream ended before finish".into(),
    })
}

/// Reads a binary trace from `reader` (consumes to end of stream).
///
/// # Errors
///
/// Same conditions as [`from_bytes`], plus I/O failures.
pub fn read<R: Read>(mut reader: R) -> Result<Trace, TraceError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    from_bytes(&data)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::panic)]

    use super::*;
    use crate::stream::{try_event, MAX_PROCESSORS};
    use crate::{Event, EventPayload, TraceBuilder};
    use limba_model::ActivityKind;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(3);
        let r0 = b.add_region("solver");
        let r1 = b.add_region("exchange");
        b.push(Event::enter(0.0, 0, r0));
        b.push(Event::begin_activity(0.5, 0, ActivityKind::Synchronization));
        b.push(Event::end_activity(0.75, 0, ActivityKind::Synchronization));
        b.push(Event::leave(1.0, 0, r0));
        b.push(Event::enter(0.0, 2, r1));
        b.push(Event::message_send(0.25, 2, 1, u64::MAX));
        b.push(Event::message_recv(0.5, 2, 1, 0));
        b.push(Event::leave(1.0, 2, r1));
        b.build()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
    }

    /// Timestamps off the wire must be finite: NaN and ±inf are
    /// structurally invalid, not values for downstream folds to cope
    /// with.
    #[test]
    fn non_finite_timestamps_are_rejected() {
        for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut buf = BytesMut::with_capacity(24);
            put_event(
                &mut buf,
                &Event {
                    time,
                    proc: 0,
                    payload: EventPayload::EnterRegion { region: 0 },
                },
            );
            let err = try_event(buf.as_ref()).unwrap_err();
            assert!(err.to_string().contains("non-finite"), "{err}");
        }
    }

    #[test]
    fn read_write_through_io() {
        let t = sample();
        let mut buf = Vec::new();
        write(&t, &mut buf).unwrap();
        let back = read(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} was accepted"
            );
        }
    }

    #[test]
    fn bad_magic_version_op_are_rejected() {
        let mut bytes = to_bytes(&sample()).to_vec();
        bytes[0] = b'X';
        assert!(from_bytes(&bytes).is_err());

        let mut bytes = to_bytes(&sample()).to_vec();
        bytes[8] = 99; // version
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&sample()).to_vec();
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err());
    }

    /// Rewrites current-version bytes as a version-1 file: version field
    /// patched to 1, trailing checksum stripped.
    fn as_v1(bytes: &[u8]) -> Vec<u8> {
        let mut v1 = bytes[..bytes.len() - 8].to_vec();
        v1[8..10].copy_from_slice(&1u16.to_le_bytes());
        v1
    }

    #[test]
    fn version_1_files_without_checksum_still_decode() {
        let t = sample();
        let v1 = as_v1(&to_bytes(&t));
        assert_eq!(from_bytes(&v1).unwrap(), t);
    }

    #[test]
    fn corrupted_payload_is_a_checksum_mismatch() {
        let bytes = to_bytes(&sample()).to_vec();
        // Flip one bit in every payload byte (skip magic and version,
        // which fail earlier with their own errors): each flip must be
        // caught, and as a checksum error, not a lucky structural one.
        for i in 10..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            match from_bytes(&corrupt) {
                Err(TraceError::ChecksumMismatch { expected, actual }) => {
                    assert_ne!(expected, actual, "byte {i}")
                }
                other => panic!("flip at byte {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn version_1_bit_flips_are_detected_or_decode_structurally() {
        // Without a checksum the best v1 can do is structural rejection;
        // this locks in that no flip panics or over-allocates.
        let v1 = as_v1(&to_bytes(&sample()));
        for i in 0..v1.len() {
            let mut corrupt = v1.clone();
            corrupt[i] ^= 0x01;
            let _ = from_bytes(&corrupt);
        }
    }

    #[test]
    fn hostile_count_fields_are_rejected_without_allocation() {
        // Processor count claiming u32::MAX: unlike regions and events,
        // no per-entry bytes exist to bound it against, so only the
        // explicit cap stands between the header and the multi-GB
        // per-processor tables downstream consumers allocate from it.
        let mut bytes = to_bytes(&TraceBuilder::new(1).build()).to_vec();
        bytes[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        let v1 = as_v1(&bytes);
        match from_bytes(&v1) {
            Err(TraceError::Malformed { detail }) => {
                assert!(detail.contains("processor count"), "{detail}")
            }
            other => panic!("{other:?}"),
        }

        // The cap boundary itself: exactly MAX_PROCESSORS decodes.
        let mut bytes = to_bytes(&TraceBuilder::new(1).build()).to_vec();
        bytes[10..14].copy_from_slice(&(MAX_PROCESSORS as u32).to_le_bytes());
        assert!(from_bytes(&as_v1(&bytes)).is_ok());

        // Region count claiming u32::MAX entries in a near-empty file.
        let mut bytes = to_bytes(&TraceBuilder::new(1).build()).to_vec();
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        let v1 = as_v1(&bytes);
        match from_bytes(&v1) {
            Err(TraceError::Malformed { detail }) => {
                assert!(detail.contains("region count"), "{detail}")
            }
            other => panic!("{other:?}"),
        }

        // Event count claiming u64::MAX events.
        let mut bytes = to_bytes(&TraceBuilder::new(1).build()).to_vec();
        let nevents_at = bytes.len() - 8 - 8; // before checksum
        bytes[nevents_at..nevents_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let v1 = as_v1(&bytes);
        match from_bytes(&v1) {
            Err(TraceError::Malformed { detail }) => {
                assert!(detail.contains("event count"), "{detail}")
            }
            other => panic!("{other:?}"),
        }

        // A region name length larger than the rest of the file.
        let mut b = TraceBuilder::new(1);
        b.add_region("x");
        let mut bytes = to_bytes(&b.build()).to_vec();
        bytes[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
        let v1 = as_v1(&bytes);
        match from_bytes(&v1) {
            Err(TraceError::Malformed { detail }) => {
                assert!(detail.contains("region name"), "{detail}")
            }
            other => panic!("{other:?}"),
        }
    }

    /// The decoder checks every record against the header, so a
    /// checksum-valid file naming an undeclared processor or region
    /// fails at decode with the error `Trace::validate` would give.
    #[test]
    fn records_outside_the_header_fail_at_decode() {
        let mut b = TraceBuilder::new(2);
        let r = b.add_region("r");
        b.push(Event::enter(0.0, 5, r));
        match from_bytes(&to_bytes(&b.build())) {
            Err(TraceError::UnknownProcessor { proc: 5 }) => {}
            other => panic!("{other:?}"),
        }

        let mut b = TraceBuilder::new(2);
        b.add_region("r");
        b.push(Event::enter(0.0, 1, limba_model::RegionId::new(3)));
        let t = b.build();
        assert!(matches!(
            t.validate(),
            Err(TraceError::UnknownRegion { region: 3 })
        ));
        match from_bytes(&to_bytes(&t)) {
            Err(TraceError::UnknownRegion { region: 3 }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TraceBuilder::new(1).build();
        assert_eq!(from_bytes(&to_bytes(&t)).unwrap(), t);
    }

    #[test]
    fn binary_is_smaller_than_text_for_large_traces() {
        let mut b = TraceBuilder::new(4);
        let r = b.add_region("r");
        for i in 0..1000 {
            b.push(Event::enter(i as f64, (i % 4) as u32, r));
            b.push(Event::leave(i as f64 + 0.5, (i % 4) as u32, r));
        }
        let t = b.build();
        let bin = to_bytes(&t).len();
        let txt = crate::text::to_string(&t).len();
        assert!(bin < txt, "binary {bin} >= text {txt}");
    }
}
