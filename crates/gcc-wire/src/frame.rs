//! The transport layer: length-prefixed, versioned frames over any
//! byte stream, and the typed errors of the wire.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! ┌────────────┬─────────┬──────┬──────────────────┐
//! │ len: u32 LE│ version │ kind │ payload          │
//! │            │   u8    │  u8  │ (len - 2 bytes)  │
//! └────────────┴─────────┴──────┴──────────────────┘
//! ```
//!
//! `len` counts everything after itself (version byte + kind byte +
//! payload), so a reader always knows how many bytes to consume before
//! the next frame starts. That makes every malformed-frame condition
//! recoverable without closing the connection: a bad version or unknown
//! kind is detected *after* the declared bytes were consumed, and an
//! oversized declaration is drained in bounded chunks — either way the
//! reader is positioned at the next frame boundary and the peer gets a
//! typed error instead of a dropped connection. The only unrecoverable
//! shape is a length prefix truncated mid-read (the boundary itself is
//! gone).
//!
//! Versioning rule: the version byte is per-frame, not per-connection. A
//! reader accepts exactly [`WIRE_VERSION`]; anything else is rejected
//! with [`WireError::BadVersion`] after resync, so a future v2 peer
//! talking to a v1 server gets a typed error per frame rather than a
//! desynced stream.

use std::io::{self, Read, Write};

use gcc_scene::codec;

use crate::proto::WireRejection;

/// The wire protocol version this build speaks.
///
/// History: v1 was the original protocol; v2 extended the `Stats`
/// response payload with the adaptive-quality (LOD) counter section; v3
/// retired schedule tag 0 (`reference`, a second name for `standard`).
pub const WIRE_VERSION: u8 = 3;

/// Hard ceiling on a frame's declared length (version + kind + payload).
/// Generous enough for a 4K float frame, small enough that a hostile
/// length prefix cannot force an unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Errors of the wire layer, both transport-level (framing, I/O) and
/// service-level ([`WireError::Rejected`] carries the peer's typed
/// rejection).
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket failure.
    Io(io::Error),
    /// The peer spoke a different protocol version. The frame was
    /// consumed; the connection remains usable.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The frame declared a length beyond [`MAX_FRAME_LEN`]. The
    /// declared bytes were drained; the connection remains usable.
    Oversized {
        /// The declared length.
        len: u32,
        /// The ceiling it exceeded.
        max: u32,
    },
    /// The frame or its payload did not parse (unknown kind, truncated
    /// payload, trailing bytes, out-of-range tag).
    Malformed(String),
    /// The peer answered with a typed service rejection.
    Rejected(WireRejection),
    /// The peer violated the request/response protocol (unexpected
    /// response kind, or a `ProtocolError` response it sent us).
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wire i/o error: {e}"),
            Self::BadVersion { got } => {
                write!(
                    f,
                    "unsupported wire version {got} (this build speaks {WIRE_VERSION})"
                )
            }
            Self::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte ceiling")
            }
            Self::Malformed(m) => write!(f, "malformed wire frame: {m}"),
            Self::Rejected(r) => write!(f, "request rejected: {r}"),
            Self::Protocol(m) => write!(f, "wire protocol violation: {m}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// What one read attempt at a frame boundary observed.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame: its kind byte and payload.
    Frame {
        /// The kind byte (request/response discriminant).
        kind: u8,
        /// The payload bytes after version and kind.
        payload: Vec<u8>,
    },
    /// The peer closed the connection cleanly at a frame boundary.
    Eof,
    /// A read timeout expired with no bytes received — the connection is
    /// idle at a frame boundary. Only observed on sockets with a read
    /// timeout; callers poll their stop conditions on it.
    Idle,
}

/// Writes one frame. The caller flushes (frames are usually written
/// through a `BufWriter`, one flush per request/response turn).
///
/// # Errors
///
/// [`WireError::Oversized`] when the payload would exceed
/// [`MAX_FRAME_LEN`]; writer failures otherwise.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<(), WireError> {
    let len = payload.len() as u64 + 2;
    if len > u64::from(MAX_FRAME_LEN) {
        return Err(WireError::Oversized {
            len: len.min(u64::from(u32::MAX)) as u32,
            max: MAX_FRAME_LEN,
        });
    }
    codec::write_u32(w, len as u32)?;
    codec::write_u8(w, WIRE_VERSION)?;
    codec::write_u8(w, kind)?;
    w.write_all(payload)?;
    Ok(())
}

/// Fills `buf` from `r`, retrying interrupted and timed-out reads (a
/// timeout mid-frame means the rest of the frame is still in flight, not
/// that the peer is gone — giving up there would desync the stream).
/// `at_boundary` marks the read that starts a frame: there, and only
/// before its first byte arrives, a clean close and a timeout are not
/// failures but [`FrameEvent::Eof`] and [`FrameEvent::Idle`].
fn fill<R: Read>(r: &mut R, buf: &mut [u8], at_boundary: bool) -> io::Result<Option<FrameEvent>> {
    let mut filled = 0;
    while filled < buf.len() {
        let nothing_yet = at_boundary && filled == 0;
        match r.read(&mut buf[filled..]) {
            Ok(0) if nothing_yet => return Ok(Some(FrameEvent::Eof)),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                if nothing_yet {
                    return Ok(Some(FrameEvent::Idle));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Reads one frame (or observes EOF / idleness) at a frame boundary.
///
/// Resync guarantee: on [`WireError::BadVersion`], [`WireError::Oversized`]
/// and unknown-kind [`WireError::Malformed`] errors the declared frame
/// bytes have been fully consumed, so the reader sits at the next frame
/// boundary and the caller may keep the connection. [`WireError::Io`]
/// and truncation errors are fatal to the connection.
///
/// # Errors
///
/// As described above.
pub fn read_event<R: Read>(r: &mut R) -> Result<FrameEvent, WireError> {
    let mut prefix = [0u8; 4];
    match fill(r, &mut prefix, true) {
        Ok(None) => {}
        Ok(Some(event)) => return Ok(event),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            return Err(WireError::Malformed(
                "connection closed inside a length prefix".into(),
            ))
        }
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(prefix);
    if len < 2 {
        return Err(WireError::Malformed(format!(
            "frame length {len} below the 2-byte version+kind minimum"
        )));
    }
    if len > MAX_FRAME_LEN {
        // Drain the declared bytes in bounded chunks so the stream
        // resyncs at the next boundary without a matching allocation.
        let mut remaining = u64::from(len);
        let mut chunk = [0u8; 64 << 10];
        while remaining > 0 {
            let take = remaining.min(chunk.len() as u64) as usize;
            fill(r, &mut chunk[..take], false).map_err(|e| {
                WireError::Malformed(format!("oversized frame truncated while draining: {e}"))
            })?;
            remaining -= take as u64;
        }
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut body = vec![0u8; len as usize];
    fill(r, &mut body, false).map_err(|e| WireError::Malformed(format!("frame truncated: {e}")))?;
    let version = body[0];
    let kind = body[1];
    body.drain(..2);
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion { got: version });
    }
    Ok(FrameEvent::Frame {
        kind,
        payload: body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x42, b"payload").unwrap();
        write_frame(&mut buf, 0x01, b"").unwrap();
        let mut r = buf.as_slice();
        match read_event(&mut r).unwrap() {
            FrameEvent::Frame { kind, payload } => {
                assert_eq!(kind, 0x42);
                assert_eq!(payload, b"payload");
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        match read_event(&mut r).unwrap() {
            FrameEvent::Frame { kind, payload } => {
                assert_eq!(kind, 0x01);
                assert!(payload.is_empty());
            }
            other => panic!("expected a frame, got {other:?}"),
        }
        assert!(matches!(read_event(&mut r).unwrap(), FrameEvent::Eof));
    }

    #[test]
    fn layout_is_pinned() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x05, &[0xAA, 0xBB]).unwrap();
        // len = 4 (2 payload + version + kind), then version, kind, payload.
        assert_eq!(buf, vec![4, 0, 0, 0, WIRE_VERSION, 0x05, 0xAA, 0xBB]);
    }

    #[test]
    fn bad_version_is_typed_and_resyncs() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x05, b"xy").unwrap();
        buf[4] = 99; // corrupt the version byte
        write_frame(&mut buf, 0x07, b"ok").unwrap();
        let mut r = buf.as_slice();
        assert!(matches!(
            read_event(&mut r),
            Err(WireError::BadVersion { got: 99 })
        ));
        // The stream resynced: the next frame reads cleanly.
        match read_event(&mut r).unwrap() {
            FrameEvent::Frame { kind, payload } => {
                assert_eq!(kind, 0x07);
                assert_eq!(payload, b"ok");
            }
            other => panic!("expected the follow-up frame, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frames_drain_and_resync() {
        let mut buf = Vec::new();
        let huge = MAX_FRAME_LEN + 8;
        buf.extend_from_slice(&huge.to_le_bytes());
        buf.extend(std::iter::repeat_n(0u8, huge as usize));
        write_frame(&mut buf, 0x03, b"after").unwrap();
        let mut r = buf.as_slice();
        match read_event(&mut r) {
            Err(WireError::Oversized { len, max }) => {
                assert_eq!(len, huge);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert!(matches!(
            read_event(&mut r).unwrap(),
            FrameEvent::Frame { kind: 0x03, .. }
        ));
    }

    #[test]
    fn truncated_prefix_and_body_are_fatal_malformed() {
        // EOF inside the length prefix.
        let mut r = &[0x10u8, 0x00][..];
        assert!(matches!(read_event(&mut r), Err(WireError::Malformed(_))));
        // EOF inside the declared body.
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x02, b"full payload").unwrap();
        buf.truncate(buf.len() - 3);
        let mut r = buf.as_slice();
        assert!(matches!(read_event(&mut r), Err(WireError::Malformed(_))));
        // A declared length below version+kind.
        let mut r = &[0x01u8, 0, 0, 0, 0x01][..];
        assert!(matches!(read_event(&mut r), Err(WireError::Malformed(_))));
    }
}
