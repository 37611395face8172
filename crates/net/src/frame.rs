//! The versioned, length-prefixed wire frame layer.
//!
//! Everything ComDML peers exchange travels as a **frame**:
//!
//! ```text
//! ┌──────────────┬───────────────┬─────────────────┐
//! │ u32 LE len   │ u16 LE kind   │ body (len-2 B)  │
//! └──────────────┴───────────────┴─────────────────┘
//! ```
//!
//! The `kind` names the message type ([`crate::Message`] assigns them);
//! the body layout is owned by the typed codec above this layer. Keeping
//! the kind *in the frame header* rather than the body is what makes the
//! protocol forward-compatible: a peer can measure and skip a frame whose
//! kind it does not know without understanding a single body byte — see
//! [`crate::FramedStream::recv`], which warns and skips instead of
//! erroring, so coordinator and workers from adjacent builds interoperate.
//!
//! Peers agree on a protocol revision with a [`PROTOCOL_VERSION`]
//! handshake (both sides send their version as the first frame and adopt
//! the minimum — [`crate::FramedStream::handshake`]). The version gates
//! *semantics*; unknown-kind skipping covers pure message-set additions,
//! which is the common case between adjacent builds.

use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

/// The protocol revision this build speaks.
///
/// History:
/// * **1** — first versioned format (u16 frame kinds, version handshake,
///   skip-unknown forward compatibility; adds the sweep-farm
///   request/response kinds).
/// * **2** — farm telemetry: `WorkerMetrics` / `StatusDetail` kinds and
///   the counters appended to `StatusReport` (older peers decode them as
///   zero — trailing bytes are ignored — and skip the new kinds).
pub const PROTOCOL_VERSION: u16 = 2;

/// Maximum accepted frame size (a full ResNet-110 model is ~7 MB; leave
/// generous headroom).
pub(crate) const MAX_FRAME: usize = 256 * 1024 * 1024;

/// Errors produced by the wire protocol.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket failure.
    Io(std::io::Error),
    /// The peer sent a frame that does not decode.
    BadFrame(String),
    /// A frame exceeded the sanity limit (corrupted length prefix).
    FrameTooLarge(usize),
    /// The protocol state machine received an unexpected message.
    Unexpected {
        /// What the caller was waiting for.
        expected: &'static str,
        /// What actually arrived.
        got: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::BadFrame(why) => write!(f, "undecodable frame: {why}"),
            NetError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            NetError::Unexpected { expected, got } => {
                write!(f, "expected {expected}, got {got}")
            }
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// One raw frame off the wire: the kind tag plus the undecoded body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Message-kind tag (see [`crate::Message`] for assigned values).
    pub kind: u16,
    /// Body bytes; layout owned by the typed codec.
    pub body: Vec<u8>,
}

/// Body bytes [`read_frame`] reads per step, so the buffer grows with the
/// bytes that actually arrive, not with what the length prefix claims.
const READ_CHUNK: usize = 64 * 1024;

/// Writes one frame: `u32 LE (2 + body.len())`, `u16 LE kind`, body.
///
/// The frame goes out in a single write, so a socket with Nagle's
/// algorithm on never holds a frame's tail back for the peer's delayed ACK.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_frame(w: &mut impl Write, kind: u16, body: &[u8]) -> Result<(), NetError> {
    let mut frame = Vec::with_capacity(6 + body.len());
    frame.extend_from_slice(&((2 + body.len()) as u32).to_le_bytes());
    frame.extend_from_slice(&kind.to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame (any kind — the caller decides whether it understands
/// it). The body is read in 64 KiB steps, so a length prefix that
/// lies costs at most one chunk beyond the bytes really sent.
///
/// # Errors
///
/// Returns [`NetError::Io`] on socket failure (a body cut short included),
/// [`NetError::FrameTooLarge`] on a corrupt length prefix, or
/// [`NetError::BadFrame`] if the frame is too short to carry a kind tag.
pub fn read_frame(r: &mut impl Read) -> Result<RawFrame, NetError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(NetError::FrameTooLarge(len));
    }
    if len < 2 {
        return Err(NetError::BadFrame(format!("frame of {len} bytes cannot carry a kind tag")));
    }
    let mut kind_bytes = [0u8; 2];
    r.read_exact(&mut kind_bytes)?;
    let want = len - 2;
    let mut body = Vec::new();
    while body.len() < want {
        let start = body.len();
        body.resize(start + (want - start).min(READ_CHUNK), 0);
        r.read_exact(&mut body[start..])?;
    }
    Ok(RawFrame { kind: u16::from_le_bytes(kind_bytes), body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, &[1, 2, 3]).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame, RawFrame { kind: 7, body: vec![1, 2, 3] });
    }

    #[test]
    fn empty_body_is_legal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 42, &[]).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame, RawFrame { kind: 42, body: vec![] });
    }

    /// A writer that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for body in [&[][..], &[1, 2, 3], &[7; 3 * READ_CHUNK]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, 9, body).unwrap();
            assert_eq!(w.writes, 1, "a {}-byte body took {} writes", body.len(), w.writes);
            let frame = read_frame(&mut w.bytes.as_slice()).unwrap();
            assert_eq!(frame, RawFrame { kind: 9, body: body.to_vec() });
        }
    }

    #[test]
    fn a_length_bomb_errors_at_end_of_input() {
        let mut raw = (MAX_FRAME as u32).to_le_bytes().to_vec();
        raw.extend_from_slice(&[5, 0, 1, 2, 3]);
        assert!(matches!(read_frame(&mut raw.as_slice()), Err(NetError::Io(_))));
    }

    #[test]
    fn short_or_oversized_length_prefixes_error() {
        // len=1 cannot carry the u16 kind.
        let raw = [1u8, 0, 0, 0, 9];
        assert!(matches!(read_frame(&mut raw.as_slice()), Err(NetError::BadFrame(_))));
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(matches!(read_frame(&mut huge.as_slice()), Err(NetError::FrameTooLarge(_))));
    }
}
