//! Checksummed, length-prefixed frames over byte streams.
//!
//! The codec in [`codec`](crate::codec) encodes self-contained byte buffers;
//! this module moves such buffers across a stream transport (TCP, Unix
//! sockets, pipes) with enough structure that a reader can never misparse a
//! torn or corrupted write as a valid message:
//!
//! ```text
//! u8   tag       application-defined frame type
//! u32  length    payload byte count (little-endian)
//! ...  payload   `length` bytes
//! u64  checksum  FNV-1a of tag + length + payload (little-endian)
//! ```
//!
//! The checksum covers the header too, so a flipped tag or length byte is
//! detected just like payload corruption.
//!
//! The reader validates the length against a caller-supplied ceiling before
//! allocating (a corrupt length prefix cannot trigger a huge reservation)
//! and verifies the checksum before the payload is handed to the
//! application. Protocol versioning is an application concern: the shard
//! serving protocol, for instance, carries its version inside its handshake
//! frame.

use crate::codec::{fnv1a64, fnv1a64_continue};
use std::io::{self, Read, Write};

/// Error produced when reading a frame from a stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed (includes clean EOF mid-frame).
    Io(io::Error),
    /// The stream bytes do not form a valid frame (oversized length prefix,
    /// checksum mismatch).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Malformed(_) => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Assemble one frame (tag + length-prefixed payload + checksum) into a
/// standalone buffer. Pure serialization: no transport is involved, so no
/// failpoint fires here — inject on the *write* instead.
pub fn encode_frame(tag: u8, payload: &[u8]) -> io::Result<Vec<u8>> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    let mut buf = Vec::with_capacity(1 + 4 + payload.len() + 8);
    buf.push(tag);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    let checksum = fnv1a64(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    Ok(buf)
}

/// Write one frame (tag + length-prefixed payload + checksum) to `w`.
///
/// The frame is assembled in memory and written with a single `write_all`,
/// so concurrent writers that serialize at a higher level never interleave
/// partial frames.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, tag: u8, payload: &[u8]) -> io::Result<()> {
    let buf = encode_frame(tag, payload)?;
    write_assembled_frame(w, &buf)
}

/// Write pre-assembled frame bytes (as produced by [`encode_frame`]) to `w`
/// in one `write_all`. This is the transport boundary every outbound frame
/// crosses — including senders that encode once and fan the same buffer out
/// to many peers — so the `frame.write` failpoint lives here.
pub fn write_assembled_frame<W: Write + ?Sized>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    // Failpoint: mutate or abort the fully-assembled (already checksummed)
    // frame, so injected corruption is never a plausible frame with wrong
    // bytes. A corrupted tag, payload or checksum byte is a checksum
    // mismatch and a truncation a torn stream, but a corrupted length
    // prefix can leave the receiver waiting for bytes that never come:
    // that is caught only by its reply deadline, as a stall.
    match crate::failpoint::hit("frame.write") {
        None => {}
        Some(crate::failpoint::Fault::CorruptByte(i)) if !frame.is_empty() => {
            let mut corrupted = frame.to_vec();
            let index = i % corrupted.len();
            corrupted[index] ^= 0x40;
            w.write_all(&corrupted)?;
            return w.flush();
        }
        Some(crate::failpoint::Fault::TruncateAfter(n)) => {
            // A write torn mid-frame: the prefix reaches the peer, then the
            // connection dies from the writer's point of view.
            let cut = n.min(frame.len());
            w.write_all(&frame[..cut])?;
            let _ = w.flush();
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "failpoint frame.write: write truncated mid-frame",
            ));
        }
        Some(_) => {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "failpoint frame.write: injected write failure",
            ));
        }
    }
    w.write_all(frame)?;
    w.flush()
}

/// Read one frame from `r`, returning `(tag, payload)`.
///
/// `max_payload` bounds the length prefix the reader will honor; anything
/// larger is rejected as malformed without allocating. A checksum mismatch
/// is likewise rejected — the payload never reaches the caller.
pub fn read_frame<R: Read + ?Sized>(
    r: &mut R,
    max_payload: usize,
) -> Result<(u8, Vec<u8>), FrameError> {
    // Failpoint: fail or starve the read before any byte is consumed, so
    // an injected fault never leaves the stream mid-frame for a retry to
    // misparse.
    match crate::failpoint::hit("frame.read") {
        None => {}
        Some(crate::failpoint::Fault::CloseConn) => {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "failpoint frame.read: connection closed",
            )));
        }
        Some(_) => {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "failpoint frame.read: injected read failure",
            )));
        }
    }
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let tag = header[0];
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]) as usize;
    if len > max_payload {
        return Err(FrameError::Malformed(format!(
            "frame payload of {len} bytes exceeds the {max_payload}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut checksum = [0u8; 8];
    r.read_exact(&mut checksum)?;
    let stored = u64::from_le_bytes(checksum);
    let actual = fnv1a64_continue(fnv1a64(&header), &payload);
    // Failpoint: force the verification down the mismatch path — the exact
    // behavior a frame corrupted in transit produces (any configured
    // action behaves the same here; only the schedule matters).
    if crate::failpoint::hit("frame.checksum").is_some() {
        return Err(FrameError::Malformed(
            "failpoint frame.checksum: injected checksum mismatch".into(),
        ));
    }
    if stored != actual {
        return Err(FrameError::Malformed(format!(
            "frame checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    Ok((tag, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"first payload").unwrap();
        write_frame(&mut buf, 7, b"").unwrap();
        write_frame(&mut buf, 255, &[0u8; 1000]).unwrap();

        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, 4096).unwrap(),
            (1, b"first payload".to_vec())
        );
        assert_eq!(read_frame(&mut cursor, 4096).unwrap(), (7, Vec::new()));
        assert_eq!(
            read_frame(&mut cursor, 4096).unwrap(),
            (255, vec![0u8; 1000])
        );
        // EOF after the last frame surfaces as an Io error.
        assert!(matches!(
            read_frame(&mut cursor, 4096),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn truncation_at_every_boundary_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, b"truncate me somewhere").unwrap();
        for cut in 0..buf.len() {
            let mut cursor = Cursor::new(&buf[..cut]);
            assert!(
                matches!(read_frame(&mut cursor, 4096), Err(FrameError::Io(_))),
                "cut at {cut} must fail as Io"
            );
        }
    }

    #[test]
    fn corruption_anywhere_in_the_frame_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, b"payload under protection").unwrap();
        for flip in 0..buf.len() {
            let mut bad = buf.clone();
            bad[flip] ^= 0x01;
            let mut cursor = Cursor::new(bad);
            // The checksum covers tag + length + payload, so any flip is an
            // error: Malformed for tag/payload/checksum flips, Malformed or
            // Io for length flips (a larger length runs off the input).
            assert!(
                read_frame(&mut cursor, 4096).is_err(),
                "flipped byte {flip} must be detected"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut buf = vec![1u8];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, 1 << 20),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn error_display_and_source() {
        let e = FrameError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "gone"));
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
        let e = FrameError::Malformed("bad".into());
        assert!(e.to_string().contains("bad"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
