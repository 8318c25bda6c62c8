//! Length-prefixed framing with an integrity checksum.
//!
//! Every message on a connection is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "MRN1"
//! 4       4     payload length, u32 little-endian (≤ 64 MiB)
//! 8       8     FNV-1a 64 checksum of the payload, u64 little-endian
//! 16      len   payload bytes (a mars-json document in practice)
//! ```
//!
//! The codec never panics on hostile input: truncated, oversized, and
//! corrupt frames all surface as a [`FrameError`]. A corrupt stream is
//! not resynchronized — framing errors are fatal to the connection.

use std::fmt;
use std::io::{Read, Write};

/// Frame magic: protocol family + version baked into every frame.
pub const MAGIC: [u8; 4] = *b"MRN1";

/// Fixed header size in bytes (magic + length + checksum).
pub const HEADER_LEN: usize = 16;

/// Hard ceiling on payload size (64 MiB). A length field beyond this
/// is rejected *before* any allocation, so a corrupt or malicious
/// length cannot make the decoder balloon.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The length field exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload checksum did not match the header.
    Checksum {
        /// Checksum stored in the header.
        expected: u64,
        /// Checksum of the payload actually received.
        got: u64,
    },
    /// The stream ended mid-frame.
    Truncated,
    /// Transport-level I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?} (expected \"MRN1\")"),
            FrameError::Oversized(len) => {
                write!(f, "frame payload length {len} exceeds the {MAX_PAYLOAD}-byte ceiling")
            }
            FrameError::Checksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: header says {expected:#018x}, payload is {got:#018x}"
                )
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// FNV-1a 64-bit checksum of `bytes` — cheap, dependency-free, and
/// plenty to catch truncation and bit rot (this is an integrity check,
/// not an authenticity one).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encode one frame (header + payload) into a fresh buffer.
pub fn encode(payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(FrameError::Oversized(payload.len() as u32));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Write one frame; returns the total bytes written (header included).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<usize, FrameError> {
    let frame = encode(payload)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Parse a header already known to be [`HEADER_LEN`] bytes; returns
/// the validated payload length and expected checksum.
fn parse_header(header: &[u8]) -> Result<(usize, u64), FrameError> {
    let magic: [u8; 4] = header[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice"));
    if len as usize > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let expected = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    Ok((len as usize, expected))
}

fn verify(payload: Vec<u8>, expected: u64) -> Result<Vec<u8>, FrameError> {
    let got = checksum(&payload);
    if got != expected {
        return Err(FrameError::Checksum { expected, got });
    }
    Ok(payload)
}

/// Blocking read of one frame. `Ok(None)` on a clean end-of-stream
/// (EOF before the first header byte); [`FrameError::Truncated`] when
/// the stream dies mid-frame.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let (len, expected) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    })?;
    verify(payload, expected).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_empty_payload() {
        let frame = encode(b"").expect("encode");
        assert_eq!(frame.len(), HEADER_LEN);
        let got = read_frame(&mut Cursor::new(frame)).expect("read").expect("frame");
        assert!(got.is_empty());
    }

    #[test]
    fn roundtrip_back_to_back_frames() {
        let mut stream = Vec::new();
        stream.extend(encode(b"alpha").expect("encode"));
        stream.extend(encode(b"").expect("encode"));
        stream.extend(encode(b"omega").expect("encode"));
        let mut cur = Cursor::new(stream);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"omega");
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF after the last frame");
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut frame = encode(b"x").expect("encode");
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut Cursor::new(frame)) {
            Err(FrameError::Oversized(len)) => assert_eq!(len, u32::MAX),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn encode_refuses_oversized_payloads() {
        let huge = vec![0u8; MAX_PAYLOAD + 1];
        assert!(matches!(encode(&huge), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut frame = encode(b"payload bytes").expect("encode");
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        assert!(matches!(read_frame(&mut Cursor::new(frame)), Err(FrameError::Checksum { .. })));
    }
}
