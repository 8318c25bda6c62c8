//! Property tests for the frame codec (`mars_net::frame`).
//!
//! The codec guards every connection, so it gets the adversarial
//! treatment: arbitrary payload sizes (empty through past-64KiB),
//! arbitrary stream chunkings, truncation at every offset, and random
//! single-byte corruption. The invariant under attack is always the
//! same — a typed [`FrameError`], never a panic, never a wrong payload.

use mars_net::frame::{self, FrameError, HEADER_LEN, MAX_PAYLOAD};
use mars_rng::{props, Rng, RngCore};
use std::io::Cursor;

/// A payload with an adversarial size distribution: mostly small, but
/// regularly empty, exactly-one-chunk, and >64 KiB (multi-read) sizes.
fn arb_payload(rng: &mut mars_rng::rngs::StdRng) -> Vec<u8> {
    let len = match rng.gen_range(0..6u32) {
        0 => 0,
        1 => rng.gen_range(1..64),
        2 => rng.gen_range(64..4096),
        3 => 65_536,
        4 => rng.gen_range(65_537..(1 << 18)),
        _ => rng.gen_range(1..1024),
    };
    let mut p = vec![0u8; len];
    rng.fill_bytes(&mut p);
    p
}

props! {
    /// Every payload roundtrips bit-exactly through the blocking
    /// reader, whatever its size.
    fn roundtrip_read_frame(rng, 64) {
        let payload = arb_payload(rng);
        let frame = frame::encode(&payload).expect("encode");
        assert_eq!(frame.len(), HEADER_LEN + payload.len());
        let got = frame::read_frame(&mut Cursor::new(&frame))
            .expect("valid frame reads")
            .expect("one frame present");
        assert_eq!(got, payload);
    }

    /// The incremental decoder reassembles a multi-frame stream
    /// identically under every random chunking, with nothing left
    /// buffered at the end.
    fn roundtrip_decoder_any_chunking(rng, 48) {
        let payloads: Vec<Vec<u8>> =
            (0..rng.gen_range(1..5usize)).map(|_| arb_payload(rng)).collect();
        let stream: Vec<u8> = payloads
            .iter()
            .flat_map(|p| frame::encode(p).expect("encode"))
            .collect();
        let mut dec = frame::Decoder::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut at = 0;
        while at < stream.len() {
            let take = rng.gen_range(1..=(stream.len() - at).min(8192));
            dec.push(&stream[at..at + take]);
            at += take;
            while let Some(p) = dec.next_frame().expect("clean stream never errors") {
                got.push(p);
            }
        }
        assert_eq!(got, payloads);
        assert_eq!(dec.buffered(), 0, "no bytes may linger after the last frame");
    }

    /// A stream cut at any offset is a clean EOF (cut before byte one)
    /// or `Truncated` — never a panic, never a phantom payload.
    fn truncation_is_detected_at_every_offset(rng, 64) {
        let payload = arb_payload(rng);
        let frame = frame::encode(&payload).expect("encode");
        let cut = rng.gen_range(0..frame.len());
        match frame::read_frame(&mut Cursor::new(&frame[..cut])) {
            Ok(None) => assert_eq!(cut, 0, "EOF is only clean before the first byte"),
            Err(FrameError::Truncated) => assert!(cut > 0),
            other => panic!("cut at {cut}/{}: expected Truncated, got {other:?}", frame.len()),
        }
        // The incremental decoder must simply wait for more bytes:
        // a prefix of a valid frame is pending, not corrupt.
        let mut dec = frame::Decoder::new();
        dec.push(&frame[..cut]);
        assert!(dec.next_frame().expect("prefix is not corrupt").is_none());
    }

    /// Flipping any single bit of a frame yields a typed error from
    /// one of the reads — or, if the length field shrank, a short
    /// valid-looking read that still never reports the original
    /// payload as intact.
    fn single_bit_corruption_never_passes_silently(rng, 96) {
        let payload = arb_payload(rng);
        let mut frame = frame::encode(&payload).expect("encode");
        let at = rng.gen_range(0..frame.len());
        let bit = 1u8 << rng.gen_range(0..8u32);
        frame[at] ^= bit;
        let mut cur = Cursor::new(&frame);
        loop {
            match frame::read_frame(&mut cur) {
                Err(_) => break, // typed error: corruption caught
                Ok(None) => panic!("corrupt frame read as a clean empty stream"),
                Ok(Some(got)) => {
                    // Only reachable when the flipped bit grew/shrank the
                    // length field into another self-consistent frame; the
                    // payload must then differ from the original.
                    assert_ne!(
                        got, payload,
                        "flipped bit {bit:#04x} at byte {at} went undetected"
                    );
                    if got.len() >= payload.len() {
                        break; // consumed everything; detected via mismatch
                    }
                }
            }
        }
    }

    /// A length field pointing past the 64 MiB ceiling is rejected as
    /// `Oversized` before any allocation, by both decode paths.
    fn oversized_lengths_are_rejected_up_front(rng, 64) {
        let payload = arb_payload(rng);
        let mut frame = frame::encode(&payload).expect("encode");
        let bogus = rng.gen_range((MAX_PAYLOAD as u32 + 1)..=u32::MAX);
        frame[4..8].copy_from_slice(&bogus.to_le_bytes());
        match frame::read_frame(&mut Cursor::new(&frame)) {
            Err(FrameError::Oversized(len)) => assert_eq!(len, bogus),
            other => panic!("expected Oversized({bogus}), got {other:?}"),
        }
        let mut dec = frame::Decoder::new();
        dec.push(&frame);
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversized(len)) if len == bogus));
    }

    /// Garbage that does not start with the magic is `BadMagic` from
    /// both decode paths (framing errors are connection-fatal; there
    /// is no resync scan).
    fn garbage_magic_is_rejected(rng, 64) {
        let mut junk = vec![0u8; rng.gen_range(HEADER_LEN..256)];
        rng.fill_bytes(&mut junk);
        junk[0] = junk[0].wrapping_add(1) | 0x80; // guarantee magic mismatch
        assert!(matches!(
            frame::read_frame(&mut Cursor::new(&junk)),
            Err(FrameError::BadMagic(_))
        ));
        let mut dec = frame::Decoder::new();
        dec.push(&junk);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadMagic(_))));
    }
}
