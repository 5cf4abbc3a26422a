//! The length-prefixed CRC-framed byte codec shared by the durable log and
//! the wire protocol.
//!
//! [`log`](crate::log) proved this frame shape on disk
//! (its crash-truncation sweep and golden fixture pin it);
//! [`service::remote`](crate::service::remote) speaks the same shape over
//! TCP. One implementation serves both so the codecs cannot drift:
//!
//! ```text
//! frame := len: u32 LE | crc32: u32 LE | payload   (crc over the payload)
//! ```
//!
//! The module deals in **payload bytes only** — what a payload means (a
//! record frame, a wire request) belongs to the consumer. Three access
//! patterns are provided:
//!
//! * In-place encoding: [`begin_frame`] reserves the 8-byte prefix in a
//!   buffer, the caller appends the payload, [`end_frame`] backpatches the
//!   length and checksum — no payload copy.
//! * Random-access decoding over a complete byte slice ([`read_frame`],
//!   [`followed_by_valid_frame`]) — the replay-on-open shape, where the
//!   whole file is in memory and a torn tail must be distinguished from
//!   mid-file corruption.
//! * Incremental decoding over a byte *stream* ([`StreamDecoder`]) — the
//!   socket shape, where frames arrive in arbitrary read-sized chunks and
//!   a malformed prefix must surface as a typed error before its claimed
//!   length can drive an allocation.
//!
//! Every reader takes an explicit `max_len`: the log's frames are tens of
//! bytes ([`log`](crate::log) caps at 64 KiB), while a
//! vectored wire batch legitimately runs to megabytes. A length prefix
//! above the cap is rejected as garbage without trusting it.

use crate::error::TrustError;

/// Bytes of frame prefix (`len` + `crc32`).
pub const FRAME_OVERHEAD: usize = 8;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven — no external crates in this build
// ---------------------------------------------------------------------------

// Slicing-by-8: table 0 is the classic byte-at-a-time table; table `t`
// advances a byte's contribution `t` further positions through the
// polynomial, so eight table lookups retire eight input bytes with a
// single dependency-chain step per 8-byte word instead of eight.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Reserves a frame's 8-byte prefix in `out` and returns the frame's start
/// offset. Append the payload bytes, then call [`end_frame`] with the
/// returned offset to backpatch the length and checksum.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_OVERHEAD]);
    start
}

/// Backpatches the prefix of the frame started at `start`: everything
/// appended since [`begin_frame`] is the payload.
pub fn end_frame(out: &mut [u8], start: usize) {
    let payload_len = (out.len() - start - FRAME_OVERHEAD) as u32;
    let crc = crc32(&out[start + FRAME_OVERHEAD..]);
    out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Tracks frame boundaries in a pass-through byte stream **without**
/// copying or validating payloads — the hook the fault-injection transport
/// ([`service::fault`](crate::service::fault)) uses to drop, truncate, or
/// close a connection at exact frame edges, so every injected failure is a
/// well-defined wire event rather than an arbitrary byte cut. Feed it each
/// chunk you are about to forward; it reports the offsets within the chunk
/// at which frames complete. Callers must skip any non-framed preamble
/// (e.g. the connection banner) before scanning.
#[derive(Debug, Clone, Default)]
pub struct FrameScanner {
    /// Partially-collected length prefix of the frame being entered.
    header: [u8; 4],
    /// How many of the 4 length-prefix bytes have been seen.
    header_len: usize,
    /// Bytes (crc + payload) left in the current frame; 0 means we are at
    /// a boundary, collecting the next length prefix.
    remaining: usize,
}

impl FrameScanner {
    /// A scanner positioned at a frame boundary.
    pub fn new() -> Self {
        FrameScanner::default()
    }

    /// Consumes `chunk` and returns the (exclusive) offsets within it at
    /// which a frame ends — empty if no frame completes in this chunk.
    pub fn advance(&mut self, chunk: &[u8]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut i = 0;
        while i < chunk.len() {
            if self.remaining == 0 {
                let take = (4 - self.header_len).min(chunk.len() - i);
                self.header[self.header_len..self.header_len + take]
                    .copy_from_slice(&chunk[i..i + take]);
                self.header_len += take;
                i += take;
                if self.header_len == 4 {
                    // the crc word plus the payload are still to come
                    self.remaining = u32::from_le_bytes(self.header) as usize + 4;
                    self.header_len = 0;
                }
            } else {
                let take = self.remaining.min(chunk.len() - i);
                self.remaining -= take;
                i += take;
                if self.remaining == 0 {
                    ends.push(i);
                }
            }
        }
        ends
    }

    /// Whether the scanner sits exactly at a frame boundary (no frame in
    /// progress).
    pub fn at_boundary(&self) -> bool {
        self.remaining == 0 && self.header_len == 0
    }
}

// ---------------------------------------------------------------------------
// Random-access decoding (whole slice in memory)
// ---------------------------------------------------------------------------

/// One step of random-access frame reading.
pub enum RawFrame<'a> {
    /// A checksum-valid frame: its payload and the offset of the next one.
    Frame {
        /// The frame's payload bytes.
        payload: &'a [u8],
        /// Offset of the byte after this frame.
        next: usize,
    },
    /// Clean end of data (exactly at a frame boundary).
    End,
    /// Torn, oversized, or checksum-failing bytes at this offset.
    Invalid,
}

/// Reads the frame at `off` in `data`. A length prefix above `max_len` is
/// [`RawFrame::Invalid`] — garbage is rejected before its claimed length
/// can drive an allocation or hide the bytes behind it.
pub fn read_frame(data: &[u8], off: usize, max_len: u32) -> RawFrame<'_> {
    if off == data.len() {
        return RawFrame::End;
    }
    if data.len() - off < FRAME_OVERHEAD {
        return RawFrame::Invalid;
    }
    let len = u32::from_le_bytes(data[off..off + 4].try_into().expect("8 bytes checked"));
    if len > max_len || data.len() - off - FRAME_OVERHEAD < len as usize {
        return RawFrame::Invalid;
    }
    let crc = u32::from_le_bytes(data[off + 4..off + 8].try_into().expect("8 bytes checked"));
    let payload = &data[off + FRAME_OVERHEAD..off + FRAME_OVERHEAD + len as usize];
    if crc32(payload) != crc {
        return RawFrame::Invalid;
    }
    RawFrame::Frame { payload, next: off + FRAME_OVERHEAD + len as usize }
}

/// Whether a well-formed frame (checksum-valid **and** accepted by
/// `valid_payload`) exists anywhere after the invalid bytes at `off` — the
/// test that separates a torn tail (recoverable) from mid-stream corruption
/// (not). A torn append can only lose a *suffix*, so any valid frame past
/// the damage means corruption. The scan tries every alignment rather than
/// trusting the damaged frame's length prefix: a bit flip in the length
/// field itself must not hide the valid frames behind it (they would be
/// silently truncated otherwise).
pub fn followed_by_valid_frame(
    data: &[u8],
    off: usize,
    max_len: u32,
    mut valid_payload: impl FnMut(&[u8]) -> bool,
) -> bool {
    // a tear is at most one in-flight frame; more trailing data than the
    // largest legal frame cannot be a crash artifact (bounds the scan too)
    if data.len() - off > max_len as usize + FRAME_OVERHEAD {
        return true;
    }
    // a frame needs 8 prefix bytes + a non-empty payload
    (off + 1..data.len().saturating_sub(FRAME_OVERHEAD)).any(|cand| {
        matches!(read_frame(data, cand, max_len),
                 RawFrame::Frame { payload, .. } if valid_payload(payload))
    })
}

// ---------------------------------------------------------------------------
// Incremental decoding (byte stream)
// ---------------------------------------------------------------------------

/// An incremental frame decoder for byte streams (sockets): feed it chunks
/// of whatever size the transport delivers, pop complete payloads out.
/// Malformed input — an oversized length prefix, a checksum mismatch — is a
/// typed [`TrustError::Corrupt`], never a panic or a runaway allocation;
/// once an error is returned the decoder stays in the failed state (a byte
/// stream cannot be resynchronized after framing is lost).
#[derive(Debug)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` — compacted away once it outgrows the live
    /// bytes, so the buffer does not grow with the stream.
    start: usize,
    /// Total bytes consumed over the decoder's lifetime (error offsets).
    consumed: u64,
    max_len: u32,
    poisoned: bool,
}

impl StreamDecoder {
    /// A decoder rejecting frames whose payload exceeds `max_len` bytes.
    pub fn new(max_len: u32) -> Self {
        StreamDecoder { buf: Vec::new(), start: 0, consumed: 0, max_len, poisoned: false }
    }

    /// Appends a chunk of stream bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        if self.start > self.buf.len().saturating_sub(self.start) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete payload: `Ok(None)` means more bytes are
    /// needed, `Err` means the stream is no longer frame-aligned.
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, TrustError> {
        self.next_payload_with(<[u8]>::to_vec)
    }

    /// Zero-copy variant of [`Self::next_payload`]: the checksum-verified payload
    /// is handed to `f` **in place** in the stream buffer, and only `f`'s
    /// result leaves the call. Hot readers decode straight out of the
    /// buffer instead of paying a per-frame `Vec` copy.
    pub fn next_payload_with<T>(
        &mut self,
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<Option<T>, TrustError> {
        if self.poisoned {
            return Err(self.corrupt("wire frame after failure"));
        }
        let live = &self.buf[self.start..];
        if live.len() < FRAME_OVERHEAD {
            return Ok(None);
        }
        let len = u32::from_le_bytes(live[..4].try_into().expect("length checked"));
        if len > self.max_len {
            self.poisoned = true;
            return Err(self.corrupt("wire frame length"));
        }
        if live.len() - FRAME_OVERHEAD < len as usize {
            return Ok(None);
        }
        let crc = u32::from_le_bytes(live[4..8].try_into().expect("length checked"));
        let payload = &live[FRAME_OVERHEAD..FRAME_OVERHEAD + len as usize];
        if crc32(payload) != crc {
            self.poisoned = true;
            return Err(self.corrupt("wire frame checksum"));
        }
        let value = f(payload);
        self.start += FRAME_OVERHEAD + len as usize;
        self.consumed += (FRAME_OVERHEAD + len as usize) as u64;
        Ok(Some(value))
    }

    /// Bytes buffered but not yet consumed as complete frames — nonzero at
    /// end-of-stream means the peer died mid-frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    fn corrupt(&self, what: &'static str) -> TrustError {
        TrustError::Corrupt { what, offset: self.consumed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            let start = begin_frame(&mut out);
            out.extend_from_slice(p);
            end_frame(&mut out, start);
        }
        out
    }

    #[test]
    fn crc_matches_known_vector() {
        // the classic IEEE check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_random_access() {
        let data = framed(&[b"alpha", b"", b"gamma-longer-payload"]);
        let mut off = 0;
        let mut seen: Vec<Vec<u8>> = Vec::new();
        loop {
            match read_frame(&data, off, 1 << 10) {
                RawFrame::Frame { payload, next } => {
                    seen.push(payload.to_vec());
                    off = next;
                }
                RawFrame::End => break,
                RawFrame::Invalid => panic!("clean data must replay"),
            }
        }
        assert_eq!(seen, vec![b"alpha".to_vec(), b"".to_vec(), b"gamma-longer-payload".to_vec()]);
    }

    #[test]
    fn oversized_length_is_invalid_not_allocated() {
        let mut data = framed(&[b"ok"]);
        // a frame claiming u32::MAX bytes
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.extend_from_slice(&[0u8; 4]);
        match read_frame(&data, 10, 1 << 10) {
            RawFrame::Invalid => {}
            _ => panic!("oversized length must be invalid"),
        }
    }

    #[test]
    fn torn_tail_vs_mid_stream_corruption() {
        let data = framed(&[b"first", b"second"]);
        let cut = data.len() - 3; // tear inside the last frame
        assert!(matches!(read_frame(&data[..cut], 13, 1 << 10), RawFrame::Invalid));
        assert!(!followed_by_valid_frame(&data[..cut], 13, 1 << 10, |_| true), "torn tail");
        // damage the *first* frame: the intact second frame proves corruption
        let mut bad = data.clone();
        bad[9] ^= 0x40;
        assert!(matches!(read_frame(&bad, 0, 1 << 10), RawFrame::Invalid));
        assert!(followed_by_valid_frame(&bad, 0, 1 << 10, |_| true), "mid-stream corruption");
    }

    #[test]
    fn stream_decoder_reassembles_byte_dribble() {
        let data = framed(&[b"alpha", b"beta"]);
        let mut dec = StreamDecoder::new(1 << 10);
        let mut seen = Vec::new();
        for b in &data {
            dec.extend(&[*b]);
            while let Some(p) = dec.next_payload().unwrap() {
                seen.push(p);
            }
        }
        assert_eq!(seen, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn stream_decoder_types_bad_length_and_checksum() {
        let mut dec = StreamDecoder::new(16);
        dec.extend(&1024u32.to_le_bytes());
        dec.extend(&[0u8; 4]);
        let err = dec.next_payload().unwrap_err();
        assert!(matches!(err, TrustError::Corrupt { what: "wire frame length", .. }));
        // poisoned: stays failed even if more (valid-looking) bytes arrive
        dec.extend(&framed(&[b"x"]));
        assert!(dec.next_payload().is_err());

        let mut dec = StreamDecoder::new(1 << 10);
        let mut data = framed(&[b"payload"]);
        data[9] ^= 0x01;
        dec.extend(&data);
        let err = dec.next_payload().unwrap_err();
        assert!(matches!(err, TrustError::Corrupt { what: "wire frame checksum", .. }));
    }

    #[test]
    fn stream_decoder_compacts_its_buffer() {
        let mut dec = StreamDecoder::new(1 << 10);
        let frame = framed(&[&[7u8; 100]]);
        for _ in 0..1000 {
            dec.extend(&frame);
            assert_eq!(dec.next_payload().unwrap().unwrap(), vec![7u8; 100]);
        }
        assert!(dec.buf.len() < 4 * frame.len(), "buffer must not grow with the stream");
    }

    #[test]
    fn error_offsets_count_consumed_frames() {
        let mut dec = StreamDecoder::new(1 << 10);
        let good = framed(&[b"abc"]);
        dec.extend(&good);
        dec.next_payload().unwrap().unwrap();
        let mut bad = framed(&[b"def"]);
        bad[9] ^= 0x80;
        dec.extend(&bad);
        match dec.next_payload().unwrap_err() {
            TrustError::Corrupt { offset, .. } => assert_eq!(offset, good.len() as u64),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn frame_scanner_finds_boundaries_at_any_chunking() {
        let mut stream = Vec::new();
        let mut expected = Vec::new();
        for payload in [&b"alpha"[..], b"", b"a longer third payload"] {
            let start = begin_frame(&mut stream);
            stream.extend_from_slice(payload);
            end_frame(&mut stream, start);
            expected.push(stream.len());
        }
        // whole stream at once
        let mut scanner = FrameScanner::new();
        assert_eq!(scanner.advance(&stream), expected);
        assert!(scanner.at_boundary());
        // byte-at-a-time: the same boundaries, independent of chunking
        let mut scanner = FrameScanner::new();
        let mut ends = Vec::new();
        for (i, b) in stream.iter().enumerate() {
            for end in scanner.advance(std::slice::from_ref(b)) {
                ends.push(i + end);
            }
        }
        assert_eq!(ends, expected);
        // mid-frame the scanner reports not-at-boundary
        let mut scanner = FrameScanner::new();
        assert!(scanner.advance(&stream[..6]).is_empty());
        assert!(!scanner.at_boundary());
    }
}
