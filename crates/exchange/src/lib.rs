//! Partial-skyline exchange: length-prefixed frames and a metered
//! in-process channel between shard workers and the coordinator.
//!
//! The distributed SFS pipeline (Ciaccia & Martinenghi's *Optimization
//! Strategies for Parallel Computation of Skylines*) moves only two
//! kinds of payload across the wire: each shard's **local skyline**
//! (narrow entries — oriented keys plus a global row id) flowing up to
//! the coordinator, and a small set of **representatives** broadcast
//! down to every shard for pre-pruning. Both travel as self-describing
//! frames:
//!
//! ```text
//! magic  u32 | version u8 | kind u8 | shard u16 |
//! dims   u32 | payload_len u32 | checksum u64 | payload…
//! ```
//!
//! All integers are little-endian; `payload` is `payload_len` bytes of
//! back-to-back narrow entries (`8·(dims+1)` bytes each, the
//! `NarrowLayout` encoding from `skyline-exec`). `checksum` is FNV-1a
//! over the payload, so a flipped byte surfaces as a typed
//! [`FrameError`] instead of a corrupt skyline. Decoding never panics:
//! truncated, misaligned, or corrupt input yields an error value.
//!
//! The [`Exchange`] is the in-process stand-in for the network: one
//! inbox per shard, every frame metered (`bytes_exchanged`,
//! `exchange_frames`) so benchmarks can gate on bytes moved exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs, clippy::missing_errors_doc, clippy::missing_panics_doc)]
// Hot path: typed errors only, nothing discarded (DESIGN.md §8.1).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::unused_result_ok, unused_must_use))]

use skyline_exec::NarrowLayout;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Frame magic: `"SKXF"` as a little-endian `u32`.
pub const FRAME_MAGIC: u32 = 0x4658_4b53;

/// Current frame-format version.
pub const FRAME_VERSION: u8 = 1;

/// Fixed frame-header size in bytes (before the payload).
pub const FRAME_HEADER_BYTES: usize = 24;

/// Maximum narrow entries per frame. Local skylines larger than this
/// are split across frames, so `exchange_frames` scales with volume.
pub const FRAME_ROWS: usize = 512;

/// Sanity cap on the dimension count a frame may declare — matches the
/// widest relation the engine builds, so a corrupt dims field can't
/// drive a huge allocation.
pub const MAX_FRAME_DIMS: u32 = 64;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A slice of one shard's local skyline, flowing to the coordinator.
    Skyline,
    /// Representative records broadcast from the coordinator to shards.
    Representatives,
}

impl FrameKind {
    fn as_u8(self) -> u8 {
        match self {
            FrameKind::Skyline => 0,
            FrameKind::Representatives => 1,
        }
    }

    fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            0 => Some(FrameKind::Skyline),
            1 => Some(FrameKind::Representatives),
            _ => None,
        }
    }
}

/// Typed decode failures. Every malformed input maps to one of these —
/// the decoder has no panicking paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header or declared payload requires.
    Truncated {
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes actually available.
        actual: usize,
    },
    /// The magic word did not match [`FRAME_MAGIC`].
    Magic {
        /// The word found where the magic should be.
        found: u32,
    },
    /// Unknown format version.
    Version {
        /// The version byte found.
        found: u8,
    },
    /// Unknown frame kind byte.
    Kind {
        /// The kind byte found.
        found: u8,
    },
    /// Dimension count of zero or above [`MAX_FRAME_DIMS`].
    Dims {
        /// The dims field found.
        found: u32,
    },
    /// Payload length not a multiple of the narrow entry size.
    Stride {
        /// Declared payload length in bytes.
        payload: usize,
        /// Entry size implied by the dims field.
        entry: usize,
    },
    /// Payload bytes do not hash to the header checksum.
    Checksum {
        /// Checksum the header declared.
        expected: u64,
        /// Checksum of the payload as received.
        actual: u64,
    },
    /// A shard index at or above the exchange's shard count.
    Shard {
        /// The offending shard index.
        shard: usize,
        /// Shards the exchange was built with.
        shards: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { expected, actual } => {
                write!(f, "truncated frame: need {expected} bytes, have {actual}")
            }
            FrameError::Magic { found } => write!(f, "bad frame magic {found:#010x}"),
            FrameError::Version { found } => write!(f, "unsupported frame version {found}"),
            FrameError::Kind { found } => write!(f, "unknown frame kind {found}"),
            FrameError::Dims { found } => write!(f, "implausible frame dims {found}"),
            FrameError::Stride { payload, entry } => {
                write!(
                    f,
                    "payload of {payload} bytes is not a multiple of entry size {entry}"
                )
            }
            FrameError::Checksum { expected, actual } => {
                write!(
                    f,
                    "payload checksum {actual:#018x} != declared {expected:#018x}"
                )
            }
            FrameError::Shard { shard, shards } => {
                write!(f, "shard {shard} out of range for {shards}-shard exchange")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a over `bytes` — the frame payload checksum.
#[must_use]
pub fn payload_checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the payload carries.
    pub kind: FrameKind,
    /// Originating shard (sender for skyline frames, receiver-agnostic
    /// zero for broadcasts).
    pub shard: u16,
    /// Key dimensions per narrow entry.
    pub dims: u32,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// FNV-1a checksum of the payload.
    pub checksum: u64,
}

/// A decoded frame borrowing its payload from the input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The validated header.
    pub header: FrameHeader,
    /// The checksum-verified payload: back-to-back narrow entries.
    pub payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Narrow entry size implied by the header's dims.
    #[must_use]
    pub fn entry_size(&self) -> usize {
        8 * (self.header.dims as usize + 1)
    }

    /// Number of narrow entries in the payload.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.payload.len() / self.entry_size()
    }

    /// Iterate the payload's narrow entries in order.
    pub fn iter_entries(&self) -> impl Iterator<Item = &'a [u8]> {
        self.payload.chunks_exact(self.entry_size())
    }
}

/// Encode one frame: header plus `payload`, which must already be
/// back-to-back narrow entries of `narrow`'s layout. The entry stride
/// is taken from `narrow`, so an encode/decode round trip preserves
/// entries bit-for-bit.
#[must_use]
pub fn encode_frame(kind: FrameKind, shard: u16, narrow: &NarrowLayout, payload: &[u8]) -> Vec<u8> {
    debug_assert_eq!(payload.len() % narrow.entry_size(), 0);
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.push(FRAME_VERSION);
    out.push(kind.as_u8());
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&(narrow.dims() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload_checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn le_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(b)
}

fn le_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Decode one frame from the front of `buf`.
///
/// Returns the frame and the total bytes it consumed, so concatenated
/// frames can be walked front to back (see [`decode_stream`]).
///
/// # Errors
///
/// [`FrameError`] when `buf` is shorter than a header, the magic /
/// version / kind / dims fields are invalid, the declared payload
/// overruns `buf`, the payload is not a whole number of entries, or
/// the payload fails its checksum.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame<'_>, usize), FrameError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Err(FrameError::Truncated {
            expected: FRAME_HEADER_BYTES,
            actual: buf.len(),
        });
    }
    let magic = le_u32(buf, 0);
    if magic != FRAME_MAGIC {
        return Err(FrameError::Magic { found: magic });
    }
    if buf[4] != FRAME_VERSION {
        return Err(FrameError::Version { found: buf[4] });
    }
    let kind = FrameKind::from_u8(buf[5]).ok_or(FrameError::Kind { found: buf[5] })?;
    let shard = u16::from_le_bytes([buf[6], buf[7]]);
    let dims = le_u32(buf, 8);
    if dims == 0 || dims > MAX_FRAME_DIMS {
        return Err(FrameError::Dims { found: dims });
    }
    let payload_len = le_u32(buf, 12) as usize;
    let entry = 8 * (dims as usize + 1);
    if !payload_len.is_multiple_of(entry) {
        return Err(FrameError::Stride {
            payload: payload_len,
            entry,
        });
    }
    let total = FRAME_HEADER_BYTES + payload_len;
    if buf.len() < total {
        return Err(FrameError::Truncated {
            expected: total,
            actual: buf.len(),
        });
    }
    let checksum = le_u64(buf, 16);
    let payload = &buf[FRAME_HEADER_BYTES..total];
    let actual = payload_checksum(payload);
    if actual != checksum {
        return Err(FrameError::Checksum {
            expected: checksum,
            actual,
        });
    }
    Ok((
        Frame {
            header: FrameHeader {
                kind,
                shard,
                dims,
                payload_len,
                checksum,
            },
            payload,
        },
        total,
    ))
}

/// Decode a buffer of concatenated frames front to back.
///
/// # Errors
///
/// Any [`FrameError`] from [`decode_frame`]; trailing garbage after the
/// last whole frame surfaces as the error for that position.
pub fn decode_stream(buf: &[u8]) -> Result<Vec<Frame<'_>>, FrameError> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < buf.len() {
        let (frame, used) = decode_frame(&buf[at..])?;
        out.push(frame);
        at += used;
    }
    Ok(out)
}

/// Point-in-time copy of an [`Exchange`]'s movement counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeSnapshot {
    /// Total bytes that crossed the exchange (headers plus payloads,
    /// uploads plus broadcasts; broadcasts count once per receiver).
    pub bytes_exchanged: u64,
    /// Frames that crossed the exchange (broadcast frames count once
    /// per receiver).
    pub exchange_frames: u64,
}

/// The in-process exchange: one ordered inbox per shard for frames
/// bound to the coordinator, and a meter that sees every byte in
/// either direction.
///
/// Delivery is deterministic — the coordinator drains inbox 0, then 1,
/// … — so counters downstream of the exchange are reproducible for a
/// given shard count.
#[derive(Debug)]
pub struct Exchange {
    inboxes: Vec<Mutex<Vec<Vec<u8>>>>,
    bytes: AtomicU64,
    frames: AtomicU64,
}

impl Exchange {
    /// An exchange with `shards` empty inboxes.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Exchange {
            inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            bytes: AtomicU64::new(0),
            frames: AtomicU64::new(0),
        }
    }

    /// Shards this exchange was built with.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.inboxes.len()
    }

    /// Send one encoded frame from `shard` to the coordinator. Meters
    /// the full wire size (`frame.len()`).
    ///
    /// # Errors
    ///
    /// [`FrameError::Shard`] when `shard` is out of range.
    pub fn send(&self, shard: usize, frame: Vec<u8>) -> Result<(), FrameError> {
        let inbox = self.inboxes.get(shard).ok_or(FrameError::Shard {
            shard,
            shards: self.inboxes.len(),
        })?;
        self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.frames.fetch_add(1, Ordering::Relaxed);
        let mut q = inbox.lock().unwrap_or_else(|p| p.into_inner());
        q.push(frame);
        Ok(())
    }

    /// Drain the frames `shard` has sent, in send order.
    ///
    /// # Errors
    ///
    /// [`FrameError::Shard`] when `shard` is out of range.
    pub fn drain(&self, shard: usize) -> Result<Vec<Vec<u8>>, FrameError> {
        let inbox = self.inboxes.get(shard).ok_or(FrameError::Shard {
            shard,
            shards: self.inboxes.len(),
        })?;
        let mut q = inbox.lock().unwrap_or_else(|p| p.into_inner());
        Ok(std::mem::take(&mut *q))
    }

    /// Meter a coordinator→shards broadcast of one encoded frame:
    /// `frame_len` bytes and one frame per receiving shard. The caller
    /// hands each shard the shared bytes; the meter charges the copies
    /// a real network would.
    pub fn record_broadcast(&self, frame_len: usize, receivers: usize) {
        self.bytes
            .fetch_add(frame_len as u64 * receivers as u64, Ordering::Relaxed);
        self.frames.fetch_add(receivers as u64, Ordering::Relaxed);
    }

    /// Current counter values.
    #[must_use]
    pub fn snapshot(&self) -> ExchangeSnapshot {
        ExchangeSnapshot {
            bytes_exchanged: self.bytes.load(Ordering::Relaxed),
            exchange_frames: self.frames.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(narrow: &NarrowLayout, keys: &[(Vec<f64>, u64)]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut one = Vec::new();
        for (k, id) in keys {
            narrow.encode_into(k, *id, &mut one);
            out.extend_from_slice(&one);
        }
        out
    }

    #[test]
    fn round_trip_preserves_entries() {
        let narrow = NarrowLayout::new(3);
        let payload = entries(
            &narrow,
            &[
                (vec![1.0, 2.0, 3.0], 7),
                (vec![-0.5, 0.0, 9.25], 8),
                (vec![f64::MIN, f64::MAX, 0.0], u64::MAX),
            ],
        );
        let buf = encode_frame(FrameKind::Skyline, 2, &narrow, &payload);
        let (frame, used) = decode_frame(&buf).expect("decode");
        assert_eq!(used, buf.len());
        assert_eq!(frame.header.kind, FrameKind::Skyline);
        assert_eq!(frame.header.shard, 2);
        assert_eq!(frame.header.dims, 3);
        assert_eq!(frame.entries(), 3);
        assert_eq!(frame.payload, &payload[..]);
        let ids: Vec<u64> = frame.iter_entries().map(|e| narrow.row_id(e)).collect();
        assert_eq!(ids, vec![7, 8, u64::MAX]);
    }

    #[test]
    fn empty_payload_round_trips() {
        let narrow = NarrowLayout::new(2);
        let buf = encode_frame(FrameKind::Representatives, 0, &narrow, &[]);
        let (frame, used) = decode_frame(&buf).expect("decode");
        assert_eq!(used, FRAME_HEADER_BYTES);
        assert_eq!(frame.entries(), 0);
        assert_eq!(frame.header.kind, FrameKind::Representatives);
    }

    #[test]
    fn stream_walks_concatenated_frames() {
        let narrow = NarrowLayout::new(2);
        let a = encode_frame(
            FrameKind::Skyline,
            0,
            &narrow,
            &entries(&narrow, &[(vec![1.0, 2.0], 1)]),
        );
        let b = encode_frame(
            FrameKind::Skyline,
            1,
            &narrow,
            &entries(&narrow, &[(vec![3.0, 4.0], 2), (vec![5.0, 6.0], 3)]),
        );
        let mut buf = a.clone();
        buf.extend_from_slice(&b);
        let frames = decode_stream(&buf).expect("stream");
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].entries(), 1);
        assert_eq!(frames[1].entries(), 2);
        assert_eq!(frames[1].header.shard, 1);
    }

    #[test]
    fn truncation_every_prefix_is_typed_error() {
        let narrow = NarrowLayout::new(4);
        let buf = encode_frame(
            FrameKind::Skyline,
            3,
            &narrow,
            &entries(&narrow, &[(vec![1.0, 2.0, 3.0, 4.0], 9)]),
        );
        for cut in 0..buf.len() {
            let err = decode_frame(&buf[..cut]).expect_err("prefix must fail");
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let narrow = NarrowLayout::new(2);
        let payload = entries(&narrow, &[(vec![1.0, 2.0], 5), (vec![3.0, 4.0], 6)]);
        let good = encode_frame(FrameKind::Skyline, 1, &narrow, &payload);

        // Flip every single byte in turn: decode must return an error
        // or a frame unequal to the original — never panic, never pass
        // off corrupt payload as valid.
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0xff;
            match decode_frame(&bad) {
                Err(_) => {}
                Ok((frame, _)) => {
                    // Only header-padding-free fields can survive a
                    // flip: shard byte flips decode fine but change the
                    // header — payload must still be intact.
                    assert_eq!(frame.payload, &payload[..], "byte {at}");
                }
            }
        }

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 1;
        assert!(matches!(
            decode_frame(&bad_magic),
            Err(FrameError::Magic { .. })
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(matches!(
            decode_frame(&bad_version),
            Err(FrameError::Version { found: 99 })
        ));

        let mut bad_kind = good.clone();
        bad_kind[5] = 7;
        assert!(matches!(
            decode_frame(&bad_kind),
            Err(FrameError::Kind { found: 7 })
        ));

        let mut bad_dims = good.clone();
        bad_dims[8] = 0;
        bad_dims[9] = 0;
        assert!(matches!(
            decode_frame(&bad_dims),
            Err(FrameError::Dims { found: 0 })
        ));

        let mut bad_payload = good.clone();
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 0x10;
        assert!(matches!(
            decode_frame(&bad_payload),
            Err(FrameError::Checksum { .. })
        ));
    }

    #[test]
    fn stride_mismatch_is_detected() {
        let narrow = NarrowLayout::new(2);
        let payload = entries(&narrow, &[(vec![1.0, 2.0], 5)]);
        let mut buf = encode_frame(FrameKind::Skyline, 0, &narrow, &payload);
        // Rewrite dims to 3: 24 payload bytes are not a multiple of 32.
        buf[8] = 3;
        assert!(matches!(
            decode_frame(&buf),
            Err(FrameError::Stride {
                payload: 24,
                entry: 32
            })
        ));
    }

    #[test]
    fn exchange_meters_and_preserves_order() {
        let narrow = NarrowLayout::new(2);
        let ex = Exchange::new(2);
        let f1 = encode_frame(
            FrameKind::Skyline,
            0,
            &narrow,
            &entries(&narrow, &[(vec![1.0, 2.0], 1)]),
        );
        let f2 = encode_frame(
            FrameKind::Skyline,
            0,
            &narrow,
            &entries(&narrow, &[(vec![3.0, 4.0], 2)]),
        );
        let wire = (f1.len() + f2.len()) as u64;
        ex.send(0, f1.clone()).expect("send");
        ex.send(0, f2.clone()).expect("send");
        assert_eq!(
            ex.snapshot(),
            ExchangeSnapshot {
                bytes_exchanged: wire,
                exchange_frames: 2
            }
        );
        assert_eq!(ex.drain(0).expect("drain"), vec![f1, f2]);
        assert!(ex.drain(0).expect("drain").is_empty());
        assert!(ex.drain(1).expect("drain").is_empty());

        ex.record_broadcast(100, 2);
        let s = ex.snapshot();
        assert_eq!(s.bytes_exchanged, wire + 200);
        assert_eq!(s.exchange_frames, 4);
    }

    #[test]
    fn shard_out_of_range_is_typed() {
        let ex = Exchange::new(2);
        assert_eq!(
            ex.send(2, Vec::new()),
            Err(FrameError::Shard {
                shard: 2,
                shards: 2
            })
        );
        assert_eq!(
            ex.drain(9).expect_err("range"),
            FrameError::Shard {
                shard: 9,
                shards: 2
            }
        );
    }

    #[test]
    fn error_display_is_informative() {
        let cases: Vec<(FrameError, &str)> = vec![
            (
                FrameError::Truncated {
                    expected: 24,
                    actual: 3,
                },
                "truncated",
            ),
            (FrameError::Magic { found: 5 }, "magic"),
            (FrameError::Version { found: 9 }, "version"),
            (FrameError::Kind { found: 8 }, "kind"),
            (FrameError::Dims { found: 0 }, "dims"),
            (
                FrameError::Stride {
                    payload: 7,
                    entry: 24,
                },
                "multiple",
            ),
            (
                FrameError::Checksum {
                    expected: 1,
                    actual: 2,
                },
                "checksum",
            ),
            (
                FrameError::Shard {
                    shard: 4,
                    shards: 2,
                },
                "out of range",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
