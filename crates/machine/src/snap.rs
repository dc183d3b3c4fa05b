//! Versioned binary snapshot codec.
//!
//! Whole-run snapshots (machine, scheduler, RCR daemon, controller) are
//! serialized with a deliberately tiny hand-rolled codec rather than a
//! general-purpose serialization framework: the build is hermetic (the
//! vendored `serde` is a marker stub), the state is almost entirely plain
//! integers and `f64` bit patterns, and determinism demands an encoding with
//! no representational freedom — every writer produces exactly one byte
//! sequence for a given state.
//!
//! Layout rules:
//!
//! * all integers are little-endian, fixed width;
//! * `f64` is stored as its IEEE-754 bit pattern (`to_bits`), so restored
//!   values are bit-identical — including NaN payloads — and snapshots never
//!   round-trip through decimal;
//! * collections are length-prefixed (`u64` count);
//! * nested components are framed as length-prefixed blobs so a reader can
//!   skip or validate a section without understanding its interior.
//!
//! A snapshot starts with [`SnapWriter::header`]: magic, format version, and
//! a configuration fingerprint. Snapshots capture *dynamic* state only — the
//! static configuration (machine parameters, worker count, placement) must be
//! supplied by the restoring side and is checked against the fingerprint, so
//! a snapshot can be restored under a config that differs only in fields
//! deliberately excluded from the fingerprint (controller policy knobs, for
//! fork-style sweeps).
//!
//! A run that captures on a cadence keeps hundreds of snapshots whose
//! encodings mostly agree, so captures are held as [`PagedBytes`]: 4 KiB
//! pages, each shared with the previous capture when byte-equal.

use std::sync::Arc;

/// Snapshot format magic: `b"MAESNAP\0"` as a little-endian u64.
pub const SNAP_MAGIC: u64 = u64::from_le_bytes(*b"MAESNAP\0");

/// Current snapshot format version. Bump on any layout change *or* any
/// change to how serialized values are derived: replay correctness depends
/// on the restored engine re-deriving bit-identical state, so a snapshot
/// produced by a different derivation must be rejected, not reinterpreted.
///
/// * **v1** — tick-driven engine: energy/temperature integrated in fixed
///   substeps, scheduler segments re-folded on every poll.
/// * **v2** — event-driven engine: machine state is folded with closed-form
///   analytic integration at sync points and captured anchor-free (plain
///   scalars at the snapshot clock); scheduler segments are barrier-folded
///   at every fence. The serialized *fields* match v1, but the float bits a
///   replay produces do not, so v1 snapshots are rejected with
///   [`SnapError::BadVersion`] instead of silently diverging.
/// * **v3** — the machine gains a `powered` flag (fleet node crash/restart
///   support): a trailing bool in the machine block, and unpowered windows
///   integrate with pure Newton cooling and zero energy. v2 blobs lack the
///   field and are rejected.
/// * **v4** — service runs: `RunStats` grows three trailing counters
///   (`requests_shed`/`retries_spent`/`slo_violations`) and the scheduler
///   block gains a trailing service section (live-request table plus the
///   request source's framed state). v3 blobs would misalign on the stats
///   extension and are rejected.
/// * **v5** — each control-plane tally is written once, by its owner. The
///   controller section drops its copies of the supervisor's kill/restart
///   stats, the blackboard epoch and the safe-mode period count, keeps
///   `checkpoint_restores`, and its checkpoint shrinks to the last trusted
///   actuation. The watchdog stops writing the controller's heartbeat, and
///   the facade snapshot drops its name (the open region carries it) and
///   keeps only the baselines a report subtracts. v4 blobs would misalign
///   and are rejected.
pub const SNAP_VERSION: u32 = 5;

/// Errors surfaced while encoding or decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the requested field.
    Truncated {
        /// Byte offset of the failed read.
        at: usize,
        /// Bytes the read needed.
        wanted: usize,
    },
    /// The buffer does not start with [`SNAP_MAGIC`].
    BadMagic(u64),
    /// The snapshot was written by an incompatible format version.
    BadVersion(u32),
    /// The restoring configuration does not match the captured one.
    FingerprintMismatch {
        /// Fingerprint of the restoring configuration.
        expected: u64,
        /// Fingerprint stored in the snapshot.
        found: u64,
    },
    /// The state cannot be captured (e.g. an opaque closure task).
    Unsupported(&'static str),
    /// A decoded value is structurally invalid for the target state.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated { at, wanted } => {
                write!(f, "snapshot truncated at byte {at} (wanted {wanted} more)")
            }
            SnapError::BadMagic(m) => write!(f, "not a snapshot (magic {m:#018x})"),
            SnapError::BadVersion(v) => {
                write!(f, "snapshot version {v} unsupported (expected {SNAP_VERSION})")
            }
            SnapError::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot was captured under a different configuration \
                 (fingerprint {found:#018x}, this config is {expected:#018x})"
            ),
            SnapError::Unsupported(what) => write!(f, "state not snapshottable: {what}"),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash, used for configuration fingerprints.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    Fnv1a::new().update(bytes).finish()
}

/// Incremental FNV-1a 64-bit hasher: feeding a byte string in chunks, split
/// anywhere, gives the same hash as [`fingerprint`] of the whole string, so
/// a digest of many encodings needs no buffer holding all of them.
#[derive(Copy, Clone, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher that has seen no bytes.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feed `bytes` after everything fed so far.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The hash of every byte fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// One direction of the snapshot codec.
///
/// Every snapshotted type writes its wire layout **once**, as a
/// `codec(&self, c: &mut C) -> Result<State, SnapError>` body that visits
/// its fields in wire order. Each visit takes the live value and returns the
/// decoded one: [`SnapWriter`] emits the value and echoes it back, and
/// [`SnapReader`] ignores it and returns what it read. The same body
/// therefore serves both directions:
///
/// * encoding runs it on `&self` through a writer and throws the returned
///   state away;
/// * decoding runs it through a reader and installs the returned state only
///   once the whole section has decoded, so a corrupt snapshot never leaves
///   a half-restored object behind.
///
/// Values are returned rather than written through `&mut self` because
/// encoding must work on a shared borrow (monitors and request sources are
/// captured through `&self` mid-run).
///
/// Echoes of collections are free on the writer: [`Codec::seq`],
/// [`Codec::seq_fixed`], [`Codec::blob`] and [`Codec::framed`] return empty
/// vectors there instead of allocating copies, so a decoded state built on
/// the writer is only a placeholder. Checks that compare decoded values
/// with the live object (counts, tags, presence) hold trivially on the
/// writer.
pub trait Codec: Sized {
    /// `true` for [`SnapReader`]. Direction-specific steps branch on this.
    const DECODING: bool;

    /// Fixed-width little-endian bytes.
    fn bytes<const N: usize>(&mut self, v: [u8; N]) -> Result<[u8; N], SnapError>;

    /// A `usize` as a `u64`; the reader bounds it by the remaining bytes, so
    /// a corrupt count cannot trigger a huge allocation.
    // A codec operation, not a container query — `is_empty` doesn't apply.
    #[allow(clippy::len_without_is_empty)]
    fn len(&mut self, v: usize) -> Result<usize, SnapError>;

    /// A length-prefixed byte blob. The writer returns an empty vector.
    fn blob(&mut self, v: &[u8]) -> Result<Vec<u8>, SnapError>;

    /// A [`PagedBytes`] value, on the wire exactly a [`Codec::blob`]. The
    /// reader cuts the blob into fresh pages; the writer returns an empty
    /// value.
    fn paged(&mut self, v: &PagedBytes) -> Result<PagedBytes, SnapError>;

    /// A framed sub-blob whose contents `f` visits; the reader requires `f`
    /// to consume the frame exactly.
    fn section<U>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<U, SnapError>,
    ) -> Result<U, SnapError>;

    /// A framed sub-blob written by an object that encodes only through a
    /// concrete [`SnapWriter`] (trait objects such as monitors). The reader
    /// returns the framed bytes for the caller to restore in place after
    /// the enclosing state has decoded; the writer returns an empty vector.
    fn framed(&mut self, encode: impl FnOnce(&mut SnapWriter)) -> Result<Vec<u8>, SnapError>;

    /// One byte.
    #[inline]
    fn u8(&mut self, v: u8) -> Result<u8, SnapError> {
        Ok(self.bytes([v])?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    fn u16(&mut self, v: u16) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.bytes(v.to_le_bytes())?))
    }

    /// A little-endian `u32`.
    #[inline]
    fn u32(&mut self, v: u32) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.bytes(v.to_le_bytes())?))
    }

    /// A little-endian `u64`.
    #[inline]
    fn u64(&mut self, v: u64) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.bytes(v.to_le_bytes())?))
    }

    /// A little-endian `u128`.
    #[inline]
    fn u128(&mut self, v: u128) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.bytes(v.to_le_bytes())?))
    }

    /// An `f64` as its IEEE-754 bit pattern.
    #[inline]
    fn f64(&mut self, v: f64) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64(v.to_bits())?))
    }

    /// A boolean as one byte (values other than 0/1 are corrupt).
    #[inline]
    fn bool(&mut self, v: bool) -> Result<bool, SnapError> {
        match self.u8(u8::from(v))? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("boolean byte out of range")),
        }
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    fn str(&mut self, v: &str) -> Result<String, SnapError> {
        let bytes = self.blob(v.as_bytes())?;
        if !Self::DECODING {
            return Ok(v.to_owned());
        }
        String::from_utf8(bytes).map_err(|_| SnapError::Corrupt("invalid UTF-8 string"))
    }

    /// A `usize` that must decode to the live value `v`.
    #[inline]
    fn check_len(&mut self, v: usize, what: &'static str) -> Result<(), SnapError> {
        if self.len(v)? == v {
            Ok(())
        } else {
            Err(SnapError::Corrupt(what))
        }
    }

    /// A `u64` that must decode to the live value `v`.
    #[inline]
    fn check_u64(&mut self, v: u64, what: &'static str) -> Result<(), SnapError> {
        if self.u64(v)? == v {
            Ok(())
        } else {
            Err(SnapError::Corrupt(what))
        }
    }

    /// An optional value: presence byte, then `f` on the value. The reader
    /// hands `f` a default placeholder.
    #[inline]
    fn opt<T: Default, U>(
        &mut self,
        v: Option<&T>,
        f: impl FnOnce(&mut Self, &T) -> Result<U, SnapError>,
    ) -> Result<Option<U>, SnapError> {
        if !self.bool(v.is_some())? {
            return Ok(None);
        }
        let blank;
        let v = match v {
            Some(v) => v,
            None => {
                blank = T::default();
                &blank
            }
        };
        f(self, v).map(Some)
    }

    /// An optional `u64` (presence byte + value).
    #[inline]
    fn opt_u64(&mut self, v: Option<u64>) -> Result<Option<u64>, SnapError> {
        self.opt(v.as_ref(), |c, &x| c.u64(x))
    }

    /// A variable-length list: count, then `f` on each element. The reader
    /// hands `f` a default placeholder; the writer returns an empty vector.
    #[inline]
    fn seq<'i, T: Default + 'i, U>(
        &mut self,
        items: impl IntoIterator<Item = &'i T, IntoIter: ExactSizeIterator>,
        mut f: impl FnMut(&mut Self, &T) -> Result<U, SnapError>,
    ) -> Result<Vec<U>, SnapError> {
        let items = items.into_iter();
        let n = self.len(items.len())?;
        if !Self::DECODING {
            for item in items {
                f(self, item)?;
            }
            return Ok(Vec::new());
        }
        let blank = T::default();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self, &blank)?);
        }
        Ok(out)
    }

    /// A list whose length must match the live one (`Corrupt(what)`
    /// otherwise): count, then `f` on each live element in turn. The writer
    /// returns an empty vector.
    #[inline]
    fn seq_fixed<'i, T: 'i, U>(
        &mut self,
        items: impl IntoIterator<Item = &'i T, IntoIter: ExactSizeIterator>,
        what: &'static str,
        mut f: impl FnMut(&mut Self, &T) -> Result<U, SnapError>,
    ) -> Result<Vec<U>, SnapError> {
        let items = items.into_iter();
        self.check_len(items.len(), what)?;
        let mut out = Vec::with_capacity(if Self::DECODING { items.len() } else { 0 });
        for item in items {
            let v = f(self, item)?;
            if Self::DECODING {
                out.push(v);
            }
        }
        Ok(out)
    }
}

/// Append-only snapshot encoder.
#[derive(Default, Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// A writer that encodes into `buf`, cleared first. A caller that
    /// encodes repeatedly hands back the buffer [`SnapWriter::finish`]
    /// returned, so the buffer grows once instead of once per encoding.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        SnapWriter { buf }
    }

    /// Write the snapshot header: magic, version, config fingerprint.
    pub fn header(&mut self, config_fingerprint: u64) {
        self.buf.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
        self.buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        self.buf.extend_from_slice(&config_fingerprint.to_le_bytes());
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Codec for SnapWriter {
    const DECODING: bool = false;

    #[inline]
    fn bytes<const N: usize>(&mut self, v: [u8; N]) -> Result<[u8; N], SnapError> {
        self.buf.extend_from_slice(&v);
        Ok(v)
    }

    #[inline]
    fn len(&mut self, v: usize) -> Result<usize, SnapError> {
        self.u64(v as u64)?;
        Ok(v)
    }

    #[inline]
    fn blob(&mut self, v: &[u8]) -> Result<Vec<u8>, SnapError> {
        self.len(v.len())?;
        self.buf.extend_from_slice(v);
        Ok(Vec::new())
    }

    fn paged(&mut self, v: &PagedBytes) -> Result<PagedBytes, SnapError> {
        self.len(v.len())?;
        for page in &v.pages {
            self.buf.extend_from_slice(page);
        }
        Ok(PagedBytes::default())
    }

    // Sections are built in a temporary writer and copied in behind their
    // length prefix. Framing in place (reserve the prefix, patch it later)
    // writes the same bytes. Even with the capture buffer reused from one
    // capture to the next, it left the snapshot-fork benchmark's peak RSS
    // unchanged (25.2 MiB) and raised its minor faults per pass by ~2 %
    // (6,670-6,750 copied, 6,790-6,960 in place, on a 2-vCPU x86-64 VM).
    fn section<U>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<U, SnapError>,
    ) -> Result<U, SnapError> {
        let mut sub = SnapWriter::new();
        let out = f(&mut sub)?;
        self.blob(&sub.buf)?;
        Ok(out)
    }

    fn framed(&mut self, encode: impl FnOnce(&mut SnapWriter)) -> Result<Vec<u8>, SnapError> {
        let mut sub = SnapWriter::new();
        encode(&mut sub);
        self.blob(&sub.buf)
    }
}

/// Sequential snapshot decoder over a byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapError::Truncated { at: self.pos, wanted: n });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read and validate the header; returns the stored config fingerprint.
    pub fn header(&mut self, expected_fingerprint: u64) -> Result<u64, SnapError> {
        let magic = self.u64(0)?;
        if magic != SNAP_MAGIC {
            return Err(SnapError::BadMagic(magic));
        }
        let version = self.u32(0)?;
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion(version));
        }
        let found = self.u64(0)?;
        if found != expected_fingerprint {
            return Err(SnapError::FingerprintMismatch { expected: expected_fingerprint, found });
        }
        Ok(found)
    }

    /// Read a length-prefixed byte blob without copying it.
    fn blob_ref(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.len(0)?;
        self.take(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the whole buffer was consumed (trailing garbage is corrupt).
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes after snapshot"))
        }
    }
}

impl Codec for SnapReader<'_> {
    const DECODING: bool = true;

    #[inline]
    fn bytes<const N: usize>(&mut self, _: [u8; N]) -> Result<[u8; N], SnapError> {
        Ok(self.take(N)?.try_into().expect("take returns exactly N bytes"))
    }

    #[inline]
    fn len(&mut self, _: usize) -> Result<usize, SnapError> {
        let n = self.u64(0)?;
        if n > self.remaining() as u64 {
            return Err(SnapError::Corrupt("length prefix exceeds remaining bytes"));
        }
        Ok(n as usize)
    }

    fn blob(&mut self, _: &[u8]) -> Result<Vec<u8>, SnapError> {
        Ok(self.blob_ref()?.to_vec())
    }

    fn paged(&mut self, _: &PagedBytes) -> Result<PagedBytes, SnapError> {
        Ok(PagedBytes::new(self.blob_ref()?))
    }

    fn section<U>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<U, SnapError>,
    ) -> Result<U, SnapError> {
        let mut sub = SnapReader::new(self.blob_ref()?);
        let out = f(&mut sub)?;
        sub.finish()?;
        Ok(out)
    }

    fn framed(&mut self, _: impl FnOnce(&mut SnapWriter)) -> Result<Vec<u8>, SnapError> {
        self.blob(&[])
    }
}

/// Bytes per page of a [`PagedBytes`] value.
pub const PAGE_BYTES: usize = 4096;

/// An immutable byte string held as pages of [`PAGE_BYTES`] bytes (the
/// last page holds the rest). Pages are reference-counted, so a page that
/// several captures agree on is stored once: [`PagedBytes::share`] reuses
/// the previous capture's page at the same offset when the bytes match.
/// Equality compares bytes, not page identity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PagedBytes {
    pages: Vec<Arc<[u8]>>,
}

impl PagedBytes {
    /// `bytes` cut into fresh pages.
    pub fn new(bytes: &[u8]) -> Self {
        PagedBytes::share(bytes, &PagedBytes::default())
    }

    /// `bytes` cut into pages, each shared with `prev`'s page at the same
    /// offset when the two are byte-equal and freshly allocated otherwise.
    pub fn share(bytes: &[u8], prev: &PagedBytes) -> Self {
        let pages = bytes
            .chunks(PAGE_BYTES)
            .enumerate()
            .map(|(i, chunk)| match prev.pages.get(i) {
                Some(page) if **page == *chunk => Arc::clone(page),
                _ => Arc::from(chunk),
            })
            .collect();
        PagedBytes { pages }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.pages.last().map_or(0, |last| (self.pages.len() - 1) * PAGE_BYTES + last.len())
    }

    /// `true` when there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The pages in order.
    pub fn pages(&self) -> &[Arc<[u8]>] {
        &self.pages
    }

    /// The bytes in one contiguous buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for page in &self.pages {
            out.extend_from_slice(page);
        }
        out
    }
}

/// The corruption property every codec's round-trip test checks: decoding
/// any strict prefix of the valid encoding `bytes` fails with
/// [`SnapError::Truncated`] or [`SnapError::Corrupt`], and decoding `bytes`
/// with any single byte flipped returns (`Ok` or any error) without
/// panicking. `decode` must require its whole input to be consumed.
///
/// # Panics
///
/// When either property fails, naming the prefix length or flipped byte.
pub fn assert_rejects_corruption(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<(), SnapError>) {
    for n in 0..bytes.len() {
        match decode(&bytes[..n]) {
            Err(SnapError::Truncated { .. } | SnapError::Corrupt(_)) => {}
            other => panic!("prefix of {n}/{} bytes decoded to {other:?}", bytes.len()),
        }
    }
    let mut flipped = bytes.to_vec();
    for i in 0..bytes.len() {
        for mask in [0x01, 0x80, 0xff] {
            flipped[i] ^= mask;
            let decoded =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(&flipped)));
            flipped[i] ^= mask;
            assert!(decoded.is_ok(), "flipping byte {i}/{} with {mask:#04x} panicked", bytes.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One body for both directions: every scalar kind plus the helpers.
    /// The reader is handed zeros as live values, so what it returns is
    /// what it read. Floats are rendered as bits.
    fn scalars<C: Codec>(c: &mut C, live: bool) -> Result<String, SnapError> {
        let k = u64::from(live);
        let v = (
            c.u8(7 * k as u8)?,
            c.u16(1234 * k as u16)?,
            c.u32(0xDEAD_BEEF * k as u32)?,
            c.u64((u64::MAX - 1) * k)?,
            c.u128(u128::MAX / 3 * u128::from(k))?,
            c.f64(if live { -0.0 } else { 0.0 })?.to_bits(),
            c.f64(if live { f64::NAN } else { 0.0 })?.is_nan(),
            c.bool(live)?,
            c.opt_u64(None)?,
            c.opt_u64(live.then_some(42))?,
            c.str(if live { "maestro" } else { "" })?,
        );
        c.check_len(3, "len")?;
        c.check_u64(9, "u64")?;
        Ok(format!("{v:?}"))
    }

    #[test]
    fn scalar_round_trip() {
        let mut w = SnapWriter::new();
        let written = scalars(&mut w, true).unwrap();
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(scalars(&mut r, false).unwrap(), written, "the writer echoes what it wrote");
        r.finish().unwrap();
        let expected = (
            7u8,
            1234u16,
            0xDEAD_BEEFu32,
            u64::MAX - 1,
            u128::MAX / 3,
            (-0.0f64).to_bits(),
            true,
            true,
            None::<u64>,
            Some(42u64),
            "maestro",
        );
        assert_eq!(written, format!("{expected:?}"));
    }

    #[test]
    fn checks_reject_mismatched_values() {
        let mut w = SnapWriter::new();
        w.len(4).unwrap();
        w.u64(8).unwrap();
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.check_len(5, "count"), Err(SnapError::Corrupt("count")));
        assert_eq!(r.check_u64(9, "value"), Err(SnapError::Corrupt("value")));
    }

    #[test]
    fn seq_helpers_round_trip_and_check_counts() {
        let live = [3u64, 5, 8];
        let body = |c: &mut SnapWriter| {
            c.seq(&live, |c, &x| c.u64(x))?;
            c.seq_fixed(&live, "fixed", |c, &x| c.u64(x))
        };
        let mut w = SnapWriter::new();
        assert!(body(&mut w).unwrap().is_empty(), "the writer echoes no copies");
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.seq(&[0u64; 0], |c, &x| c.u64(x)).unwrap(), live);
        assert_eq!(r.seq_fixed(&live, "fixed", |c, &x| c.u64(x)).unwrap(), live);
        r.finish().unwrap();
        let mut short = SnapReader::new(&bytes);
        short.seq(&[0u64; 0], |c, &x| c.u64(x)).unwrap();
        assert_eq!(
            short.seq_fixed(&live[..2], "fixed", |c, &x| c.u64(x)),
            Err(SnapError::Corrupt("fixed"))
        );
    }

    #[test]
    fn header_checks_magic_version_fingerprint() {
        let fp = fingerprint(b"config");
        let mut w = SnapWriter::new();
        w.header(fp);
        let bytes = w.finish();
        let mut ok = SnapReader::new(&bytes);
        assert_eq!(ok.header(fp).unwrap(), fp);
        let mut wrong_fp = SnapReader::new(&bytes);
        assert!(matches!(
            wrong_fp.header(fp ^ 1),
            Err(SnapError::FingerprintMismatch { .. })
        ));
        let mut garbage = SnapReader::new(&[0u8; 20]);
        assert!(matches!(garbage.header(fp), Err(SnapError::BadMagic(_))));
    }

    #[test]
    fn v1_snapshots_rejected() {
        // A pre-event-core (v1) snapshot would restore into an engine whose
        // integration derives different float bits, and the previous
        // version's layout would misalign — both must be refused outright,
        // never reinterpreted.
        let fp = fingerprint(b"config");
        for old in [1, SNAP_VERSION - 1] {
            let mut w = SnapWriter::new();
            w.header(fp);
            let mut bytes = w.finish();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            let mut r = SnapReader::new(&bytes);
            assert_eq!(r.header(fp), Err(SnapError::BadVersion(old)));
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapWriter::new();
        w.u64(99).unwrap();
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes[..4]);
        assert!(matches!(r.u64(0), Err(SnapError::Truncated { .. })));
    }

    #[test]
    fn corrupt_length_prefix_rejected() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX).unwrap(); // absurd length
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.blob(&[]), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = SnapWriter::new();
        w.u8(1).unwrap();
        w.u8(2).unwrap();
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        r.u8(0).unwrap();
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn fingerprint_distinguishes_inputs() {
        assert_ne!(fingerprint(b"a"), fingerprint(b"b"));
        assert_eq!(fingerprint(b"same"), fingerprint(b"same"));
    }

    #[test]
    fn chunked_hashing_matches_one_shot_fingerprint() {
        // The FNV-1a offset basis is the hash of nothing, empty chunks
        // included.
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::new().update(&[]).update(&[]).finish(), fingerprint(&[]));
        let input = b"maestro fleet trace";
        let whole = fingerprint(input);
        for i in 0..=input.len() {
            for j in i..=input.len() {
                let mut h = Fnv1a::default();
                h.update(&input[..i]).update(&[]).update(&input[i..j]).update(&input[j..]);
                assert_eq!(h.finish(), whole, "split at {i} and {j}");
            }
        }
        let mut bytewise = Fnv1a::new();
        for b in input {
            bytewise.update(std::slice::from_ref(b));
        }
        assert_eq!(bytewise.finish(), whole);
    }

    #[test]
    fn sections_frame_nested_blobs() {
        let body = |c: &mut SnapWriter| {
            c.section(|c| {
                c.u64(5)?;
                c.f64(2.5)
            })?;
            c.framed(|w| {
                w.u8(0xCD).unwrap();
            })?;
            c.u8(0xAB)
        };
        let mut w = SnapWriter::new();
        body(&mut w).unwrap();
        let bytes = w.finish();
        // A frame matches a separately built, copied blob.
        let mut inner = SnapWriter::new();
        inner.u64(5).unwrap();
        inner.f64(2.5).unwrap();
        let mut outer = SnapWriter::new();
        outer.blob(&inner.finish()).unwrap();
        outer.blob(&[0xCD]).unwrap();
        outer.u8(0xAB).unwrap();
        assert_eq!(bytes, outer.finish());

        let mut r = SnapReader::new(&bytes);
        let v = r.section(|c| Ok((c.u64(0)?, c.f64(0.0)?))).unwrap();
        assert_eq!(v, (5, 2.5));
        assert_eq!(r.framed(|_| {}).unwrap(), vec![0xCD]);
        assert_eq!(r.u8(0).unwrap(), 0xAB);
        r.finish().unwrap();
        // A section body that leaves bytes unread is corrupt.
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.section(|c| c.u64(0)), Err(SnapError::Corrupt(_))));
    }

    /// A byte string of `len` bytes whose page `i` is filled with
    /// `seed + i`.
    fn paged_input(len: usize, seed: u8) -> Vec<u8> {
        (0..len).map(|i| seed.wrapping_add((i / PAGE_BYTES) as u8)).collect()
    }

    #[test]
    fn equal_pages_are_shared_with_the_previous_capture() {
        let first = paged_input(3 * PAGE_BYTES + 100, 1);
        let mut second = first.clone();
        second[PAGE_BYTES + 7] ^= 0xff;
        let a = PagedBytes::new(&first);
        let b = PagedBytes::share(&second, &a);
        let shared: Vec<bool> =
            a.pages().iter().zip(b.pages()).map(|(x, y)| Arc::ptr_eq(x, y)).collect();
        assert_eq!(shared, [true, false, true, true]);
        assert_eq!(b.to_vec(), second);
        // Fresh pages share nothing, even when equal.
        let c = PagedBytes::new(&first);
        assert_eq!(c, a, "equality compares bytes");
        assert!(!a.pages().iter().zip(c.pages()).any(|(x, y)| Arc::ptr_eq(x, y)));
    }

    #[test]
    fn growing_shrinking_and_partial_captures_flatten_exactly() {
        let mut prev = PagedBytes::default();
        assert!(prev.is_empty() && prev.to_vec().is_empty());
        for len in [0, 1, PAGE_BYTES - 1, PAGE_BYTES, PAGE_BYTES + 1, 3 * PAGE_BYTES + 5, 10, 0] {
            let mut w = SnapWriter::with_buffer(vec![0xAA; 3]);
            w.blob(&paged_input(len, 9)).unwrap();
            let written = w.finish();
            let paged = PagedBytes::share(&written, &prev);
            assert_eq!(paged.len(), written.len());
            assert_eq!(paged.to_vec(), written, "{len} bytes");
            assert_eq!(paged.pages().len(), written.len().div_ceil(PAGE_BYTES));
            prev = paged;
        }
    }

    #[test]
    fn paged_codec_writes_a_blob_and_rejects_corruption() {
        let live = PagedBytes::new(&paged_input(2 * PAGE_BYTES + 17, 3));
        let mut w = SnapWriter::new();
        assert!(w.paged(&live).unwrap().is_empty(), "the writer echoes no copy");
        w.u8(0x5A).unwrap();
        let bytes = w.finish();
        let mut blob = SnapWriter::new();
        blob.blob(&live.to_vec()).unwrap();
        blob.u8(0x5A).unwrap();
        assert_eq!(bytes, blob.finish(), "same bytes as a blob");
        let decode = |input: &[u8]| {
            let mut r = SnapReader::new(input);
            let back = r.paged(&PagedBytes::default())?;
            r.u8(0)?;
            r.finish()?;
            assert_eq!(back.len(), live.len());
            Ok(())
        };
        decode(&bytes).unwrap();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.paged(&PagedBytes::default()).unwrap(), live);
        assert_rejects_corruption(&bytes, decode);
    }
}
