//! Hand-rolled little-endian binary codec for engine snapshots.
//!
//! Snapshots must round-trip *bit-exactly* — a restored campaign has to
//! finish byte-identical to an uninterrupted one — so floats are stored
//! as raw `to_bits()` words rather than going through any decimal
//! formatting, and every field is fixed-width or length-prefixed. The
//! format carries no self-description; the versioned header in
//! [`crate::durability`] is what gates decoding against the right shape.

use super::DurabilityError;

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte lane"))
}

/// XXH64 with seed 0 — the snapshot checksum and the configuration
/// fingerprint. Four independent 8-byte lanes per 32-byte stripe keep
/// the multiplier busy where a byte-serial hash waits on one dependent
/// multiply per byte. Not cryptographic; it exists to catch torn writes
/// and bit rot loudly, not adversaries.
pub(crate) fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut acc = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (a, lane) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *a = xxh_round(*a, le_u64(lane));
            }
        }
        let h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.iter().fold(h, |h, &a| {
            (h ^ xxh_round(0, a)).wrapping_mul(P1).wrapping_add(P4)
        })
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ xxh_round(0, le_u64(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let w = u32::from_le_bytes(tail[..4].try_into().expect("4-byte word"));
        h = (h ^ u64::from(w).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Append-only encoder. [`Enc::clear`] keeps the allocation, so one
/// encoder reused across snapshots stops growing once it has held the
/// largest.
#[derive(Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Enc {
        Enc::default()
    }

    #[cfg(test)]
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Empty the buffer, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }

    /// Overwrite the 8 bytes at `offset` — a header field whose value is
    /// known only after the payload behind it has been written.
    pub(crate) fn patch_u64(&mut self, offset: usize, v: u64) {
        self.buf[offset..offset + 8].copy_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    pub(crate) fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Raw IEEE-754 bits — the only lossless f64 representation.
    pub(crate) fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Tag byte 0 for `None`, 1 followed by the value for `Some`.
    pub(crate) fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
            None => self.put_u8(0),
        }
    }

    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Unprefixed raw bytes (the header magic).
    pub(crate) fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Cursor-based decoder over a snapshot payload. Every read is
/// bounds-checked; running off the end or hitting an invalid tag is a
/// [`DurabilityError::Corrupt`], never a panic — a half-written snapshot
/// must fail loudly and recoverably.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DurabilityError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                DurabilityError::Corrupt(format!(
                    "payload ends at byte {} but {n} more bytes were expected at offset {}",
                    self.buf.len(),
                    self.pos
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8, DurabilityError> {
        Ok(self.take(1)?[0])
    }

    /// Unprefixed raw bytes (the header magic).
    pub(crate) fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], DurabilityError> {
        self.take(n)
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take_bool(&mut self) -> Result<bool, DurabilityError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DurabilityError::Corrupt(format!(
                "invalid bool byte {b:#04x}"
            ))),
        }
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32, DurabilityError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64, DurabilityError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    pub(crate) fn take_usize(&mut self) -> Result<usize, DurabilityError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| DurabilityError::Corrupt("length exceeds usize".to_string()))
    }

    /// A length prefix about to drive a `Vec` allocation: reject lengths
    /// that cannot possibly fit in the remaining payload, so a corrupt
    /// prefix fails as `Corrupt` instead of aborting on a huge alloc.
    pub(crate) fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, DurabilityError> {
        let n = self.take_usize()?;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(DurabilityError::Corrupt(format!(
                "length prefix {n} exceeds the {remaining} payload bytes remaining"
            )));
        }
        Ok(n)
    }

    pub(crate) fn take_f64(&mut self) -> Result<f64, DurabilityError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    pub(crate) fn take_opt_f64(&mut self) -> Result<Option<f64>, DurabilityError> {
        Ok(match self.take_u8()? {
            0 => None,
            1 => Some(self.take_f64()?),
            t => return Err(DurabilityError::Corrupt(format!("invalid option tag {t}"))),
        })
    }

    pub(crate) fn take_str(&mut self) -> Result<String, DurabilityError> {
        let n = self.take_len(1)?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| DurabilityError::Corrupt("string is not UTF-8".to_string()))
    }

    /// Assert the payload was consumed exactly — trailing garbage means
    /// the payload length in the header lied about the content shape.
    pub(crate) fn finish(self) -> Result<(), DurabilityError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DurabilityError::Corrupt(format!(
                "{} trailing bytes after the decoded image",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut e = Enc::new();
        e.put_u8(0xA5);
        e.put_bool(true);
        e.put_u32(u32::MAX - 7);
        e.put_u64(0x0123_4567_89AB_CDEF);
        e.put_f64(-0.0);
        e.put_f64(1.0e-300);
        e.put_f64(f64::MAX);
        e.put_str("grid.campaign");
        e.put_str("");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 0xA5);
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_u32().unwrap(), u32::MAX - 7);
        assert_eq!(d.take_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(d.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.take_f64().unwrap(), 1.0e-300);
        assert_eq!(d.take_f64().unwrap(), f64::MAX);
        assert_eq!(d.take_str().unwrap(), "grid.campaign");
        assert_eq!(d.take_str().unwrap(), "");
        d.finish().unwrap();
    }

    #[test]
    fn truncation_and_garbage_fail_loudly() {
        let mut e = Enc::new();
        e.put_u64(42);
        let bytes = e.into_bytes();
        let mut short = Dec::new(&bytes[..5]);
        assert!(matches!(short.take_u64(), Err(DurabilityError::Corrupt(_))));
        let mut ok = Dec::new(&bytes);
        ok.take_u32().unwrap();
        assert!(matches!(ok.finish(), Err(DurabilityError::Corrupt(_))));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut e = Enc::new();
        e.put_u64(u64::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.take_len(16), Err(DurabilityError::Corrupt(_))));
    }

    #[test]
    fn invalid_bool_is_corrupt() {
        let bytes = [7u8];
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.take_bool(), Err(DurabilityError::Corrupt(_))));
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // XXH64, seed 0.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
        let all: Vec<u8> = (0..=255u8).collect();
        assert_eq!(xxh64(&all), 0x1FAC_BE84_06CD_904B);
        // Sensitivity: one flipped bit changes the sum.
        assert_ne!(xxh64(b"foobar"), xxh64(b"foobas"));
    }

    #[test]
    fn xxh64_low_word_matches_zstd_frame_checksums() {
        // `zstd -C` ends each frame with the low 32 bits of the content's
        // XXH64 (seed 0). These lengths take every path: 8- and 4-byte
        // tail words, single tail bytes, with and without whole stripes.
        for (n, low) in [
            (8usize, 0xc6f9_0092u32),
            (12, 0x33af_5133),
            (31, 0xcc4a_6119),
            (33, 0xba58_8784),
            (47, 0xc5ad_205e),
            (63, 0x31c7_493c),
            (64, 0xf6ee_b01f),
            (100, 0x170f_e531),
            (1000, 0x33f1_a3fb),
        ] {
            let bytes: Vec<u8> = (0..n).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(xxh64(&bytes) as u32, low, "{n} bytes");
        }
    }
}
