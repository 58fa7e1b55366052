//! The stamp-run codec: how every stamp vector an anti-entropy message
//! carries is sized and encoded.
//!
//! A stamp is a node's virtual clock in µs, so a fixed-width field spends
//! most of its bits on the high digits every stamp of one message shares:
//! the 32 stamps of one Merkle leaf typically span fewer than 2²³ µs. A
//! **run** sends those digits once. It is a base (the least nonzero stamp
//! of the vector), a width, and one code per stamp: `stamp − base + 1`,
//! with code 0 reserved for stamp 0 ("absent"). The mapping is lossless for
//! any `u64`: the largest code is at most `u64::MAX`.
//!
//! - **Model.** A run of k codes of logical width w costs
//!   [`HEADER_BITS`](StampRun::HEADER_BITS) `+ k·w` modelled bits, and
//!   nothing when k = 0 (`StampRun::model_bits`).
//! - **Wire.** The base as a `u64`, the width in whole bytes as a `u8`, then
//!   the codes at ⌈w/8⌉ bytes each, little-endian; nothing when k = 0
//!   (`StampRun::wire_bytes`). The model charges the logical width
//!   because it prices what the information costs (any bit-packed wire
//!   could reach it); the byte-aligned wire keeps the codec a byte copy per
//!   code.
//!
//! The decoder is total: a width byte above 8, or a code whose stamp
//! overflows `u64` past its base, is [`WireError::OutOfRange`].

use crate::store::{Entry, STAMP_BITS};
use gossip_net::{NodeId, WireError, WireReader, WireWriter};

/// One stamp vector's run header: the base its codes count from and the
/// logical width of its largest code. Build it with one of the `of_*`
/// constructors, one pass over the vector each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StampRun {
    /// The least nonzero stamp (0 when every stamp is absent).
    base: u64,
    /// Bits of the largest code (0 when every stamp is absent).
    width: u32,
}

/// The fold both bounds of a run come from, in one pass: the least nonzero
/// stamp minus one (a stamp of 0 wraps to `u64::MAX` and never wins) and
/// the greatest stamp.
#[inline]
fn widen((below, top): (u64, u64), stamp: u64) -> (u64, u64) {
    (below.min(stamp.wrapping_sub(1)), top.max(stamp))
}

const EMPTY: (u64, u64) = (u64::MAX, 0);

impl StampRun {
    /// Modelled bits of a run's header: the base at [`STAMP_BITS`] and
    /// the width byte.
    pub const HEADER_BITS: u32 = STAMP_BITS + 8;
    /// Wire bytes of a run's header: the `u64` base and the `u8` width.
    const HEADER_BYTES: usize = 8 + 1;

    fn from_bounds((below, top): (u64, u64)) -> Self {
        if top == 0 {
            return StampRun { base: 0, width: 0 };
        }
        // `top − below` is the largest code, `top − base + 1`, at least 1.
        StampRun {
            base: below + 1,
            width: u64::BITS - (top - below).leading_zeros(),
        }
    }

    /// The run of a per-slot stamp vector (`0` = absent).
    pub fn of_stamps(stamps: &[u64]) -> Self {
        Self::from_bounds(stamps.iter().fold(EMPTY, |acc, &s| widen(acc, s)))
    }

    /// The run of a delta's entry stamps.
    pub(crate) fn of_entries(entries: &[(NodeId, Entry)]) -> Self {
        Self::from_bounds(
            entries
                .iter()
                .fold(EMPTY, |acc, (_, e)| widen(acc, e.stamp)),
        )
    }

    /// The run of a sparse digest's stamps.
    pub(crate) fn of_pairs(pairs: &[(NodeId, u64)]) -> Self {
        Self::from_bounds(pairs.iter().fold(EMPTY, |acc, &(_, s)| widen(acc, s)))
    }

    /// The logical width of one code, in bits (0 to 64).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The width of one code on the wire, in whole bytes (0 to 8).
    fn code_bytes(&self) -> usize {
        self.width.div_ceil(8) as usize
    }

    /// Modelled bits of this run over `k` codes.
    pub(crate) fn model_bits(&self, k: usize) -> u32 {
        if k == 0 {
            0
        } else {
            Self::HEADER_BITS + k as u32 * self.width
        }
    }

    /// Wire bytes of this run over `k` codes.
    pub(crate) fn wire_bytes(&self, k: usize) -> usize {
        if k == 0 {
            0
        } else {
            Self::HEADER_BYTES + k * self.code_bytes()
        }
    }

    /// The code of one stamp of the vector this run was built from.
    fn code(&self, stamp: u64) -> u64 {
        if stamp == 0 {
            0
        } else {
            stamp - self.base + 1
        }
    }

    /// Write the header of a run of `k` codes: nothing when k = 0.
    pub(crate) fn put_header(&self, w: &mut WireWriter, k: usize) {
        if k > 0 {
            w.put_u64(self.base);
            w.put_u8(self.code_bytes() as u8);
        }
    }

    /// Write one stamp's code.
    pub(crate) fn put(&self, w: &mut WireWriter, stamp: u64) {
        w.put_uint(self.code(stamp), self.code_bytes());
    }
}

/// A run header as read off the wire: what decoding its codes needs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunReader {
    base: u64,
    code_bytes: usize,
}

impl RunReader {
    /// Read the header of a run of `k` codes: nothing when k = 0, else the
    /// base and the width byte, where a width above 8 is
    /// [`WireError::OutOfRange`].
    pub(crate) fn take_header(r: &mut WireReader<'_>, k: usize) -> Result<Self, WireError> {
        if k == 0 {
            return Ok(RunReader {
                base: 0,
                code_bytes: 0,
            });
        }
        let base = r.take_u64()?;
        let code_bytes = r.take_u8()?;
        if code_bytes > 8 {
            return Err(WireError::OutOfRange {
                value: code_bytes.into(),
            });
        }
        Ok(RunReader {
            base,
            code_bytes: code_bytes.into(),
        })
    }

    /// Bytes one code occupies.
    pub(crate) fn code_bytes(&self) -> usize {
        self.code_bytes
    }

    /// Read one code and return its stamp; a stamp past `u64::MAX` is
    /// [`WireError::OutOfRange`].
    pub(crate) fn take(&self, r: &mut WireReader<'_>) -> Result<u64, WireError> {
        match r.take_uint(self.code_bytes)? {
            0 => Ok(0),
            code => self
                .base
                .checked_add(code - 1)
                .ok_or(WireError::OutOfRange { value: code }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_start_at_the_least_nonzero_stamp() {
        let run = StampRun::of_stamps(&[0, 1_000, 1_003, 0]);
        assert_eq!((run.base, run.width()), (1_000, 3), "largest code 4");
        assert_eq!([run.code(0), run.code(1_000), run.code(1_003)], [0, 1, 4]);
        assert_eq!(run.model_bits(4), StampRun::HEADER_BITS + 4 * 3);
        assert_eq!(run.wire_bytes(4), 9 + 4);
    }

    #[test]
    fn degenerate_runs() {
        let absent = StampRun::of_stamps(&[0, 0, 0]);
        assert_eq!(
            (absent.base, absent.width(), absent.code_bytes()),
            (0, 0, 0)
        );
        assert_eq!(absent.model_bits(3), StampRun::HEADER_BITS);
        assert_eq!(absent.model_bits(0), 0, "no codes, no run");
        assert_eq!(absent.wire_bytes(0), 0);
        assert_eq!(StampRun::of_stamps(&[]), absent);

        let single = StampRun::of_stamps(&[u64::MAX]);
        assert_eq!((single.base, single.width()), (u64::MAX, 1));
        let full = StampRun::of_stamps(&[1, u64::MAX]);
        assert_eq!((full.base, full.width(), full.code_bytes()), (1, 64, 8));
        assert_eq!(full.code(u64::MAX), u64::MAX, "the widest code still fits");
    }

    #[test]
    fn widths_cross_byte_boundaries_exactly() {
        for width in 1..=64u32 {
            let top = u64::MAX >> (64 - width);
            let run = StampRun::of_stamps(&[1, top]);
            assert_eq!(run.width(), width, "largest code {top}");
            assert_eq!(run.code_bytes(), width.div_ceil(8) as usize);
        }
    }

    #[test]
    fn the_three_constructors_agree() {
        let stamps = [7u64, 0, 19, 3];
        let entries: Vec<(NodeId, Entry)> = stamps
            .iter()
            .enumerate()
            .map(|(i, &stamp)| (NodeId::new(i), Entry { stamp, value: 0.5 }))
            .collect();
        let pairs: Vec<(NodeId, u64)> = entries.iter().map(|&(o, e)| (o, e.stamp)).collect();
        let run = StampRun::of_stamps(&stamps);
        assert_eq!(StampRun::of_entries(&entries), run);
        assert_eq!(StampRun::of_pairs(&pairs), run);
        assert_eq!((run.base, run.width()), (3, 5));
    }
}
