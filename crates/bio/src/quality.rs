//! Phred quality scores and their ASCII encodings.
//!
//! FASTQ quality lines are "the logarithmic-transformed error
//! probabilities from the image analysis phase ... shifted into the
//! visible ASCII character space" (paper §3, Figure 3). Two shifts are in
//! the wild: Sanger (+33) and the Illumina 1.3 pipeline (+64), which the
//! paper's `IL4_855` lanes use.

use seqdb_types::{DbError, Result};

/// A Phred-scaled quality score: `Q = -10 * log10(p_error)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Phred(pub u8);

/// Maximum representable score (ASCII printability limit with offset 33).
pub const MAX_PHRED: u8 = 93;

impl Phred {
    pub fn new(q: u8) -> Phred {
        Phred(q.min(MAX_PHRED))
    }

    /// The error probability this score encodes.
    pub fn error_prob(self) -> f64 {
        10f64.powf(-(self.0 as f64) / 10.0)
    }

    /// Score for an error probability (clamped to `[0, MAX_PHRED]`).
    pub fn from_error_prob(p: f64) -> Phred {
        if p <= 0.0 {
            return Phred(MAX_PHRED);
        }
        if p >= 1.0 {
            return Phred(0);
        }
        Phred(((-10.0 * p.log10()).round() as i64).clamp(0, MAX_PHRED as i64) as u8)
    }
}

/// Quality-string encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QualityEncoding {
    /// Offset 33 ("Sanger"/modern FASTQ).
    Sanger,
    /// Offset 64 (Illumina 1.3+ pipeline, the paper's data).
    Illumina13,
}

impl QualityEncoding {
    pub fn offset(self) -> u8 {
        match self {
            QualityEncoding::Sanger => 33,
            QualityEncoding::Illumina13 => 64,
        }
    }

    /// Highest score this encoding can represent in printable ASCII
    /// (scores above it are clamped on encode). Sanger: 93; Illumina
    /// 1.3: 62 — matching the real pipelines.
    pub fn max_quality(self) -> u8 {
        126 - self.offset()
    }

    /// Decode an ASCII quality line into scores.
    pub fn decode(self, line: &str) -> Result<Vec<Phred>> {
        line.bytes().map(|b| self.score(b)).collect()
    }

    /// Check a quality line without decoding it: the error is the one
    /// [`QualityEncoding::decode`] reports for the same line.
    pub fn check(self, line: &[u8]) -> Result<()> {
        match line.iter().find(|&&b| !self.in_range(b)) {
            Some(&b) => self.score(b).map(drop),
            None => Ok(()),
        }
    }

    #[inline]
    fn in_range(self, b: u8) -> bool {
        (self.offset()..=126).contains(&b)
    }

    #[inline]
    fn score(self, b: u8) -> Result<Phred> {
        if self.in_range(b) {
            Ok(Phred(b - self.offset()))
        } else {
            Err(DbError::InvalidData(format!(
                "quality character {:?} out of range for {self:?}",
                b as char
            )))
        }
    }

    /// Encode scores as an ASCII quality line (clamped to
    /// [`QualityEncoding::max_quality`]).
    pub fn encode(self, quals: &[Phred]) -> String {
        let off = self.offset();
        let cap = self.max_quality();
        quals.iter().map(|q| (off + q.0.min(cap)) as char).collect()
    }
}

/// Sum of scores (used by quality-weighted consensus and aligners).
pub fn total_quality(quals: &[Phred]) -> u64 {
    quals.iter().map(|q| q.0 as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn probability_conversions() {
        assert!((Phred(10).error_prob() - 0.1).abs() < 1e-12);
        assert!((Phred(30).error_prob() - 0.001).abs() < 1e-12);
        assert_eq!(Phred::from_error_prob(0.1), Phred(10));
        assert_eq!(Phred::from_error_prob(0.0), Phred(MAX_PHRED));
        assert_eq!(Phred::from_error_prob(1.0), Phred(0));
    }

    #[test]
    fn sanger_and_illumina_shift() {
        // The paper's Figure 3 line ">>>>..." is Illumina-encoded: '>' is
        // ASCII 62, so Q = 62 - 64 would be negative in Illumina scale
        // pre-1.3 — our Illumina13 decoder rejects it, Sanger reads Q29.
        let q = QualityEncoding::Sanger.decode(">>>;").unwrap();
        assert_eq!(q[0], Phred(29));
        assert_eq!(q[3], Phred(26));
        assert!(QualityEncoding::Illumina13.decode(">>>").is_err());
        let enc = QualityEncoding::Illumina13.encode(&[Phred(2), Phred(30)]);
        assert_eq!(enc, "B~".replace('~', &((64u8 + 30) as char).to_string()));
    }

    #[test]
    fn total_quality_sums() {
        assert_eq!(total_quality(&[Phred(10), Phred(20), Phred(0)]), 30);
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(quals in proptest::collection::vec(0u8..=MAX_PHRED, 0..80)) {
            for enc in [QualityEncoding::Sanger, QualityEncoding::Illumina13] {
                // Scores above the encoding's ceiling clamp on encode.
                let quals: Vec<Phred> = quals
                    .iter()
                    .map(|&q| Phred(q.min(enc.max_quality())))
                    .collect();
                let line = enc.encode(&quals);
                prop_assert!(line.is_ascii());
                prop_assert_eq!(enc.decode(&line).unwrap(), quals);
            }
        }

        #[test]
        fn from_error_prob_monotone(a in 1e-9f64..1.0, b in 1e-9f64..1.0) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(Phred::from_error_prob(lo).0 >= Phred::from_error_prob(hi).0);
        }
    }
}
