//! seqdb genomics substrate.
//!
//! Everything the paper's experiments need from the bioinformatics world,
//! built from scratch:
//!
//! * DNA alphabets and bit-packed sequences ([`dna`]) — including the
//!   2-bit packing the paper proposes as a domain-specific sequence type
//!   ("a bit-encoding of the sequences could reduce the size to just
//!   about a quarter", §5.1.2);
//! * Phred quality scores and their ASCII codecs ([`quality`]);
//! * Illumina-style read names (`machine:flowcell:lane:tile:x:y`,
//!   [`readname`]) whose materialization as textual composite keys causes
//!   the 1:1-import blow-up of Tables 1–2;
//! * FASTQ and FASTA I/O ([`fastq`], [`fasta`]), including the chunked
//!   buffer-paging parser of §4.1;
//! * synthetic reference genomes and read simulators ([`reference`](mod@reference),
//!   [`simulate`]) standing in for the Sanger Institute lane data;
//! * a MAQ-like seed-and-extend short-read aligner ([`align`]) usable
//!   in-process or as a file-centric external tool with proprietary
//!   binary intermediates ([`tool`]);
//! * quality-weighted consensus calling ([`consensus`]), both as a
//!   blocking pileup and as the sliding-window streaming algorithm the
//!   paper proposes for its `AssembleConsensus` aggregate.

#![deny(unsafe_code)]

pub mod align;
pub mod consensus;
pub mod dna;
pub mod fasta;
pub mod fastq;
pub mod quality;
pub mod readname;
pub mod reference;
pub mod simulate;
pub mod snp;
pub mod tool;

pub use align::{Aligner, Alignment, Strand};
pub use dna::{Base, PackedSeq};
pub use fastq::FastqRecord;
pub use quality::Phred;
pub use readname::ReadName;
pub use reference::ReferenceGenome;
