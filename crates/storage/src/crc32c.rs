//! CRC-32C (Castagnoli) — the checksum of page images and WAL frames.
//!
//! The Castagnoli polynomial (0x1EDC6F41) is the one used by iSCSI, ext4
//! and Btrfs metadata; its error-detection properties for short messages
//! are better than the IEEE CRC-32's, and CPUs compute it in hardware.
//!
//! Every buffer-pool miss verifies a page, every write-back, checkpoint
//! and WAL frame seals one, and replay, reopen, scrub and backup verify
//! what they read, so the checksum has to cost less than the `pread` it
//! guards (≈ 3 µs for an 8 KiB page from the page cache). Which kernel
//! [`crc32c_append`] runs is decided by the CPU it runs on, never by an
//! option:
//!
//! * x86_64 with SSE4.2 (detected at run time): the `crc32` instruction,
//!   eight bytes a step, over three independent streams. One instruction
//!   waits three cycles for the one before it in its chain but can issue
//!   every cycle, so each 3 KiB block runs three 1 KiB chains side by side
//!   and joins them with a 4 × 256 table that moves a CRC state past
//!   1 KiB of zeros; the bytes after the last whole block take one chain.
//!   ≈ 0.5 µs per page where one chain took 1.1 µs (2-vCPU x86_64 VM).
//!   A profile of scans over a table larger than the pool had put the
//!   checksum at 14 % of their CPU time, next to 23 % for copying the
//!   page out of the OS cache, so it was worth interleaving.
//! * everything else, aarch64 included (its `crc32cx` path could not be
//!   `cargo check`ed in the offline build environment, so it is not
//!   written): slicing-by-8 over 8 KiB of tables — ≈ 5.4 µs per page.
//!
//! Both compute the one function the bytewise table loop they replaced
//! computed (measured at 22.6 µs per page, 318–363 MB/s, eight times the
//! read): same polynomial, same values, so every page, log, backup
//! manifest and scrub verdict written before still verifies. That loop
//! survives under `#[cfg(test)]` only, as the reference both kernels are
//! compared against.

/// Reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[k][b]` is the CRC state after byte `b` and then `k` zero bytes,
/// which lets eight table lookups consume eight input bytes at once.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Bytes each chain of the three-stream kernel takes from one block.
#[cfg(target_arch = "x86_64")]
const STREAM: usize = 1024;

/// `SHIFT[k][b]` is the CRC state `b << 8k` after [`STREAM`] zero bytes.
/// Feeding zeros is linear in the state, so four lookups move any state
/// past them: see [`shift`].
#[cfg(target_arch = "x86_64")]
const fn make_shift() -> [[u32; 256]; 4] {
    let table = make_tables()[0];
    // Where each one-bit state ends up; any other is their XOR.
    let mut basis = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut state = 1u32 << bit;
        let mut n = 0;
        while n < STREAM {
            state = table[(state & 0xFF) as usize] ^ (state >> 8);
            n += 1;
        }
        basis[bit] = state;
        bit += 1;
    }
    let mut shift = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut bit = 0;
            while bit < 8 {
                if b & (1 << bit) != 0 {
                    shift[k][b] ^= basis[8 * k + bit];
                }
                bit += 1;
            }
            b += 1;
        }
        k += 1;
    }
    shift
}

#[cfg(target_arch = "x86_64")]
static SHIFT: [[u32; 256]; 4] = make_shift();

/// The CRC state `state` after [`STREAM`] zero bytes.
#[cfg(target_arch = "x86_64")]
fn shift(state: u32) -> u32 {
    let [b0, b1, b2, b3] = state.to_le_bytes();
    SHIFT[0][b0 as usize] ^ SHIFT[1][b1 as usize] ^ SHIFT[2][b2 as usize] ^ SHIFT[3][b3 as usize]
}

/// CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continue a CRC-32C computation: `crc` is the checksum of the bytes seen
/// so far, the result covers those bytes followed by `data`.
#[allow(unsafe_code)]
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the running CPU has just been found to support SSE4.2,
        // which is all `append_sse42` requires of its caller.
        return unsafe { append_sse42(crc, data) };
    }
    append_portable(crc, data)
}

/// The hardware kernel: the `crc32` instruction over unaligned
/// little-endian words, three chains at a time over each 3 KiB block, one
/// over the words after the last block, then over the bytes left.
///
/// # Safety
///
/// The running CPU must support SSE4.2. Nothing is required of `data`:
/// it is only read through safe slice operations.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "sse4.2")]
unsafe fn append_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |chunk: &[u8]| u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    let mut blocks = data.chunks_exact(3 * STREAM);
    // The instruction leaves the upper half of its result zero.
    let mut state = !crc;
    for block in &mut blocks {
        let (a, bc) = block.split_at(STREAM);
        let (b, c) = bc.split_at(STREAM);
        // `a` continues the state, `b` and `c` start from zero: the CRC
        // of `a b c` is then `a`'s moved past `b`, XOR `b`'s, moved past
        // `c`, XOR `c`'s.
        let (mut sa, mut sb, mut sc) = (u64::from(state), 0, 0);
        for ((wa, wb), wc) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            sa = _mm_crc32_u64(sa, word(wa));
            sb = _mm_crc32_u64(sb, word(wb));
            sc = _mm_crc32_u64(sc, word(wc));
        }
        state = shift(shift(sa as u32) ^ sb as u32) ^ sc as u32;
    }
    let mut chunks = blocks.remainder().chunks_exact(8);
    let mut wide = u64::from(state);
    for chunk in &mut chunks {
        wide = _mm_crc32_u64(wide, word(chunk));
    }
    let mut state = wide as u32;
    for &b in chunks.remainder() {
        state = _mm_crc32_u8(state, b);
    }
    !state
}

/// The portable kernel: slicing-by-8, then bytewise over the bytes left.
fn append_portable(crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    let mut state = !crc;
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let b = (word ^ u64::from(state)).to_le_bytes();
        state = TABLES[7][b[0] as usize]
            ^ TABLES[6][b[1] as usize]
            ^ TABLES[5][b[2] as usize]
            ^ TABLES[4][b[3] as usize]
            ^ TABLES[3][b[4] as usize]
            ^ TABLES[2][b[5] as usize]
            ^ TABLES[1][b[6] as usize]
            ^ TABLES[0][b[7] as usize];
    }
    for &b in chunks.remainder() {
        state = TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    !state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{Page, PageType, PAGE_SIZE};
    use crate::wal::{MemWalBackend, WalBackend, WriteAheadLog};
    use std::sync::Arc;

    /// The kernel every commit before this one ran, kept verbatim as the
    /// reference: one table, one byte a step.
    fn reference_append(crc: u32, data: &[u8]) -> u32 {
        const fn make_table() -> [u32; 256] {
            let mut table = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut crc = i as u32;
                let mut bit = 0;
                while bit < 8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ POLY
                    } else {
                        crc >> 1
                    };
                    bit += 1;
                }
                table[i] = crc;
                i += 1;
            }
            table
        }
        static TABLE: [u32; 256] = make_table();
        let mut crc = !crc;
        for &b in data {
            crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// Seeded bytes (an LCG; the tests need spread, not quality).
    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect()
    }

    /// The dispatcher, the portable kernel called directly and the
    /// reference agree on `data` continued from `crc`.
    fn assert_kernels_agree(crc: u32, data: &[u8]) {
        let want = reference_append(crc, data);
        assert_eq!(crc32c_append(crc, data), want, "dispatched, {data:?}");
        assert_eq!(append_portable(crc, data), want, "portable, {data:?}");
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32C check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 (iSCSI) test vectors.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        // Page-sized inputs, values computed with the bytewise loop.
        assert_eq!(crc32c(&[0u8; PAGE_SIZE]), 0x9044_4623);
        let ramp: Vec<u8> = (0..PAGE_SIZE).map(|i| i as u8).collect();
        assert_eq!(crc32c(&ramp), 0x2770_F75A);
        assert_kernels_agree(0, &ramp);
    }

    #[test]
    fn kernels_agree_at_every_length_and_alignment() {
        let buf = random_bytes(80, 1);
        for start in 0..8 {
            for len in 0..=64 {
                assert_kernels_agree(0, &buf[start..start + len]);
                assert_kernels_agree(0xDEAD_BEEF, &buf[start..start + len]);
            }
        }
    }

    #[test]
    fn kernels_agree_on_random_buffers_up_to_three_pages() {
        for seed in 0..40u64 {
            let len = (seed as usize * 6151) % (3 * PAGE_SIZE + 1);
            assert_kernels_agree(seed as u32, &random_bytes(len, seed));
        }
        assert_kernels_agree(0, &random_bytes(3 * PAGE_SIZE, 7));
    }

    #[test]
    fn kernels_agree_at_and_around_multiples_of_three_kib() {
        let buf = random_bytes(4 * 3072 + 64, 5);
        for blocks in 1..=4 {
            for len in blocks * 3072 - 9..=blocks * 3072 + 9 {
                for start in [0, 1, 3] {
                    assert_kernels_agree(0, &buf[start..start + len]);
                    assert_kernels_agree(0x1234_5678, &buf[start..start + len]);
                }
            }
        }
        // Blocks whose streams all see the same bytes, and zeros.
        assert_kernels_agree(0, &[0xA5; 3 * 3072]);
        assert_kernels_agree(0xFFFF_FFFF, &[0; 2 * 3072]);
    }

    #[test]
    fn append_matches_one_shot_at_every_split() {
        let data = random_bytes(200, 3);
        let whole = reference_append(0, &data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32c_append(crc32c(a), b), whole, "split at {split}");
            let portable = append_portable(append_portable(0, a), b);
            assert_eq!(portable, whole, "portable split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = vec![0x5Au8; 512];
        let crc = crc32c(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), crc, "flip at {byte}:{bit} undetected");
            }
        }
    }

    // -- cross-version: what the reference kernel wrote, this one reads ---

    /// Where a page image keeps its checksum: a little-endian `u32`
    /// computed over the image with these four bytes zero.
    const PAGE_CHECKSUM: std::ops::Range<usize> = 24..28;

    fn page_checksum_by_reference(image: &[u8]) -> u32 {
        let mut zeroed = image.to_vec();
        zeroed[PAGE_CHECKSUM].fill(0);
        reference_append(0, &zeroed)
    }

    fn filled_page() -> Page {
        let mut page = Page::new(PageType::Heap);
        let mut n = 0u64;
        while page
            .insert(&random_bytes(1 + (n as usize * 37) % 300, n))
            .is_some()
        {
            n += 1;
        }
        page
    }

    #[test]
    fn pages_sealed_by_either_kernel_verify_under_the_other() {
        let page = filled_page();
        // Written by the reference kernel, read here.
        let mut image = page.bytes().to_vec().into_boxed_slice();
        let crc = page_checksum_by_reference(&image);
        image[PAGE_CHECKSUM].copy_from_slice(&crc.to_le_bytes());
        let reread = Page::from_bytes(image).expect("a page the old kernel sealed");
        assert_eq!(reread.live_count(), page.live_count());
        // Written here, read by the reference kernel.
        let image = page.to_bytes();
        let stored = u32::from_le_bytes(image[PAGE_CHECKSUM].try_into().unwrap());
        assert_eq!(stored, page_checksum_by_reference(&image));
    }

    /// A WAL frame as the module docs of [`crate::wal`] lay it out.
    fn frame_by_reference(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&reference_append(0, payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn wal_frames_built_by_either_kernel_replay_under_the_other() {
        let image = filled_page().to_bytes();
        let page_record = [&[1u8][..], &5u64.to_le_bytes(), &image].concat();
        let commit_record = [&[2u8][..], &9u64.to_le_bytes()].concat();
        // Written by the reference kernel, replayed here.
        let old_log = MemWalBackend::new();
        old_log.append(&frame_by_reference(&page_record)).unwrap();
        old_log.append(&frame_by_reference(&commit_record)).unwrap();
        let out = WriteAheadLog::new(Box::new(old_log)).replay().unwrap();
        assert!(!out.torn_tail);
        assert_eq!((out.commits, out.last_seq), (1, Some(9)));
        assert_eq!(out.images, vec![(5, image.clone())]);
        // Written here: byte for byte the frames the reference builds.
        let log = Arc::new(MemWalBackend::new());
        let wal = WriteAheadLog::new(Box::new(log.clone()));
        wal.log_page(5, &image).unwrap();
        let seq = wal.commit().unwrap();
        let commit_record = [&[2u8][..], &seq.to_le_bytes()].concat();
        let want = [
            frame_by_reference(&page_record),
            frame_by_reference(&commit_record),
        ]
        .concat();
        assert_eq!(log.read_all().unwrap(), want);
    }
}
