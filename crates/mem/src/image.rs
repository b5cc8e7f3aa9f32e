//! Sparse copies of committed memory for system checkpoints.

use delorean_isa::Word;

/// Words per [`MemoryImage`] block.
pub const BLOCK_WORDS: usize = 64;

/// A copy of committed memory, the state a system checkpoint keeps.
///
/// The image holds its words as blocks of [`BLOCK_WORDS`]. A block whose
/// words are all zero is not stored, so an image costs memory only for
/// the blocks a run has written non-zero values to. The stored blocks
/// sit in one allocation, in address order. Every stored block holds a
/// non-zero word, and the last block is zero past the image's length,
/// so two images are equal exactly when their words are.
///
/// # Examples
///
/// ```
/// use delorean_isa::DataMemory;
/// use delorean_mem::Memory;
/// let mut m = Memory::new(1024);
/// m.store(7, 99);
/// let image = m.image();
/// assert_eq!(image.stored_blocks(), 1);
/// m.store(7, 0);
/// assert_eq!(Memory::from_image(&image).peek(7), 99);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryImage {
    len: usize,
    /// Whether each block is stored, in address order.
    stored: Vec<bool>,
    /// The stored blocks, in address order.
    blocks: Vec<[Word; BLOCK_WORDS]>,
}

/// One block of a [`MemoryImage`], as [`MemoryImage::blocks`] yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block<'a> {
    /// This many words, all zero: the image stores nothing for them.
    Zero(usize),
    /// The block's words, at least one of them non-zero.
    Words(&'a [Word]),
}

impl MemoryImage {
    /// The image of `words`.
    pub fn from_words(words: &[Word]) -> Self {
        Self::collect(words, |&w| w)
    }

    /// The image of words stored little-endian, as `.dlrn` and `.dlrnx`
    /// files store them.
    pub fn from_le_bytes(words: &[[u8; 8]]) -> Self {
        Self::collect(words, |&b| Word::from_le_bytes(b))
    }

    /// Finds the non-zero blocks first, so that their storage is
    /// allocated once, at its final size.
    fn collect<T>(items: &[T], word: impl Fn(&T) -> Word) -> Self {
        // An OR over each block, not `any`: it vectorizes.
        let stored: Vec<bool> = items
            .chunks(BLOCK_WORDS)
            .map(|chunk| chunk.iter().fold(0, |acc, x| acc | word(x)) != 0)
            .collect();
        let mut blocks = Vec::with_capacity(stored.iter().filter(|&&s| s).count());
        for (chunk, _) in items.chunks(BLOCK_WORDS).zip(&stored).filter(|(_, &s)| s) {
            let mut block = [0; BLOCK_WORDS];
            for (w, x) in block.iter_mut().zip(chunk) {
                *w = word(x);
            }
            blocks.push(block);
        }
        Self {
            len: items.len(),
            stored,
            blocks,
        }
    }

    /// Length in words.
    pub fn len(&self) -> u64 {
        self.len as u64
    }

    /// Whether the image holds no words.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Blocks stored: those holding a non-zero word.
    pub fn stored_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The blocks in address order. Each spans [`BLOCK_WORDS`] words
    /// except the last, which spans the rest of the image.
    pub fn blocks(&self) -> impl Iterator<Item = Block<'_>> {
        let len = self.len;
        let mut blocks = self.blocks.iter();
        self.stored.iter().enumerate().map(move |(i, &stored)| {
            let n = (len - i * BLOCK_WORDS).min(BLOCK_WORDS);
            match stored.then(|| blocks.next()).flatten() {
                Some(words) => Block::Words(&words[..n]),
                None => Block::Zero(n),
            }
        })
    }

    /// The words in address order. Only stored blocks are written into
    /// the zeroed result.
    pub fn to_words(&self) -> Vec<Word> {
        let mut words = vec![0; self.len];
        for (out, block) in words.chunks_mut(BLOCK_WORDS).zip(self.blocks()) {
            if let Block::Words(block) = block {
                out.copy_from_slice(block);
            }
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Memory;
    use delorean_isa::layout::AddressMap;
    use delorean_isa::DataMemory;

    /// Words with zero blocks, non-zero blocks and a block whose only
    /// non-zero word is its last.
    fn pattern(len: usize) -> Vec<Word> {
        (0..len)
            .map(|i| match (i / BLOCK_WORDS) % 3 {
                0 => 0,
                1 => (i as Word).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
                _ => Word::from(i % BLOCK_WORDS == BLOCK_WORDS - 1),
            })
            .collect()
    }

    fn le_bytes(words: &[Word]) -> Vec<[u8; 8]> {
        words.iter().map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn words_round_trip_through_an_image() {
        let machines = [8, 16].map(|n| AddressMap::new(n).total_words() as usize);
        // The benchmark machines' memories end in a 4-word partial block.
        assert_eq!(machines, [198_788, 329_988]);
        for len in [0, 1, 63, 64, 65].into_iter().chain(machines) {
            for words in [vec![0; len], vec![u64::MAX; len], pattern(len)] {
                let image = MemoryImage::from_words(&words);
                assert_eq!(image.len(), len as u64);
                assert_eq!(image.is_empty(), len == 0);
                assert_eq!(image.to_words(), words, "{len} words");
                let spans: usize = image
                    .blocks()
                    .map(|b| match b {
                        Block::Zero(n) => n,
                        Block::Words(w) => w.len(),
                    })
                    .sum();
                assert_eq!(spans, len);
                let nonzero = words
                    .chunks(BLOCK_WORDS)
                    .filter(|c| c.iter().any(|&w| w != 0))
                    .count();
                assert_eq!(image.stored_blocks(), nonzero, "{len} words");
            }
        }
    }

    #[test]
    fn images_of_the_same_words_are_equal_however_built() {
        for len in [1, 64, 65, 1000] {
            let words = pattern(len);
            let mut m = Memory::new(len as u64);
            // Every block is written once, then the pattern is laid over.
            for a in 0..len as u64 {
                m.store(a, 7);
            }
            for (a, &w) in words.iter().enumerate() {
                m.store(a as u64, w);
            }
            let from_words = MemoryImage::from_words(&words);
            let captured = m.image();
            let decoded = MemoryImage::from_le_bytes(&le_bytes(&words));
            let restored = Memory::from_image(&decoded).image();
            assert_eq!(captured, from_words, "{len} words");
            assert_eq!(decoded, from_words, "{len} words");
            assert_eq!(restored, from_words, "{len} words");
        }
        let mut other = pattern(65);
        other[64] ^= 1;
        assert_ne!(
            MemoryImage::from_words(&other),
            MemoryImage::from_words(&pattern(65))
        );
        assert_ne!(
            MemoryImage::from_words(&[0; 64]),
            MemoryImage::from_words(&[0; 65])
        );
    }
}
