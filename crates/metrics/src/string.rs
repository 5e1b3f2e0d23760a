//! String space under Levenshtein edit distance (the paper's Words dataset).

use crate::dataset::Dataset;
use crate::Rounding;

/// Levenshtein edit distance between two byte strings: the minimum number of
/// single-byte insertions, deletions and substitutions turning `a` into `b`.
///
/// Two-row dynamic program, `O(|a|·|b|)` time and `O(min(|a|,|b|))` space.
pub fn edit_distance(a: &[u8], b: &[u8]) -> u32 {
    // Keep the DP row as short as possible.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len() as u32;
    }
    // prev[j] = distance between long[..i] and short[..j] for the previous i.
    let mut prev: Vec<u32> = (0..=short.len() as u32).collect();
    let mut curr = vec![0u32; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        curr[0] = i as u32 + 1;
        for (j, &sc) in short.iter().enumerate() {
            let sub = prev[j] + u32::from(lc != sc);
            let del = prev[j + 1] + 1;
            let ins = curr[j] + 1;
            curr[j + 1] = sub.min(del).min(ins);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[short.len()]
}

/// A set of strings stored in one flat byte buffer with an offset table,
/// exposing Levenshtein edit distance through [`Dataset`].
///
/// The flat layout avoids one heap allocation per string and keeps
/// sequential scans cache-friendly (the verification phase scans many
/// strings in id order).
pub struct StringSet {
    bytes: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` is the byte range of string `i`.
    offsets: Vec<u32>,
}

impl StringSet {
    /// Builds a set from anything yielding string-like items.
    pub fn new<I, S>(items: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut bytes = Vec::new();
        let mut offsets = vec![0u32];
        for item in items {
            bytes.extend_from_slice(item.as_ref().as_bytes());
            offsets.push(u32::try_from(bytes.len()).expect("string set exceeds 4 GiB"));
        }
        Self { bytes, offsets }
    }

    /// The bytes of string `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The string `i` as UTF-8 (callers constructed it from `&str`, so this
    /// cannot fail for sets built via [`StringSet::new`]).
    pub fn get_str(&self, i: usize) -> &str {
        std::str::from_utf8(self.get(i)).expect("StringSet holds valid UTF-8")
    }

    /// Length in bytes of string `i`.
    pub fn str_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Bytes of object storage (used by the index-size experiment).
    pub fn data_bytes(&self) -> usize {
        self.bytes.len() + self.offsets.len() * std::mem::size_of::<u32>()
    }
}

impl Dataset for StringSet {
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn dist(&self, i: usize, j: usize) -> f64 {
        edit_distance(self.get(i), self.get(j)) as f64
    }

    /// Edit distances are integers, so bounds over them are exact.
    fn rounding(&self) -> Rounding {
        Rounding::EXACT
    }

    /// FNV-1a over every string's bytes with length framing, so moving a
    /// boundary between adjacent strings changes the digest.
    fn content_digest(&self) -> u64 {
        let mut h = crate::Fnv1a::new();
        for i in 0..self.len() {
            h.write_u64(self.str_len(i) as u64);
            h.write(self.get(i));
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_textbook_cases() {
        assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
        assert_eq!(edit_distance(b"flaw", b"lawn"), 2);
        assert_eq!(edit_distance(b"", b"abc"), 3);
        assert_eq!(edit_distance(b"abc", b""), 3);
        assert_eq!(edit_distance(b"", b""), 0);
        assert_eq!(edit_distance(b"same", b"same"), 0);
    }

    #[test]
    fn edit_distance_is_symmetric_on_samples() {
        let pairs: &[(&[u8], &[u8])] =
            &[(b"abcdef", b"azced"), (b"x", b"yyyy"), (b"hello", b"world")];
        for &(a, b) in pairs {
            assert_eq!(edit_distance(a, b), edit_distance(b, a));
        }
    }

    #[test]
    fn edit_distance_single_edits() {
        assert_eq!(edit_distance(b"cat", b"cut"), 1); // substitution
        assert_eq!(edit_distance(b"cat", b"cats"), 1); // insertion
        assert_eq!(edit_distance(b"cat", b"at"), 1); // deletion
    }

    #[test]
    fn string_set_round_trips() {
        let s = StringSet::new(["alpha", "beta", ""]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get_str(0), "alpha");
        assert_eq!(s.get_str(1), "beta");
        assert_eq!(s.get_str(2), "");
        assert_eq!(s.str_len(0), 5);
    }

    #[test]
    fn string_set_distance_matches_function() {
        let s = StringSet::new(["kitten", "sitting"]);
        assert_eq!(s.dist(0, 1), 3.0);
        assert_eq!(s.dist(1, 0), 3.0);
        assert_eq!(s.dist(0, 0), 0.0);
        assert_eq!(
            s.rounding(),
            Rounding::EXACT,
            "integer distances round nothing"
        );
    }

    #[test]
    fn empty_string_set() {
        let s = StringSet::new(Vec::<String>::new());
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn data_bytes_accounts_for_offsets() {
        let s = StringSet::new(["ab", "c"]);
        assert_eq!(s.data_bytes(), 3 + 3 * 4);
    }
}
