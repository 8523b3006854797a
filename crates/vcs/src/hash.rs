//! SHA-256, implemented from the FIPS 180-4 specification.
//!
//! Content addressing is the backbone of both the object store and the
//! build system's target hashes (paper Algorithm 1 "converts the message
//! digest to a target hash — a fixed length hash value"). We implement the
//! digest ourselves rather than pulling a crypto dependency: the offline
//! crate set has none, and 32-bit word arithmetic is all that's needed.

/// Streaming SHA-256 hasher.
///
/// Two hashers are equal when they are in the same state: the same
/// chaining words, message length and unprocessed bytes, so that the same
/// input from here on gives both the same digest.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

const K: [u32; 64] = [
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3, 0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13, 0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208, 0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
];

const H0: [u32; 8] = [
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A, 0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
];

impl PartialEq for Sha256 {
    fn eq(&self, other: &Sha256) -> bool {
        // The buffer past `buf_len` holds leftovers of earlier blocks.
        self.state == other.state
            && self.total_len == other.total_len
            && self.buf[..self.buf_len] == other.buf[..other.buf_len]
    }
}

impl Eq for Sha256 {}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Fill a partial block first.
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input.
        let mut blocks = data.chunks_exact(64);
        for block in blocks.by_ref() {
            self.compress(block.try_into().expect("chunks_exact yields 64 bytes"));
        }
        data = blocks.remainder();
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 mod 64, 64-bit big-endian length.
        let zeros = (119 - self.buf_len) % 64;
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..9 + zeros]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// One 64-byte block. The message schedule lives in a 16-word ring
    /// (`w[i & 15]` holds word `i`, computed just before round `i` uses
    /// it), and the rounds are unrolled eight at a time with the working
    /// variables renamed instead of shifted.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        // Round `i` over the working variables in their current roles;
        // from round 16 on it first extends the schedule by word `i`.
        macro_rules! round {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
             $i:expr, $extend:literal) => {{
                let i = $i;
                if $extend {
                    let w15 = w[(i + 1) & 15];
                    let w2 = w[(i + 14) & 15];
                    let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                    let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                    w[i & 15] = w[i & 15]
                        .wrapping_add(s0)
                        .wrapping_add(w[(i + 9) & 15])
                        .wrapping_add(s1);
                }
                let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
                let ch = ($e & $f) ^ (!$e & $g);
                let t1 = $h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i & 15]);
                let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
                let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(s0.wrapping_add(maj));
            }};
        }
        macro_rules! eight_rounds {
            ($i:expr, $extend:literal) => {{
                round!(a, b, c, d, e, f, g, h, $i, $extend);
                round!(h, a, b, c, d, e, f, g, $i + 1, $extend);
                round!(g, h, a, b, c, d, e, f, $i + 2, $extend);
                round!(f, g, h, a, b, c, d, e, $i + 3, $extend);
                round!(e, f, g, h, a, b, c, d, $i + 4, $extend);
                round!(d, e, f, g, h, a, b, c, $i + 5, $extend);
                round!(c, d, e, f, g, h, a, b, $i + 6, $extend);
                round!(b, c, d, e, f, g, h, a, $i + 7, $extend);
            }};
        }
        eight_rounds!(0, false);
        eight_rounds!(8, false);
        for i in (16..64).step_by(8) {
            eight_rounds!(i, true);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Append the lowercase hex form of `digest` to `out`. The one hex
/// encoder of the workspace: object ids, target hashes and the canonical
/// tree encoding (which persisted commit ids hash over) all go through it.
pub fn hex_into(digest: &[u8], out: &mut Vec<u8>) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(digest.len() * 2);
    for &b in digest {
        out.push(HEX[(b >> 4) as usize]);
        out.push(HEX[(b & 0xF) as usize]);
    }
}

/// Render a digest as lowercase hex.
pub fn to_hex(digest: &[u8]) -> String {
    let mut out = Vec::new();
    hex_into(digest, &mut out);
    String::from_utf8(out).expect("hex digits are ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_empty_vector() {
        assert_eq!(
            to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn equal_states_are_equal_whatever_their_buffers_held() {
        // The same input in different pieces; the second also left the
        // bytes of a whole block behind in its buffer.
        let mut a = Sha256::new();
        a.update(&[7u8; 70]);
        let mut b = Sha256::new();
        b.update(&[7u8; 60]);
        b.update(&[7u8; 10]);
        assert_eq!(a, b);
        b.update(b"x");
        assert_ne!(a, b);
        a.update(b"x");
        assert_eq!(a.finalize(), b.finalize());
    }

    #[test]
    fn fips_abc_vector() {
        assert_eq!(
            to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_two_block_vector() {
        assert_eq!(
            to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_one_shot_at_all_split_points() {
        let data: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        let expect = Sha256::digest(&data);
        for split in [0usize, 1, 63, 64, 65, 128, 200, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"hello"), Sha256::digest(b"hellp"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\0"));
    }

    #[test]
    fn to_hex_format() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(to_hex(&[]), "");
    }

    #[test]
    fn hex_into_appends_and_matches_format_per_byte() {
        let all: Vec<u8> = (0..=255).collect();
        let reference: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(to_hex(&all), reference);
        let mut out = b"id ".to_vec();
        hex_into(&[0xab, 0x01], &mut out);
        assert_eq!(out, b"id ab01");
    }
}
