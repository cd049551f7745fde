//! Dictionary-packed fragment text: the field behind payload tags 13 / 14.
//!
//! A fragment is XML text that `sensorxml::serialize` wrote, so the same
//! few names, attribute names and values (`parkingSpace`, `status`,
//! `complete`, …) repeat dozens of times. The packed field replaces the
//! text by a preorder event stream in which every string is sent once and
//! referenced by index afterwards. Packing is a *scan*, not a parse:
//! attribute values and text stay in their escaped form, entities are
//! never interpreted, and unpacking concatenates the same pieces back, so
//! the text is reproduced byte for byte.
//!
//! ## Scanner grammar
//!
//! ```text
//! content  := ( text | element )*
//! element  := '<' name attr* '/>'
//!           | '<' name attr* '>' content '</' name '>'      (same name)
//! attr     := ' ' name '="' value '"'
//! name     := [A-Za-z0-9_.:-] | byte >= 0x80, one or more
//! value    := any bytes except '"' and '<'
//! text     := any bytes except '<', one or more
//! ```
//!
//! Anything else — single quotes, doubled spaces, `</a >`, comments, CDATA,
//! processing instructions, mismatched or unclosed tags, nesting deeper
//! than [`PACKED_MAX_DEPTH`] — is not in the grammar: [`pack`] returns
//! `false` and the caller ships the raw text (tags 4 / 7).
//!
//! ## Field layout (runs to the end of the payload)
//!
//! ```text
//! varint text_len                       byte length of the unpacked text
//! event*                                until the payload ends
//!   varint 0                            close the innermost open element
//!   varint (ref << 2) | 1               text run
//!   varint (nattrs << 2) | 2, ref name, nattrs x (ref name, ref value)
//!                                       open element, '>' form
//!   varint (nattrs << 2) | 3, ...       open element, '/>' form
//! ref := varint (len << 1), len bytes   first use; a non-empty string is
//!                                       appended to the dictionary
//!      | varint (index << 1) | 1        dictionary back-reference
//! ```
//!
//! Varints are unsigned LEB128.

use super::WireError;

/// Deepest element nesting a packed field may carry. Deeper text is
/// shipped raw by the encoder and rejected by the decoder.
pub const PACKED_MAX_DEPTH: usize = 256;

/// Largest ratio of unpacked text length to packed field length. The
/// decoder allocates the text buffer once, from the declared length, and
/// only after checking it against this bound — so unpacking a field of `n`
/// bytes never holds more than `PACKED_MAX_EXPANSION * n` bytes of text
/// plus `8 * n` bytes of dictionary, whatever the bytes say. The encoder
/// ships text that would pack tighter than this raw.
pub const PACKED_MAX_EXPANSION: usize = 32;

const CLOSE: u64 = 0;
const TEXT: u64 = 1;
const OPEN: u64 = 2;
const OPEN_SELF_CLOSED: u64 = 3;

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// `sensorxml::parser::is_name_byte` as a table: the scanner accepts as a
/// name exactly what the receiving parser does.
static NAME_BYTE: [bool; 256] = {
    let mut t = [false; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = sensorxml::parser::is_name_byte(b as u8);
        b += 1;
    }
    t
};

/// End of the name starting at `from` (equal to `from` when there is none).
fn name_end(b: &[u8], from: usize) -> usize {
    from + b[from..].iter().position(|&c| !NAME_BYTE[c as usize]).unwrap_or(b.len() - from)
}

/// The encoder's view of the dictionary: a direct-mapped table from a
/// cheap hash of a string to the index the decoder gave its latest literal.
/// A colliding string simply takes the slot over and the displaced one is
/// sent as a literal again next time (the decoder appends every non-empty
/// literal, so indices stay in step) — a poor hash costs bytes, never
/// time, which is why no keyed hasher is needed for text that originates
/// outside the program.
struct Packer<'a> {
    slots: Vec<(&'a [u8], u64)>,
    /// Dictionary index the next non-empty literal receives.
    next: u64,
}

const SLOTS: usize = 1024;

impl<'a> Packer<'a> {
    fn new() -> Self {
        Packer { slots: vec![(&[][..], 0); SLOTS], next: 0 }
    }

    /// Writes `s` as a `ref`, shifted left by `shift` bits with `low` in
    /// the freed bits (the text event folds its kind into the reference).
    fn put_ref(&mut self, buf: &mut Vec<u8>, s: &'a [u8], shift: u32, low: u64) {
        // FNV-1a over the length and a bounded prefix.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ s.len() as u64;
        for &b in &s[..s.len().min(24)] {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let slot = &mut self.slots[((h >> 32) ^ h) as usize % SLOTS];
        if slot.0 == s && !s.is_empty() {
            put_varint(buf, (((slot.1 << 1) | 1) << shift) | low);
            return;
        }
        put_varint(buf, ((s.len() as u64) << (1 + shift)) | low);
        buf.extend_from_slice(s);
        if !s.is_empty() {
            *slot = (s, self.next);
            self.next += 1;
        }
    }
}

/// Appends the packed form of `xml` to `buf`. Returns `false` — leaving
/// `buf` with a partial field the caller must truncate — when the text is
/// outside the scanner grammar.
pub(super) fn pack(xml: &str, buf: &mut Vec<u8>) -> bool {
    let b = xml.as_bytes();
    put_varint(buf, b.len() as u64);
    let mut packer = Packer::new();
    let mut open: Vec<&[u8]> = Vec::new();
    let mut attrs: Vec<(&[u8], &[u8])> = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i] != b'<' {
            let end = i + b[i..].iter().position(|&c| c == b'<').unwrap_or(b.len() - i);
            packer.put_ref(buf, &b[i..end], 2, TEXT);
            i = end;
            continue;
        }
        if b.get(i + 1) == Some(&b'/') {
            let end = name_end(b, i + 2);
            if open.pop() != Some(&b[i + 2..end]) || b.get(end) != Some(&b'>') {
                return false;
            }
            put_varint(buf, CLOSE);
            i = end + 1;
            continue;
        }
        let end = name_end(b, i + 1);
        if end == i + 1 {
            return false;
        }
        let name = &b[i + 1..end];
        i = end;
        attrs.clear();
        let self_closed = loop {
            match b.get(i) {
                Some(b'>') => {
                    i += 1;
                    break false;
                }
                Some(b'/') if b.get(i + 1) == Some(&b'>') => {
                    i += 2;
                    break true;
                }
                Some(b' ') => {
                    let an_end = name_end(b, i + 1);
                    if an_end == i + 1 || !b[an_end..].starts_with(b"=\"") {
                        return false;
                    }
                    let v = an_end + 2;
                    let Some(len) = b[v..].iter().position(|&c| c == b'"' || c == b'<') else {
                        return false;
                    };
                    if b[v + len] != b'"' {
                        return false;
                    }
                    attrs.push((&b[i + 1..an_end], &b[v..v + len]));
                    i = v + len + 1;
                }
                _ => return false,
            }
        };
        let kind = if self_closed { OPEN_SELF_CLOSED } else { OPEN };
        put_varint(buf, ((attrs.len() as u64) << 2) | kind);
        packer.put_ref(buf, name, 0, 0);
        for &(an, av) in &attrs {
            packer.put_ref(buf, an, 0, 0);
            packer.put_ref(buf, av, 0, 0);
        }
        if !self_closed {
            if open.len() == PACKED_MAX_DEPTH {
                return false;
            }
            open.push(name);
        }
    }
    open.is_empty()
}

fn bad(what: &'static str) -> WireError {
    WireError::BadPackedFragment(what)
}

/// Reader over a packed field; strings are `(start, len)` into `buf`, so
/// the dictionary costs 8 bytes per entry and borrows nothing.
struct Unpacker<'a> {
    buf: &'a [u8],
    pos: usize,
    dict: Vec<(u32, u32)>,
    /// The text, allocated once at its declared (and bounded) length and
    /// filled up to `filled`.
    out: Vec<u8>,
    filled: usize,
}

impl<'a> Unpacker<'a> {
    fn varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
            self.pos += 1;
            // The tenth byte may only carry the 64th bit.
            if shift == 63 && byte > 1 {
                return Err(bad("varint longer than 64 bits"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Resolves a `ref` whose varint value (kind bits already shifted
    /// away) is `r`.
    fn resolve(&mut self, r: u64) -> Result<&'a [u8], WireError> {
        if r & 1 == 1 {
            let &(start, len) = usize::try_from(r >> 1)
                .ok()
                .and_then(|i| self.dict.get(i))
                .ok_or(bad("dictionary index out of range"))?;
            return Ok(&self.buf[start as usize..(start + len) as usize]);
        }
        let len = usize::try_from(r >> 1).map_err(|_| bad("string runs past the payload"))?;
        if self.buf.len() - self.pos < len {
            return Err(bad("string runs past the payload"));
        }
        let s = &self.buf[self.pos..self.pos + len];
        if len > 0 {
            // `buf` is part of a frame payload, whose length is a u32.
            self.dict.push((self.pos as u32, len as u32));
        }
        self.pos += len;
        Ok(s)
    }

    fn next_ref(&mut self) -> Result<&'a [u8], WireError> {
        let r = self.varint()?;
        self.resolve(r)
    }

    /// Appends to the text, never past its declared length.
    fn emit<const N: usize>(&mut self, pieces: [&[u8]; N]) -> Result<(), WireError> {
        for p in pieces {
            self.out
                .get_mut(self.filled..self.filled + p.len())
                .ok_or(bad("text longer than declared"))?
                .copy_from_slice(p);
            self.filled += p.len();
        }
        Ok(())
    }
}

/// Rebuilds the fragment text from a packed field (the rest of a tag-13 /
/// tag-14 payload). Never panics and never allocates past the bound stated
/// on [`PACKED_MAX_EXPANSION`], whatever `field` holds.
pub(super) fn unpack(field: &[u8]) -> Result<String, WireError> {
    let mut u = Unpacker { buf: field, pos: 0, dict: Vec::new(), out: Vec::new(), filled: 0 };
    let text_len = usize::try_from(u.varint()?)
        .ok()
        .filter(|&n| n <= field.len().saturating_mul(PACKED_MAX_EXPANSION))
        .ok_or(bad("declared text length past the expansion bound"))?;
    u.out = vec![0; text_len];
    let mut open: Vec<&[u8]> = Vec::new();
    while u.pos < field.len() {
        let h = u.varint()?;
        match h & 3 {
            CLOSE => {
                if h != CLOSE {
                    return Err(bad("close event with operand bits"));
                }
                let name = open.pop().ok_or(bad("close without open"))?;
                u.emit([b"</", name, b">"])?;
            }
            TEXT => {
                let s = u.resolve(h >> 2)?;
                u.emit([s])?;
            }
            kind => {
                let name = u.next_ref()?;
                u.emit([b"<", name])?;
                for _ in 0..h >> 2 {
                    let an = u.next_ref()?;
                    let av = u.next_ref()?;
                    u.emit([b" ", an, b"=\"", av, b"\""])?;
                }
                if kind == OPEN_SELF_CLOSED {
                    u.emit([b"/>"])?;
                } else {
                    if open.len() == PACKED_MAX_DEPTH {
                        return Err(bad("nesting deeper than the depth cap"));
                    }
                    open.push(name);
                    u.emit([b">"])?;
                }
            }
        }
    }
    if !open.is_empty() {
        return Err(bad("unclosed element at end of payload"));
    }
    if u.filled != text_len {
        return Err(bad("text shorter than declared"));
    }
    String::from_utf8(u.out).map_err(|_| WireError::BadUtf8)
}
