//! Length-framed binary wire format for inter-site messages.
//!
//! Every site-to-site [`Message`] crossing a shard boundary in the sharded
//! runtime is encoded into a frame and decoded on the receiving shard —
//! exactly the boundary a length-framed TCP transport would impose, proven
//! end to end while staying in-process (a socket transport can slot in
//! underneath without touching the codec). The layout follows the DXQ
//! spec's serialized query/answer discipline: a version byte, an explicit
//! payload length, then a tagged payload.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! +---------+-------------+--------------------------+
//! | version |  len: u32   |  payload (len bytes)     |
//! |  1 byte |  4 bytes    |  tag u8 + fields         |
//! +---------+-------------+--------------------------+
//! ```
//!
//! Field encodings: `u64`/`u32` fixed-width LE; `bool` one byte (0/1);
//! strings as `u32` byte length + UTF-8 bytes; [`IdPath`] as `u32` segment
//! count + `(tag, id)` string pairs; vectors as `u32` count + elements.
//! The golden-bytes test in `tests/wire_prop.rs` pins this layout — any
//! change is a protocol version bump, not a silent re-encode.
//!
//! The fragment text of `SubAnswer` / `TakeOwnership` has two encodings,
//! chosen per frame from the text itself: the dictionary-packed event
//! stream of [`packed`] (tags 13 / 14) when the text is in the packer's
//! grammar and packs strictly shorter, the raw string (tags 4 / 7)
//! otherwise. Both decode to the identical `Message`.

mod packed;

use irisdns::SiteAddr;
use irisnet_core::{Endpoint, IdPath, Message};

pub use packed::{PACKED_MAX_DEPTH, PACKED_MAX_EXPANSION};

/// Wire protocol version; the first byte of every frame.
pub const WIRE_VERSION: u8 = 1;

/// Bytes before the payload: version byte + `u32` payload length.
pub const FRAME_HEADER_LEN: usize = 5;

/// Payload tags, one per [`Message`] variant.
mod tag {
    pub const USER_QUERY: u8 = 1;
    pub const SUB_QUERY: u8 = 2;
    pub const SUB_QUERY_BATCH: u8 = 3;
    pub const SUB_ANSWER: u8 = 4;
    pub const UPDATE: u8 = 5;
    pub const DELEGATE: u8 = 6;
    pub const TAKE_OWNERSHIP: u8 = 7;
    pub const TAKE_ACK: u8 = 8;
    pub const SUBSCRIBE: u8 = 9;
    pub const UNSUBSCRIBE: u8 = 10;
    // Tags 11/12 were appended for the telemetry scrape protocol; a
    // version-1 decoder predating them rejects the frame with
    // `UnknownTag` rather than misreading it, so no version bump.
    pub const TELEMETRY_REQUEST: u8 = 11;
    pub const TELEMETRY_REPLY: u8 = 12;
    // Tags 13/14 carry the same messages as 4/7 with the fragment text
    // dictionary-packed (see `packed`); appended under the same rule.
    pub const SUB_ANSWER_PACKED: u8 = 13;
    pub const TAKE_OWNERSHIP_PACKED: u8 = 14;
}

/// Decode failures. Every variant names what the peer got wrong, so a
/// future socket transport can log-and-drop without guessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the header (or the declared payload) requires.
    Truncated,
    /// Unsupported protocol version byte.
    Version(u8),
    /// Unknown payload tag.
    UnknownTag(u8),
    /// Bytes left over after the payload fully decoded.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A packed fragment field (tags 13 / 14) is structurally invalid; the
    /// payload names what was wrong.
    BadPackedFragment(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Version(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownTag(t) => write!(f, "unknown payload tag {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadPackedFragment(what) => write!(f, "bad packed fragment: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_path(buf: &mut Vec<u8>, p: &IdPath) {
    let segs = p.segments();
    put_u32(buf, segs.len() as u32);
    for (tag, id) in segs {
        put_str(buf, tag);
        put_str(buf, id);
    }
}

/// Writes fragment text as the last field of a payload: packed when the
/// text is in the packer's grammar, packs strictly shorter than the text
/// and stays inside the decoder's expansion bound; raw otherwise, with the
/// payload tag rewritten to `raw_tag`. (The empty fragment — "no data" —
/// cannot get shorter, so it is not even tried.)
fn put_fragment(buf: &mut Vec<u8>, raw_tag: u8, xml: &str) {
    let start = buf.len();
    let packed = !xml.is_empty() && packed::pack(xml, buf) && {
        let len = buf.len() - start;
        len < xml.len() && xml.len() <= len * PACKED_MAX_EXPANSION
    };
    if !packed {
        buf.truncate(start);
        buf[FRAME_HEADER_LEN] = raw_tag;
        put_str(buf, xml);
    }
}

/// Encodes one message into a complete frame (header + payload).
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    // The header is written first and its length patched at the end, so
    // the payload is built in place.
    let mut p = Vec::with_capacity(64);
    p.push(WIRE_VERSION);
    put_u32(&mut p, 0);
    match msg {
        Message::UserQuery { qid, text, endpoint } => {
            p.push(tag::USER_QUERY);
            put_u64(&mut p, *qid);
            put_u64(&mut p, endpoint.0);
            put_str(&mut p, text);
        }
        Message::SubQuery { qid, text, reply_to } => {
            p.push(tag::SUB_QUERY);
            put_u64(&mut p, *qid);
            put_u32(&mut p, reply_to.0);
            put_str(&mut p, text);
        }
        Message::SubQueryBatch { entries, reply_to } => {
            p.push(tag::SUB_QUERY_BATCH);
            put_u32(&mut p, reply_to.0);
            put_u32(&mut p, entries.len() as u32);
            for (qid, text) in entries {
                put_u64(&mut p, *qid);
                put_str(&mut p, text);
            }
        }
        Message::SubAnswer { qid, fragment_xml, partial } => {
            p.push(tag::SUB_ANSWER_PACKED);
            put_u64(&mut p, *qid);
            put_bool(&mut p, *partial);
            put_fragment(&mut p, tag::SUB_ANSWER, fragment_xml);
        }
        Message::Update { path, fields } => {
            p.push(tag::UPDATE);
            put_path(&mut p, path);
            put_u32(&mut p, fields.len() as u32);
            for (k, v) in fields {
                put_str(&mut p, k);
                put_str(&mut p, v);
            }
        }
        Message::Delegate { path, to } => {
            p.push(tag::DELEGATE);
            put_path(&mut p, path);
            put_u32(&mut p, to.0);
        }
        Message::TakeOwnership { path, fragment_xml, from } => {
            p.push(tag::TAKE_OWNERSHIP_PACKED);
            put_path(&mut p, path);
            put_u32(&mut p, from.0);
            put_fragment(&mut p, tag::TAKE_OWNERSHIP, fragment_xml);
        }
        Message::TakeAck { path, new_owner } => {
            p.push(tag::TAKE_ACK);
            put_path(&mut p, path);
            put_u32(&mut p, new_owner.0);
        }
        Message::Subscribe { qid, text, endpoint } => {
            p.push(tag::SUBSCRIBE);
            put_u64(&mut p, *qid);
            put_u64(&mut p, endpoint.0);
            put_str(&mut p, text);
        }
        Message::Unsubscribe { qid } => {
            p.push(tag::UNSUBSCRIBE);
            put_u64(&mut p, *qid);
        }
        Message::TelemetryRequest { qid, reply_to, endpoint, what } => {
            p.push(tag::TELEMETRY_REQUEST);
            put_u64(&mut p, *qid);
            put_u32(&mut p, reply_to.0);
            put_u64(&mut p, endpoint.0);
            p.push(*what);
        }
        Message::TelemetryReply { qid, payload } => {
            p.push(tag::TELEMETRY_REPLY);
            put_u64(&mut p, *qid);
            put_str(&mut p, payload);
        }
    }
    let len = (p.len() - FRAME_HEADER_LEN) as u32;
    p[1..FRAME_HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    p
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn boolean(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn path(&mut self) -> Result<IdPath, WireError> {
        let n = self.u32()? as usize;
        // Bound preallocation by what the buffer can actually hold (each
        // segment needs at least two length prefixes).
        let mut segs = Vec::with_capacity(n.min(self.buf.len() / 8 + 1));
        for _ in 0..n {
            let tag = self.string()?;
            let id = self.string()?;
            segs.push((tag, id));
        }
        Ok(IdPath::from_pairs(segs))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A packed fragment field: everything left in the payload.
    fn packed_fragment(&mut self) -> Result<String, WireError> {
        let field = &self.buf[self.pos..];
        self.pos = self.buf.len();
        packed::unpack(field)
    }
}

/// Decodes one payload (everything after the frame header).
fn decode_payload(payload: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader { buf: payload, pos: 0 };
    let msg = match r.u8()? {
        tag::USER_QUERY => {
            let qid = r.u64()?;
            let endpoint = Endpoint(r.u64()?);
            let text = r.string()?;
            Message::UserQuery { qid, text, endpoint }
        }
        tag::SUB_QUERY => {
            let qid = r.u64()?;
            let reply_to = SiteAddr(r.u32()?);
            let text = r.string()?;
            Message::SubQuery { qid, text, reply_to }
        }
        tag::SUB_QUERY_BATCH => {
            let reply_to = SiteAddr(r.u32()?);
            let n = r.u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(payload.len() / 12 + 1));
            for _ in 0..n {
                let qid = r.u64()?;
                let text = r.string()?;
                entries.push((qid, text));
            }
            Message::SubQueryBatch { entries, reply_to }
        }
        t @ (tag::SUB_ANSWER | tag::SUB_ANSWER_PACKED) => {
            let qid = r.u64()?;
            let partial = r.boolean()?;
            let fragment_xml =
                if t == tag::SUB_ANSWER { r.string()? } else { r.packed_fragment()? };
            Message::SubAnswer { qid, fragment_xml, partial }
        }
        tag::UPDATE => {
            let path = r.path()?;
            let n = r.u32()? as usize;
            let mut fields = Vec::with_capacity(n.min(payload.len() / 8 + 1));
            for _ in 0..n {
                let k = r.string()?;
                let v = r.string()?;
                fields.push((k, v));
            }
            Message::Update { path, fields }
        }
        tag::DELEGATE => {
            let path = r.path()?;
            let to = SiteAddr(r.u32()?);
            Message::Delegate { path, to }
        }
        t @ (tag::TAKE_OWNERSHIP | tag::TAKE_OWNERSHIP_PACKED) => {
            let path = r.path()?;
            let from = SiteAddr(r.u32()?);
            let fragment_xml =
                if t == tag::TAKE_OWNERSHIP { r.string()? } else { r.packed_fragment()? };
            Message::TakeOwnership { path, fragment_xml, from }
        }
        tag::TAKE_ACK => {
            let path = r.path()?;
            let new_owner = SiteAddr(r.u32()?);
            Message::TakeAck { path, new_owner }
        }
        tag::SUBSCRIBE => {
            let qid = r.u64()?;
            let endpoint = Endpoint(r.u64()?);
            let text = r.string()?;
            Message::Subscribe { qid, text, endpoint }
        }
        tag::UNSUBSCRIBE => {
            let qid = r.u64()?;
            Message::Unsubscribe { qid }
        }
        tag::TELEMETRY_REQUEST => {
            let qid = r.u64()?;
            let reply_to = SiteAddr(r.u32()?);
            let endpoint = Endpoint(r.u64()?);
            let what = r.u8()?;
            Message::TelemetryRequest { qid, reply_to, endpoint, what }
        }
        tag::TELEMETRY_REPLY => {
            let qid = r.u64()?;
            let payload = r.string()?;
            Message::TelemetryReply { qid, payload }
        }
        t => return Err(WireError::UnknownTag(t)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(msg)
}

/// Decodes exactly one frame; the buffer must contain it exactly (the
/// in-process shard boundary always passes whole frames).
pub fn decode_frame(bytes: &[u8]) -> Result<Message, WireError> {
    let (msg, rest) = split_frame(bytes)?;
    if !rest.is_empty() {
        return Err(WireError::TrailingBytes(rest.len()));
    }
    Ok(msg)
}

/// Decodes the first frame of a byte stream and returns the remainder —
/// the consumption discipline a TCP reader would use on a receive buffer
/// holding zero or more complete frames plus a possible partial tail.
pub fn split_frame(bytes: &[u8]) -> Result<(Message, &[u8]), WireError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if bytes[0] != WIRE_VERSION {
        return Err(WireError::Version(bytes[0]));
    }
    let len = u32::from_le_bytes(bytes[1..5].try_into().unwrap()) as usize;
    if bytes.len() - FRAME_HEADER_LEN < len {
        return Err(WireError::Truncated);
    }
    let msg = decode_payload(&bytes[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len])?;
    Ok((msg, &bytes[FRAME_HEADER_LEN + len..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_variant_smoke() {
        let path = IdPath::from_pairs([("usRegion", "NE"), ("state", "PA")]);
        let msgs = vec![
            Message::UserQuery { qid: 1, text: "/a[@id='1']".into(), endpoint: Endpoint(9) },
            Message::SubQuery { qid: 2, text: "/b".into(), reply_to: SiteAddr(3) },
            Message::SubQueryBatch {
                entries: vec![(4, "/c".into()), (5, String::new())],
                reply_to: SiteAddr(6),
            },
            Message::SubAnswer { qid: 7, fragment_xml: "<x/>".into(), partial: true },
            Message::Update {
                path: path.clone(),
                fields: vec![("available".into(), "yes".into())],
            },
            Message::Delegate { path: path.clone(), to: SiteAddr(8) },
            Message::TakeOwnership {
                path: path.clone(),
                fragment_xml: "<y/>".into(),
                from: SiteAddr(10),
            },
            Message::TakeAck { path, new_owner: SiteAddr(11) },
            Message::Subscribe { qid: 12, text: "/d".into(), endpoint: Endpoint(13) },
            Message::Unsubscribe { qid: 14 },
        ];
        for m in msgs {
            let frame = encode_frame(&m);
            assert_eq!(decode_frame(&frame).unwrap(), m, "roundtrip failed");
        }
    }

    /// Serializer-shaped text of any size packs (tag 13) and comes back
    /// byte-exact; text outside the grammar ships raw (tag 4) and does too.
    #[test]
    fn fragment_text_roundtrips_packed_or_raw() {
        let stub = |i: usize| format!("<parkingSpace id=\"{i}\" status=\"incomplete\"/>");
        let space = |i: usize| {
            format!(
                "<parkingSpace id=\"{i}\" status=\"complete\" timestamp=\"0\">\
                 <available>yes</available><price>a &amp; b</price></parkingSpace>"
            )
        };
        let body: String = (0..20).map(space).chain((20..39).map(stub)).collect();
        let cases = [
            (format!("<block id=\"1\" status=\"id-complete\">{body}</block>"), true),
            ("<a x=\"\"></a>".repeat(8), true),
            (format!("<a  id=\"1\">{body}</a>"), false), // doubled space
            (format!("<a id='1'>{body}</a>"), false),
            (format!("<a>{body}</a >"), false),
            (format!("<a><!-- c -->{body}</a>"), false),
            (format!("<a><![CDATA[x]]>{body}</a>"), false),
            (format!("<?xml version=\"1.0\"?><a>{body}</a>"), false),
            (format!("<a>{body}</b>"), false),
            (format!("<a>{body}"), false),
            (format!("{body}</a>"), false),
            ("<x/>".to_string(), false), // not strictly shorter
            (String::new(), false),
        ];
        for (fragment_xml, packs) in cases {
            let m = Message::SubAnswer { qid: 7, fragment_xml: fragment_xml.clone(), partial: false };
            let frame = encode_frame(&m);
            let expect = if packs { tag::SUB_ANSWER_PACKED } else { tag::SUB_ANSWER };
            assert_eq!(frame[FRAME_HEADER_LEN], expect, "{fragment_xml}");
            if packs {
                assert!(frame.len() < fragment_xml.len(), "{fragment_xml}");
            }
            assert_eq!(decode_frame(&frame).unwrap(), m, "{fragment_xml}");
        }
    }

    #[test]
    fn bad_frames_are_rejected() {
        let frame = encode_frame(&Message::Unsubscribe { qid: 1 });
        assert_eq!(decode_frame(&frame[..3]), Err(WireError::Truncated));
        let mut wrong_version = frame.clone();
        wrong_version[0] = 9;
        assert_eq!(decode_frame(&wrong_version), Err(WireError::Version(9)));
        let mut unknown_tag = frame.clone();
        unknown_tag[FRAME_HEADER_LEN] = 200;
        assert_eq!(decode_frame(&unknown_tag), Err(WireError::UnknownTag(200)));
        let mut trailing = frame;
        trailing.push(0);
        assert!(matches!(decode_frame(&trailing), Err(WireError::TrailingBytes(_))));
    }

    #[test]
    fn split_frame_consumes_stream() {
        let a = encode_frame(&Message::Unsubscribe { qid: 1 });
        let b = encode_frame(&Message::SubQuery {
            qid: 2,
            text: "/q".into(),
            reply_to: SiteAddr(5),
        });
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        stream.extend_from_slice(&b[..2]); // partial tail
        let (m1, rest) = split_frame(&stream).unwrap();
        assert_eq!(m1, Message::Unsubscribe { qid: 1 });
        let (m2, rest) = split_frame(rest).unwrap();
        assert!(matches!(m2, Message::SubQuery { qid: 2, .. }));
        assert_eq!(split_frame(rest), Err(WireError::Truncated));
    }
}
