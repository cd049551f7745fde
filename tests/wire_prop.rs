//! Wire-format properties: every [`Message`] variant — including the
//! clones the fault plane produces for duplicated and delayed copies —
//! must survive an encode/decode roundtrip bit-exactly, streams of
//! concatenated frames must split back into the same messages, and the
//! frame layout itself is pinned by golden bytes: any byte-level change to
//! the format is a protocol version bump, not a silent re-encode.
//!
//! Fragment text travels dictionary-packed (tags 13 / 14) when it is in
//! the packer's grammar and raw (tags 4 / 7) otherwise; both must give the
//! text back byte for byte, and the packed decoder — the one decoder here
//! that expands its input — must hold its stated bounds on bytes it did
//! not write.

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb};
use irisnet_core::{Endpoint, IdPath, Message, SiteDatabase};
use proptest::collection::vec;
use proptest::prelude::*;
use sensorxml::{Document, NodeId};
use simnet::wire::{PACKED_MAX_DEPTH, PACKED_MAX_EXPANSION};
use simnet::{decode_frame, encode_frame, split_frame, WireError, WIRE_VERSION};

/// Strings: printable ASCII (XPath/XML-ish, with quotes and brackets) or
/// arbitrary unicode, so multi-byte UTF-8 crosses the length-prefixed
/// encoding.
fn text() -> Strat<String> {
    prop_oneof![
        "[ -~]{0,40}",
        vec(any::<char>(), 0..12).prop_map(|cs| cs.into_iter().collect()),
    ]
}

/// A fixed sequence of draws steering a deterministic builder.
struct Dice(Vec<u64>, usize);

impl Dice {
    fn below(&mut self, n: usize) -> usize {
        self.1 += 1;
        (self.0[self.1 % self.0.len()] % n as u64) as usize
    }
}

const NAMES: [&str; 6] = ["a", "block", "parkingSpace", "π", "données", "x-y.z:w"];
const VALUES: [&str; 8] = ["", "1", "complete", "a & b", "<\"q\">", "naïve", "yes", "0.5"];

/// One random element: a few attributes, then no child (`<a/>`), an empty
/// text child (`<a></a>`), one text child, or child elements.
fn random_element(doc: &mut Document, d: &mut Dice, depth: usize) -> NodeId {
    let e = doc.create_element(NAMES[d.below(NAMES.len())]);
    for _ in 0..d.below(4) {
        doc.set_attr(e, NAMES[d.below(NAMES.len())], VALUES[d.below(VALUES.len())]);
    }
    match d.below(if depth < 4 { 6 } else { 3 }) {
        0 => {}
        1 => {
            let t = doc.create_text("");
            doc.append_child(e, t);
        }
        2 => {
            let t = doc.create_text(VALUES[1 + d.below(VALUES.len() - 1)]);
            doc.append_child(e, t);
        }
        _ => {
            for _ in 0..1 + d.below(4) {
                let c = random_element(doc, d, depth + 1);
                doc.append_child(e, c);
            }
        }
    }
    e
}

/// Real serializer output: random small documents through
/// `sensorxml::serialize` — escaped `&amp; &lt; &quot;` in values and text,
/// both spellings of the empty element, multi-byte names.
fn serializer_xml() -> Strat<String> {
    vec(any::<u64>(), 1..60).prop_map(|draws| {
        let mut doc = Document::new();
        let root = random_element(&mut doc, &mut Dice(draws, 0), 0);
        sensorxml::serialize(&doc, root)
    })
}

/// XML-ish text just outside the packer's grammar.
fn near_miss_xml() -> Strat<String> {
    (serializer_xml(), 0usize..9).prop_map(|(xml, how)| {
        let after_first_tag = xml.find('>').map_or(0, |i| i + 1);
        let (head, tail) = xml.split_at(after_first_tag);
        match how {
            0 => xml.replacen(' ', "  ", 1),
            1 => xml.replace('"', "'"),
            2 if xml.ends_with('>') && !xml.ends_with("/>") => {
                format!("{} >", &xml[..xml.len() - 1])
            }
            2 => format!("<r>{xml}</r >"),
            3 => format!("{head}<!-- c -->{tail}"),
            4 => format!("{head}<![CDATA[<x>]]>{tail}"),
            5 => format!("<?xml version=\"1.0\"?>{xml}"),
            6 => format!("<r>{xml}</s>"),
            7 => format!("<r>{xml}"),
            _ => format!("{xml}</r>"),
        }
    })
}

/// Fragment text: arbitrary strings, serializer output, near-misses.
fn fragment() -> Strat<String> {
    prop_oneof![text(), serializer_xml(), near_miss_xml()]
}

fn path() -> Strat<IdPath> {
    vec(("[a-zA-Z]{1,10}", "[a-zA-Z0-9 ]{0,10}"), 0..=4).prop_map(IdPath::from_pairs)
}

fn site() -> Strat<SiteAddr> {
    (0u32..=u32::MAX).prop_map(SiteAddr)
}

/// Every `Message` variant, weighted evenly.
fn message() -> Strat<Message> {
    prop_oneof![
        (any::<u64>(), text(), any::<u64>()).prop_map(|(qid, text, ep)| {
            Message::UserQuery { qid, text, endpoint: Endpoint(ep) }
        }),
        (any::<u64>(), text(), site()).prop_map(|(qid, text, reply_to)| {
            Message::SubQuery { qid, text, reply_to }
        }),
        (vec((any::<u64>(), text()), 0..6), site()).prop_map(|(entries, reply_to)| {
            Message::SubQueryBatch { entries, reply_to }
        }),
        (any::<u64>(), fragment(), any::<bool>()).prop_map(|(qid, fragment_xml, partial)| {
            Message::SubAnswer { qid, fragment_xml, partial }
        }),
        (path(), vec((text(), text()), 0..5)).prop_map(|(path, fields)| {
            Message::Update { path, fields }
        }),
        (path(), site()).prop_map(|(path, to)| Message::Delegate { path, to }),
        (path(), fragment(), site()).prop_map(|(path, fragment_xml, from)| {
            Message::TakeOwnership { path, fragment_xml, from }
        }),
        (path(), site()).prop_map(|(path, new_owner)| Message::TakeAck { path, new_owner }),
        (any::<u64>(), text(), any::<u64>()).prop_map(|(qid, text, ep)| {
            Message::Subscribe { qid, text, endpoint: Endpoint(ep) }
        }),
        any::<u64>().prop_map(|qid| Message::Unsubscribe { qid }),
        (any::<u64>(), site(), any::<u64>(), any::<u8>()).prop_map(
            |(qid, reply_to, ep, what)| Message::TelemetryRequest {
                qid,
                reply_to,
                endpoint: Endpoint(ep),
                what,
            }
        ),
        (any::<u64>(), text()).prop_map(|(qid, payload)| {
            Message::TelemetryReply { qid, payload }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity on every variant.
    #[test]
    fn roundtrip_is_identity(msg in message()) {
        let frame = encode_frame(&msg);
        prop_assert!(frame.len() >= 5, "frame shorter than its header");
        prop_assert_eq!(frame[0], WIRE_VERSION);
        let back = decode_frame(&frame);
        prop_assert_eq!(back.as_ref(), Ok(&msg), "roundtrip diverged");
    }

    /// Non-vacuity of the packed form: serializer output of at least 64
    /// bytes always takes tag 13 / 14, and the packed field is shorter than
    /// the text it stands for.
    #[test]
    fn serializer_output_takes_the_packed_form(xml in serializer_xml(), p in path()) {
        if xml.len() >= 64 {
            let answer = encode_frame(&Message::SubAnswer {
                qid: 1,
                fragment_xml: xml.clone(),
                partial: false,
            });
            prop_assert_eq!(answer[5], 13, "SubAnswer not packed: {}", xml);
            // header 5 + tag 1 + qid 8 + partial 1
            prop_assert!(answer.len() - 15 < xml.len());
            let take = encode_frame(&Message::TakeOwnership {
                path: p,
                fragment_xml: xml.clone(),
                from: SiteAddr(1),
            });
            prop_assert_eq!(take[5], 14, "TakeOwnership not packed: {}", xml);
            // Both carry the same packed field, last in the payload.
            prop_assert_eq!(&take[take.len() - (answer.len() - 15)..], &answer[15..]);
        }
    }

    /// Bytes the decoder did not write: truncations, bit flips and splices
    /// of valid packed frames never panic, and whatever still decodes stays
    /// inside the stated expansion bound.
    #[test]
    fn damaged_packed_frames_never_panic(
        a in serializer_xml(),
        b in serializer_xml(),
        cuts in vec((any::<u16>(), any::<u8>()), 1..6),
    ) {
        let frame = |xml: &str| encode_frame(&Message::SubAnswer {
            qid: 9,
            fragment_xml: xml.to_string(),
            partial: true,
        });
        let (fa, fb) = (frame(&a), frame(&b));
        for &(at, bits) in &cuts {
            let at = at as usize;
            let mut flipped = fa.clone();
            let i = 5 + at % (fa.len() - 5);
            flipped[i] ^= bits | 1;
            let truncated = fa[..5 + at % (fa.len() - 5)].to_vec();
            // The head of one frame's payload spliced onto the tail of
            // another's, under a header that matches the new length.
            let mut spliced = fa[5..5 + at % (fa.len() - 5)].to_vec();
            spliced.extend_from_slice(&fb[5 + (bits as usize) % (fb.len() - 5)..]);
            let mut framed = vec![WIRE_VERSION];
            framed.extend_from_slice(&(spliced.len() as u32).to_le_bytes());
            framed.extend_from_slice(&spliced);
            // ... and the truncated payload under a header that admits it.
            let mut short = truncated.clone();
            let len = (short.len() - 5) as u32;
            short[1..5].copy_from_slice(&len.to_le_bytes());
            for bytes in [&flipped, &truncated, &framed, &short] {
                for result in [decode_frame(bytes), split_frame(bytes).map(|(m, _)| m)] {
                    if let Ok(Message::SubAnswer { fragment_xml, .. }) = result {
                        prop_assert!(fragment_xml.len() <= PACKED_MAX_EXPANSION * bytes.len());
                    }
                }
            }
        }
    }

    /// The fault plane duplicates and delays *clones* of a message; the
    /// copy's frame must be byte-identical to the original's, so a framed
    /// duplicate is indistinguishable on the wire — the idempotent-retry
    /// guarantee doesn't depend on which copy arrives.
    #[test]
    fn duplicated_copies_encode_identically(msg in message()) {
        let original = encode_frame(&msg);
        let duplicate = encode_frame(&msg.clone());
        let delayed = encode_frame(&msg.clone());
        prop_assert_eq!(&original, &duplicate);
        prop_assert_eq!(&original, &delayed);
    }

    /// Concatenated frames — a TCP receive buffer holding several sends —
    /// split back into the same message sequence, and a truncated tail is
    /// reported as `Truncated`, never misparsed.
    #[test]
    fn frame_streams_split_losslessly(msgs in vec(message(), 1..6), cut in any::<u16>()) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m));
        }
        let mut rest: &[u8] = &stream;
        let mut got = Vec::new();
        while !rest.is_empty() {
            let (m, r) = split_frame(rest).expect("whole stream splits");
            got.push(m);
            rest = r;
        }
        prop_assert_eq!(&got, &msgs, "stream split diverged");

        // Any strict prefix of a single frame is truncated, not misread.
        let first = encode_frame(&msgs[0]);
        let cut = (cut as usize) % first.len();
        if cut > 0 {
            prop_assert_eq!(
                split_frame(&first[..cut]).err(),
                Some(WireError::Truncated),
                "prefix of length {} misparsed", cut
            );
        }
    }

    /// Flipping the version byte is always rejected, whatever the payload.
    #[test]
    fn wrong_version_is_rejected(msg in message(), v in 0u8..=u8::MAX) {
        let mut frame = encode_frame(&msg);
        if v != WIRE_VERSION {
            frame[0] = v;
            prop_assert_eq!(decode_frame(&frame), Err(WireError::Version(v)));
        }
    }
}

/// Golden bytes: the exact frame layout of one representative of every
/// variant, written out byte by byte. If any of these assertions break,
/// the wire format changed — bump [`WIRE_VERSION`] and migrate, don't
/// silently re-encode.
#[test]
fn golden_frame_layout() {
    // UserQuery { qid: 7, text: "/a", endpoint: 9 }
    // [ver][len u32 LE][tag][qid u64 LE][endpoint u64 LE][text len u32 LE][text]
    let frame = encode_frame(&Message::UserQuery {
        qid: 7,
        text: "/a".into(),
        endpoint: Endpoint(9),
    });
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        1,                       // version
        23, 0, 0, 0,             // payload length = 1 + 8 + 8 + 4 + 2
        1,                       // tag: UserQuery
        7, 0, 0, 0, 0, 0, 0, 0,  // qid
        9, 0, 0, 0, 0, 0, 0, 0,  // endpoint
        2, 0, 0, 0,              // text length
        b'/', b'a',              // text
    ];
    assert_eq!(frame, expected, "UserQuery frame layout changed");

    // SubQuery { qid: 0x0102, text: "q", reply_to: 3 }
    let frame = encode_frame(&Message::SubQuery {
        qid: 0x0102,
        text: "q".into(),
        reply_to: SiteAddr(3),
    });
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        1,
        18, 0, 0, 0,                // 1 + 8 + 4 + 4 + 1
        2,                          // tag: SubQuery
        0x02, 0x01, 0, 0, 0, 0, 0, 0,
        3, 0, 0, 0,                 // reply_to u32
        1, 0, 0, 0, b'q',
    ];
    assert_eq!(frame, expected, "SubQuery frame layout changed");

    // SubQueryBatch { entries: [(1, "a"), (2, "")], reply_to: 5 }
    let frame = encode_frame(&Message::SubQueryBatch {
        entries: vec![(1, "a".into()), (2, String::new())],
        reply_to: SiteAddr(5),
    });
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        1,
        34, 0, 0, 0,                // 1 + 4 + 4 + (8+4+1) + (8+4+0)
        3,                          // tag: SubQueryBatch
        5, 0, 0, 0,                 // reply_to
        2, 0, 0, 0,                 // entry count
        1, 0, 0, 0, 0, 0, 0, 0,  1, 0, 0, 0, b'a',
        2, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0,
    ];
    assert_eq!(frame, expected, "SubQueryBatch frame layout changed");

    // SubAnswer { qid: 4, fragment_xml: "<x/>", partial: true }
    let frame = encode_frame(&Message::SubAnswer {
        qid: 4,
        fragment_xml: "<x/>".into(),
        partial: true,
    });
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        1,
        18, 0, 0, 0,                // 1 + 8 + 1 + 4 + 4
        4,                          // tag: SubAnswer
        4, 0, 0, 0, 0, 0, 0, 0,
        1,                          // partial = true
        4, 0, 0, 0, b'<', b'x', b'/', b'>',
    ];
    assert_eq!(frame, expected, "SubAnswer frame layout changed");

    // Update { path: [("a","b")], fields: [("k","v")] }
    let frame = encode_frame(&Message::Update {
        path: IdPath::from_pairs([("a", "b")]),
        fields: vec![("k".into(), "v".into())],
    });
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        1,
        29, 0, 0, 0,                // 1 + (4 + 5 + 5) + 4 + (5 + 5)
        5,                          // tag: Update
        1, 0, 0, 0,                 // path segment count
        1, 0, 0, 0, b'a',  1, 0, 0, 0, b'b',
        1, 0, 0, 0,                 // field count
        1, 0, 0, 0, b'k',  1, 0, 0, 0, b'v',
    ];
    assert_eq!(frame, expected, "Update frame layout changed");

    // Delegate / TakeOwnership / TakeAck / Subscribe / Unsubscribe tags.
    let p = IdPath::from_pairs([("a", "b")]);
    for (msg, tag) in [
        (Message::Delegate { path: p.clone(), to: SiteAddr(1) }, 6u8),
        (
            Message::TakeOwnership {
                path: p.clone(),
                fragment_xml: String::new(),
                from: SiteAddr(1),
            },
            7,
        ),
        (Message::TakeAck { path: p, new_owner: SiteAddr(1) }, 8),
        (Message::Subscribe { qid: 1, text: String::new(), endpoint: Endpoint(1) }, 9),
        (Message::Unsubscribe { qid: 1 }, 10),
    ] {
        let frame = encode_frame(&msg);
        assert_eq!(frame[0], 1, "version byte");
        assert_eq!(frame[5], tag, "payload tag for {msg:?}");
        let len = u32::from_le_bytes(frame[1..5].try_into().unwrap()) as usize;
        assert_eq!(frame.len(), 5 + len, "length prefix for {msg:?}");
    }

    // Unsubscribe in full: the smallest frame.
    let frame = encode_frame(&Message::Unsubscribe { qid: 0x0A0B0C0D });
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        1,
        9, 0, 0, 0,                 // 1 + 8
        10,                         // tag: Unsubscribe
        0x0D, 0x0C, 0x0B, 0x0A, 0, 0, 0, 0,
    ];
    assert_eq!(frame, expected, "Unsubscribe frame layout changed");

    // TelemetryRequest { qid: 6, reply_to: 0 (client sentinel), endpoint: 2,
    // what: 3 } — tag 11, appended for the scrape protocol without a
    // version bump (older decoders reject it as UnknownTag).
    let frame = encode_frame(&Message::TelemetryRequest {
        qid: 6,
        reply_to: SiteAddr(0),
        endpoint: Endpoint(2),
        what: 3,
    });
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        1,
        22, 0, 0, 0,                // 1 + 8 + 4 + 8 + 1
        11,                         // tag: TelemetryRequest
        6, 0, 0, 0, 0, 0, 0, 0,     // qid
        0, 0, 0, 0,                 // reply_to (0 = reply to the client)
        2, 0, 0, 0, 0, 0, 0, 0,     // endpoint
        3,                          // what selector
    ];
    assert_eq!(frame, expected, "TelemetryRequest frame layout changed");

    // TelemetryReply { qid: 6, payload: "{}" } — tag 12.
    let frame = encode_frame(&Message::TelemetryReply { qid: 6, payload: "{}".into() });
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        1,
        15, 0, 0, 0,                // 1 + 8 + 4 + 2
        12,                         // tag: TelemetryReply
        6, 0, 0, 0, 0, 0, 0, 0,     // qid
        2, 0, 0, 0, b'{', b'}',     // payload
    ];
    assert_eq!(frame, expected, "TelemetryReply frame layout changed");
}

/// Golden bytes of the packed forms (tags 13 / 14), appended under the
/// same rule as 11 / 12. The raw forms above (`"<x/>"` packs to as many
/// bytes as it has, so it ships raw) stay pinned unchanged.
#[test]
fn golden_packed_frame_layout() {
    let xml = r#"<a id="1"><b>x</b><b>x</b></a>"#;
    #[rustfmt::skip]
    let field: Vec<u8> = vec![
        30,                         // varint: text length
        6,                          // open '>' form, 1 attribute: (1 << 2) | 2
        2, b'a',                    //   name: literal, len 1        -> dict[0]
        4, b'i', b'd',              //   attr name: literal, len 2   -> dict[1]
        2, b'1',                    //   attr value: literal, len 1  -> dict[2]
        2,                          // open '>' form, 0 attributes
        2, b'b',                    //   name: literal               -> dict[3]
        9, b'x',                    // text: ((1 << 1) << 2) | 1, literal -> dict[4]
        0,                          // close </b>
        2,                          // open '>' form, 0 attributes
        7,                          //   name: back-reference (3 << 1) | 1
        37,                         // text: back-reference (((4 << 1) | 1) << 2) | 1
        0,                          // close </b>
        0,                          // close </a>
    ];
    assert_eq!(field.len(), 20);

    // SubAnswer { qid: 4, fragment_xml: xml, partial: true }
    let frame = encode_frame(&Message::SubAnswer {
        qid: 4,
        fragment_xml: xml.into(),
        partial: true,
    });
    #[rustfmt::skip]
    let mut expected: Vec<u8> = vec![
        1,
        30, 0, 0, 0,                // 1 + 8 + 1 + 20
        13,                         // tag: SubAnswer, packed fragment
        4, 0, 0, 0, 0, 0, 0, 0,
        1,                          // partial = true
    ];
    expected.extend_from_slice(&field); // the field runs to the payload's end
    assert_eq!(frame, expected, "packed SubAnswer frame layout changed");

    // TakeOwnership { path: [("a","1")], fragment_xml: xml, from: 2 }
    let frame = encode_frame(&Message::TakeOwnership {
        path: IdPath::from_pairs([("a", "1")]),
        fragment_xml: xml.into(),
        from: SiteAddr(2),
    });
    #[rustfmt::skip]
    let mut expected: Vec<u8> = vec![
        1,
        39, 0, 0, 0,                // 1 + (4 + 5 + 5) + 4 + 20
        14,                         // tag: TakeOwnership, packed fragment
        1, 0, 0, 0,                 // path segment count
        1, 0, 0, 0, b'a',  1, 0, 0, 0, b'1',
        2, 0, 0, 0,                 // from
    ];
    expected.extend_from_slice(&field);
    assert_eq!(frame, expected, "packed TakeOwnership frame layout changed");
}

/// The fragments the system really ships — C1/C2 exports of a parking
/// database — pack to well under half their text.
#[test]
fn exported_fragments_pack_to_under_half() {
    let db = ParkingDb::generate(DbParams::small(), 3);
    let mut owner = SiteDatabase::new(db.service.clone());
    owner.bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    let spaces: Vec<IdPath> = (0..7).map(|s| db.space_path(1, 0, 2, s)).collect();
    for targets in [vec![db.block_path(0, 1, 0)], vec![db.neighborhood_path(1, 1)], spaces] {
        let xml = owner.plan_export(&targets).unwrap().xml();
        let msg = Message::SubAnswer { qid: 1, fragment_xml: xml.clone(), partial: false };
        let frame = encode_frame(&msg);
        assert_eq!(frame[5], 13);
        assert!(frame.len() * 2 < xml.len(), "{} of {} bytes", frame.len(), xml.len());
        assert_eq!(decode_frame(&frame), Ok(msg));
    }
}

/// Hand-built packed payloads, one per way the field can be wrong: each
/// is refused with the error that names it, none panics, and none makes
/// the decoder allocate for text the bytes cannot back.
#[test]
fn malformed_packed_fields_are_refused() {
    // A tag-13 frame around `field`.
    let frame = |field: &[u8]| {
        let mut f = vec![WIRE_VERSION];
        f.extend_from_slice(&(10 + field.len() as u32).to_le_bytes());
        f.push(13);
        f.extend_from_slice(&[0; 9]); // qid, partial
        f.extend_from_slice(field);
        f
    };
    let refused = |field: &[u8]| match decode_frame(&frame(field)) {
        Err(WireError::BadPackedFragment(what)) => what,
        other => panic!("{field:?} decoded to {other:?}"),
    };
    // A well-formed baseline: "<a/>" is [4, 3, 2, 'a'].
    assert_eq!(
        decode_frame(&frame(&[4, 3, 2, b'a'])),
        Ok(Message::SubAnswer { qid: 0, fragment_xml: "<a/>".into(), partial: false })
    );
    assert!(refused(&[4, 3, 5]).contains("dictionary index"));
    assert!(refused(&[4, 3, 40, b'a']).contains("past the payload"));
    assert!(refused(&[4, 0]).contains("close without open"));
    assert!(refused(&[3, 2, 2, b'a']).contains("unclosed"));
    assert!(refused(&[4, 4]).contains("operand bits"));
    assert!(refused(&[3, 3, 2, b'a']).contains("longer than declared"));
    assert!(refused(&[5, 3, 2, b'a']).contains("shorter than declared"));
    assert!(refused(&[0x80; 11]).contains("varint"));
    // Declared length: one past what the field's own size allows.
    let mut field = Vec::new();
    let mut n = (PACKED_MAX_EXPANSION * 8 + 1) as u64;
    while n >= 0x80 {
        field.push(n as u8 | 0x80);
        n >>= 7;
    }
    field.push(n as u8);
    field.resize(8, 0);
    assert!(refused(&field).contains("expansion bound"));
    assert!(refused(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]).contains("expansion"));
    // Nesting: exactly the cap decodes, one more is refused.
    let nested = |depth: usize| {
        let text_len = (depth * 7) as u64; // "<a>" + "</a>"
        let mut f = vec![(text_len & 0x7f) as u8 | 0x80, (text_len >> 7) as u8];
        f.extend_from_slice(&[2, 2, b'a']);
        f.extend(std::iter::repeat_n([2, 1], depth - 1).flatten());
        f.extend(std::iter::repeat_n(0, depth));
        f
    };
    assert!(decode_frame(&frame(&nested(PACKED_MAX_DEPTH))).is_ok());
    assert!(refused(&nested(PACKED_MAX_DEPTH + 1)).contains("depth cap"));
    // Structure is sound but a string is not UTF-8, or the field stops
    // inside a varint: the existing errors.
    assert_eq!(decode_frame(&frame(&[4, 3, 2, 0xff])), Err(WireError::BadUtf8));
    assert_eq!(decode_frame(&frame(&[4, 3])), Err(WireError::Truncated));
    assert_eq!(decode_frame(&frame(&[])), Err(WireError::Truncated));
    // The encoder never writes what the decoder refuses: deeper nesting
    // than the cap ships raw.
    let deep = "<a>".repeat(PACKED_MAX_DEPTH + 1) + &"</a>".repeat(PACKED_MAX_DEPTH + 1);
    let msg = Message::SubAnswer { qid: 1, fragment_xml: deep, partial: false };
    let f = encode_frame(&msg);
    assert_eq!(f[5], 4);
    assert_eq!(decode_frame(&f), Ok(msg));
}
