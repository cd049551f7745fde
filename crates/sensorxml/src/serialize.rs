//! Serialization of [`Document`]s (and subtrees) back to XML text.

use crate::node::{Attr, Document, NodeId, NodeKind};

/// The identity `attr_value` of [`serialize_mapped`].
pub fn own_value(a: &Attr) -> &str {
    &a.value
}

/// Serializes the subtree rooted at `id` to compact single-line XML.
pub fn serialize(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    write_node(doc, id, &mut out, None, 0, &own_value);
    out
}

/// Serializes the subtree rooted at `id` with `indent`-space indentation.
pub fn serialize_pretty(doc: &Document, id: NodeId, indent: usize) -> String {
    let mut out = String::new();
    write_node(doc, id, &mut out, Some(indent), 0, &own_value);
    out
}

/// Appends the compact serialization of the subtree rooted at `id` to
/// `out`, writing `attr_value(a)` in place of each attribute's own value —
/// so a caller that ships a stored subtree with a few values rewritten
/// needs no scratch copy of it.
pub fn serialize_mapped(
    doc: &Document,
    id: NodeId,
    out: &mut String,
    attr_value: &impl Fn(&Attr) -> &str,
) {
    write_node(doc, id, out, None, 0, attr_value);
}

fn write_node(
    doc: &Document,
    id: NodeId,
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    attr_value: &impl Fn(&Attr) -> &str,
) {
    match doc.kind(id) {
        NodeKind::Text(t) => {
            pad(out, indent, depth);
            push_escaped_text(out, t);
            newline(out, indent);
        }
        NodeKind::Element(el) => {
            pad(out, indent, depth);
            out.push('<');
            out.push_str(&el.name);
            for a in &el.attrs {
                push_attr(out, &a.name, attr_value(a));
            }
            if el.children.is_empty() {
                out.push_str("/>");
                newline(out, indent);
            } else {
                out.push('>');
                // Elements whose only child is a single text node are kept on
                // one line even in pretty mode: `<available>yes</available>`.
                let single_text =
                    el.children.len() == 1 && doc.text(el.children[0]).is_some();
                if single_text {
                    push_escaped_text(out, doc.text(el.children[0]).unwrap());
                } else {
                    newline(out, indent);
                    for &c in &el.children {
                        write_node(doc, c, out, indent, depth + 1, attr_value);
                    }
                    pad(out, indent, depth);
                }
                out.push_str("</");
                out.push_str(&el.name);
                out.push('>');
                newline(out, indent);
            }
        }
    }
}

fn pad(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(n) = indent {
        for _ in 0..n * depth {
            out.push(' ');
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>) {
    if indent.is_some() {
        out.push('\n');
    }
}

/// Appends ` name="value"` with the value escaped.
pub fn push_attr(out: &mut String, name: &str, value: &str) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    push_escaped_attr(out, value);
    out.push('"');
}

/// Escapes `<`, `>`, `&` in text content.
pub fn push_escaped_text(out: &mut String, text: &str) {
    push_escaped(out, text, |b| match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        _ => None,
    });
}

/// Escapes `<`, `&`, `"` in attribute values.
pub fn push_escaped_attr(out: &mut String, text: &str) {
    push_escaped(out, text, |b| match b {
        b'<' => Some("&lt;"),
        b'&' => Some("&amp;"),
        b'"' => Some("&quot;"),
        _ => None,
    });
}

/// Appends `text` with every byte `entity` names replaced by its entity;
/// the runs between them are pushed as whole slices (the escaped bytes are
/// ASCII, so every cut is a character boundary).
fn push_escaped(out: &mut String, text: &str, entity: impl Fn(u8) -> Option<&'static str>) {
    let mut from = 0;
    for (i, &b) in text.as_bytes().iter().enumerate() {
        if let Some(e) = entity(b) {
            out.push_str(&text[from..i]);
            out.push_str(e);
            from = i + 1;
        }
    }
    out.push_str(&text[from..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn roundtrip_compact() {
        let xml = r#"<a x="1"><b id="2">hi</b><c/></a>"#;
        let doc = parse(xml).unwrap();
        let s = serialize(&doc, doc.root().unwrap());
        assert_eq!(s, xml);
    }

    #[test]
    fn escaping_roundtrips() {
        let xml = r#"<a m="&lt;&quot;&amp;">a &lt; b &amp; c</a>"#;
        let doc = parse(xml).unwrap();
        let s = serialize(&doc, doc.root().unwrap());
        let doc2 = parse(&s).unwrap();
        assert_eq!(doc2.attr(doc2.root().unwrap(), "m"), Some("<\"&"));
        assert_eq!(doc2.text_content(doc2.root().unwrap()), "a < b & c");
    }

    #[test]
    fn pretty_print_is_reparseable_and_indented() {
        let doc = parse(r#"<a><b id="1"><c>t</c></b></a>"#).unwrap();
        let s = serialize_pretty(&doc, doc.root().unwrap(), 2);
        assert!(s.contains("\n  <b"));
        assert!(s.contains("<c>t</c>"));
        let doc2 = parse(&s).unwrap();
        assert_eq!(doc2.reachable_count(), doc.reachable_count());
    }

    #[test]
    fn serialize_subtree_only() {
        let doc = parse(r#"<a><b id="1"><c/></b><b id="2"/></a>"#).unwrap();
        let root = doc.root().unwrap();
        let b1 = doc.child_by_name_id(root, "b", "1").unwrap();
        assert_eq!(serialize(&doc, b1), r#"<b id="1"><c/></b>"#);
    }
}
