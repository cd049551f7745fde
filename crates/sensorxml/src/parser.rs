//! A hand-written XML parser producing [`Document`] arenas.
//!
//! Supported: elements, attributes (single- or double-quoted), text, CDATA,
//! comments (dropped), processing instructions and the XML prolog (dropped),
//! the five named entities and decimal/hex character references.
//!
//! Not supported (not needed for sensor documents): DTDs beyond skipping a
//! `<!DOCTYPE ...>` without an internal subset, and namespaces (names with
//! colons are kept verbatim, which is how `xsl:template` et al. flow through
//! the XSLT layer).

use crate::error::{XmlError, XmlResult};
use crate::node::{Document, NodeId};

/// Knobs controlling parse behaviour.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Drop text nodes that consist solely of XML whitespace. Sensor
    /// documents are data-centric, so this defaults to `true`; the XSLT
    /// layer parses stylesheets with the same setting.
    pub trim_whitespace_text: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            trim_whitespace_text: true,
        }
    }
}

/// Parses `input` with default options.
pub fn parse(input: &str) -> XmlResult<Document> {
    parse_with_options(input, ParseOptions::default())
}

/// Parses `input` with explicit [`ParseOptions`].
pub fn parse_with_options(input: &str, options: ParseOptions) -> XmlResult<Document> {
    let mut p = Parser {
        input,
        pos: 0,
        doc: Document::new(),
        options,
    };
    p.parse_document()?;
    Ok(p.doc)
}

/// The bytes a name may consist of: ASCII alphanumerics, `_ - . :`, and
/// anything non-ASCII (multi-byte names are kept verbatim).
pub const fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80
}

struct Parser<'a> {
    /// Every scan stops on an ASCII delimiter, so `pos` is always a
    /// character boundary of `input` and slices of it need no UTF-8
    /// re-validation.
    input: &'a str,
    pos: usize,
    doc: Document,
    options: ParseOptions,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> XmlResult<T> {
        Err(XmlError::parse(self.pos, message))
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> XmlResult<()> {
        if self.starts_with(s) {
            self.bump(s.len());
            Ok(())
        } else {
            self.err(format!("expected `{s}`"))
        }
    }

    fn parse_document(&mut self) -> XmlResult<()> {
        self.skip_misc()?;
        if self.peek().is_none() {
            return self.err("empty document");
        }
        let root = self.parse_element()?;
        self.doc
            .set_root(root)
            .expect("first element cannot clash with a root");
        self.skip_misc()?;
        if self.pos < self.input.len() {
            return self.err("content after document root");
        }
        Ok(())
    }

    /// Skips whitespace, comments, PIs, prolog, DOCTYPE between top-level items.
    fn skip_misc(&mut self) -> XmlResult<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, end: &str) -> XmlResult<()> {
        match find_sub(&self.input.as_bytes()[self.pos..], end.as_bytes()) {
            Some(off) => {
                self.pos += off + end.len();
                Ok(())
            }
            None => self.err(format!("unterminated construct, expected `{end}`")),
        }
    }

    fn parse_element(&mut self) -> XmlResult<NodeId> {
        self.expect("<")?;
        let name = self.parse_name()?;
        let el = self.doc.create_element(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(el);
                }
                Some(b'>') => {
                    self.bump(1);
                    break;
                }
                Some(_) => {
                    let (an, av) = self.parse_attribute()?;
                    self.doc.set_attr(el, an, av);
                }
                None => return self.err("unterminated start tag"),
            }
        }
        // Children until the matching end tag.
        loop {
            if self.starts_with("</") {
                self.bump(2);
                let end_name = self.parse_name()?;
                if end_name != name {
                    return self.err(format!(
                        "mismatched end tag: expected `</{name}>`, found `</{end_name}>`"
                    ));
                }
                self.skip_ws();
                self.expect(">")?;
                return Ok(el);
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.bump("<![CDATA[".len());
                let start = self.pos;
                match find_sub(&self.input.as_bytes()[self.pos..], b"]]>") {
                    Some(off) => {
                        let text = &self.input[start..start + off];
                        let t = self.doc.create_text(text.to_string());
                        self.doc.append_child(el, t);
                        self.pos = start + off + 3;
                    }
                    None => return self.err("unterminated CDATA section"),
                }
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element()?;
                self.doc.append_child(el, child);
            } else if self.peek().is_none() {
                return self.err(format!("unterminated element `{name}`"));
            } else {
                let text = self.parse_text()?;
                let keep = !self.options.trim_whitespace_text
                    || !text.chars().all(|c| c.is_ascii_whitespace());
                if keep && !text.is_empty() {
                    let t = self.doc.create_text(text);
                    self.doc.append_child(el, t);
                }
            }
        }
    }

    fn parse_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        while self.peek().is_some_and(is_name_byte) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(&self.input[start..self.pos])
    }

    fn parse_attribute(&mut self) -> XmlResult<(&'a str, String)> {
        let name = self.parse_name()?;
        self.skip_ws();
        self.expect("=")?;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected quoted attribute value"),
        };
        self.bump(1);
        let mut value = String::new();
        loop {
            self.push_run(&mut value, |b| b == quote || b == b'&');
            match self.peek() {
                Some(b'&') => self.parse_entity(&mut value)?,
                Some(_) => {
                    self.bump(1); // the closing quote
                    break;
                }
                None => return self.err("unterminated attribute value"),
            }
        }
        Ok((name, value))
    }

    fn parse_text(&mut self) -> XmlResult<String> {
        let mut text = String::new();
        loop {
            self.push_run(&mut text, |b| b == b'<' || b == b'&');
            match self.peek() {
                Some(b'&') => self.parse_entity(&mut text)?,
                _ => break,
            }
        }
        Ok(text)
    }

    /// Appends the input up to the next byte satisfying `stop` (or the end
    /// of input) to `out` as one slice, and leaves `pos` there. The stop
    /// bytes are ASCII, so the run ends on a character boundary.
    fn push_run(&mut self, out: &mut String, stop: impl Fn(u8) -> bool) {
        let rest = &self.input.as_bytes()[self.pos..];
        let len = rest.iter().position(|&b| stop(b)).unwrap_or(rest.len());
        out.push_str(&self.input[self.pos..self.pos + len]);
        self.pos += len;
    }

    /// Decodes one entity or character reference at `pos` into `out`.
    fn parse_entity(&mut self, out: &mut String) -> XmlResult<()> {
        self.expect("&")?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                let ent = &self.input[start..self.pos];
                self.bump(1);
                let ch = match ent {
                    "lt" => '<',
                    "gt" => '>',
                    "amp" => '&',
                    "apos" => '\'',
                    "quot" => '"',
                    _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                        let code = u32::from_str_radix(&ent[2..], 16)
                            .map_err(|_| XmlError::parse(start, "bad hex character reference"))?;
                        char::from_u32(code)
                            .ok_or_else(|| XmlError::parse(start, "invalid character reference"))?
                    }
                    _ if ent.starts_with('#') => {
                        let code = ent[1..]
                            .parse::<u32>()
                            .map_err(|_| XmlError::parse(start, "bad character reference"))?;
                        char::from_u32(code)
                            .ok_or_else(|| XmlError::parse(start, "invalid character reference"))?
                    }
                    _ => {
                        return Err(XmlError::parse(start, format!("unknown entity `&{ent};`")))
                    }
                };
                out.push(ch);
                return Ok(());
            }
            self.pos += 1;
            if self.pos - start > 12 {
                break;
            }
        }
        self.err("unterminated entity reference")
    }
}

fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_fragment() {
        let xml = r#"
<usRegion id='NE'>
  <state id='PA'>
    <county id='Allegheny'>
      <city id='Pittsburgh'>
        <neighborhood id='Oakland'>
          <block id='1'>
            <parkingSpace id='1'><available>yes</available></parkingSpace>
            <parkingSpace id='2'><available>no</available></parkingSpace>
          </block>
        </neighborhood>
      </city>
    </county>
  </state>
</usRegion>"#;
        let doc = parse(xml).unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.name(root), "usRegion");
        assert_eq!(doc.attr(root, "id"), Some("NE"));
        let state = doc.child_by_name_id(root, "state", "PA").unwrap();
        let county = doc.child_by_name_id(state, "county", "Allegheny").unwrap();
        let city = doc.child_by_name_id(county, "city", "Pittsburgh").unwrap();
        let nbhd = doc.child_by_name_id(city, "neighborhood", "Oakland").unwrap();
        let block = doc.child_by_name_id(nbhd, "block", "1").unwrap();
        assert_eq!(doc.child_elements(block).count(), 2);
        let sp1 = doc.child_by_name_id(block, "parkingSpace", "1").unwrap();
        let avail = doc.child_by_name(sp1, "available").unwrap();
        assert_eq!(doc.text_content(avail), "yes");
    }

    #[test]
    fn self_closing_and_double_quotes() {
        let doc = parse(r#"<a x="1"><b/><c y="2"/></a>"#).unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.child_elements(root).count(), 2);
        let c = doc.child_by_name(root, "c").unwrap();
        assert_eq!(doc.attr(c, "y"), Some("2"));
    }

    #[test]
    fn entities_decoded_in_text_and_attrs() {
        let doc = parse(r#"<a m="&lt;&amp;&gt;">x &#65;&#x42; &apos;&quot;</a>"#).unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.attr(root, "m"), Some("<&>"));
        assert_eq!(doc.text_content(root), "x AB '\"");
    }

    #[test]
    fn prolog_comments_pi_doctype_skipped() {
        let doc = parse(
            "<?xml version=\"1.0\"?><!DOCTYPE a><!-- hi --><a><!-- in --><?pi data?><b/></a>",
        )
        .unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.child_elements(root).count(), 1);
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let doc = parse("<a><![CDATA[<not-a-tag> & raw]]></a>").unwrap();
        assert_eq!(doc.text_content(doc.root().unwrap()), "<not-a-tag> & raw");
    }

    #[test]
    fn whitespace_text_trimmed_by_default_kept_on_request() {
        let xml = "<a>\n  <b/>\n</a>";
        let doc = parse(xml).unwrap();
        assert_eq!(doc.children(doc.root().unwrap()).len(), 1);
        let doc2 = parse_with_options(
            xml,
            ParseOptions {
                trim_whitespace_text: false,
            },
        )
        .unwrap();
        assert_eq!(doc2.children(doc2.root().unwrap()).len(), 3);
    }

    #[test]
    fn mismatched_end_tag_is_an_error() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err, XmlError::Parse { .. }));
        assert!(err.to_string().contains("mismatched end tag"));
    }

    #[test]
    fn unterminated_element_is_an_error() {
        assert!(parse("<a><b>").is_err());
        assert!(parse("<a attr='x'").is_err());
    }

    #[test]
    fn trailing_content_is_an_error() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn unknown_entity_is_an_error() {
        let err = parse("<a>&nope;</a>").unwrap_err();
        assert!(err.to_string().contains("unknown entity"));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(parse("").is_err());
        assert!(parse("   \n ").is_err());
    }

    /// Regression guard for the per-character `from_utf8(&bytes[pos..])`
    /// the scanner used to run (quadratic: hours on this input). No timing
    /// assertion — a linear parser finishes in milliseconds, a quadratic
    /// one never finishes the suite.
    #[test]
    fn huge_text_and_attribute_parse_and_roundtrip() {
        let big = "x".repeat(2 << 20);
        let xml = format!("<a v=\"{big}\">{big}</a>");
        let doc = parse(&xml).unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.attr(root, "v").map(str::len), Some(big.len()));
        assert_eq!(doc.text_content(root).len(), big.len());
        assert_eq!(crate::serialize(&doc, root), xml);
    }

    #[test]
    fn multibyte_and_entities_at_scan_boundaries() {
        // Multi-byte characters and entities directly before/after every
        // delimiter the slice scanner stops on: quote, `&`, `<`, end tag.
        let doc = parse(
            "<a v=\"é&amp;日\" w='\"&quot;é' x=\"&lt;\" y=\"日\">é&lt;日<b/>&#x42;é&amp;</a>",
        )
        .unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.attr(root, "v"), Some("é&日"));
        assert_eq!(doc.attr(root, "w"), Some("\"\"é"));
        assert_eq!(doc.attr(root, "x"), Some("<"));
        assert_eq!(doc.attr(root, "y"), Some("日"));
        assert_eq!(doc.text_content(root), "é<日Bé&");
        let again = parse(&crate::serialize(&doc, root)).unwrap();
        assert_eq!(crate::canonical_string(&again, again.root().unwrap()),
            crate::canonical_string(&doc, root));
        // Error offsets still point at the offending construct.
        match parse("<a>é&nope;</a>").unwrap_err() {
            XmlError::Parse { offset, .. } => assert_eq!(offset, "<a>é&".len()),
            e => panic!("unexpected error {e}"),
        }
        assert!(parse("<a v=\"é").unwrap_err().to_string().contains("unterminated attribute"));
    }

    #[test]
    fn unicode_names_and_text() {
        let doc = parse("<ciudad id='Málaga'>café</ciudad>").unwrap();
        let root = doc.root().unwrap();
        assert_eq!(doc.attr(root, "id"), Some("Málaga"));
        assert_eq!(doc.text_content(root), "café");
    }
}
