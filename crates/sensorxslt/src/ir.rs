//! Source-level stylesheet IR.
//!
//! Every XPath embedded in a stylesheet (a `select`, `test`, pattern
//! predicate or `{...}` attribute value template) lives as *text* in the
//! stylesheet's slot table and is referenced by [`ExprSlot`]. Compilation
//! parses all slots; [`crate::Compiled::patch_slots`] re-parses selected
//! slots only — the mechanism behind the paper's fast XSLT creation (§4).

use std::fmt::Write as _;

use sensorxml::serialize::{push_escaped_attr, push_escaped_text};

/// Index into a [`Stylesheet`]'s expression slot table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprSlot(pub usize);

/// One step of a match pattern (matched right-to-left against the node and
/// its ancestors).
#[derive(Debug, Clone, PartialEq)]
pub struct PatternStep {
    /// Element name, `*`, `text()` or `node()` — reusing the XPath node
    /// test vocabulary.
    pub test: sensorxpath::NodeTest,
    /// Predicates on this pattern step.
    pub predicates: Vec<ExprSlot>,
}

/// A match pattern: `a/b[pred]`, `*`, `/`, `text()`, ...
///
/// Patterns are a restricted form of location paths: child-axis steps only,
/// matched from the right (the rightmost step must match the node itself,
/// each step to the left must match the respective ancestor). An absolute
/// pattern additionally anchors the leftmost step at the root.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    pub absolute: bool,
    /// Empty + absolute = the pattern `/` (document node).
    pub steps: Vec<PatternStep>,
}

impl Pattern {
    /// The pattern `/` matching the document node.
    pub fn root() -> Pattern {
        Pattern { absolute: true, steps: Vec::new() }
    }

    /// A single-step pattern matching elements by name.
    pub fn element(name: impl Into<sensorxpath::Name>) -> Pattern {
        Pattern {
            absolute: false,
            steps: vec![PatternStep {
                test: sensorxpath::NodeTest::Name(name.into()),
                predicates: Vec::new(),
            }],
        }
    }

    /// A single-step wildcard pattern `*`.
    pub fn any_element() -> Pattern {
        Pattern {
            absolute: false,
            steps: vec![PatternStep {
                test: sensorxpath::NodeTest::Any,
                predicates: Vec::new(),
            }],
        }
    }

    /// A `text()` pattern.
    pub fn text() -> Pattern {
        Pattern {
            absolute: false,
            steps: vec![PatternStep {
                test: sensorxpath::NodeTest::Text,
                predicates: Vec::new(),
            }],
        }
    }

    /// Default XSLT priority: `*`/`node()` = -0.5, plain name or `text()` =
    /// 0, anything with predicates or multiple steps = 0.5.
    pub fn default_priority(&self) -> f64 {
        if self.steps.len() > 1 || self.steps.iter().any(|s| !s.predicates.is_empty()) {
            return 0.5;
        }
        match self.steps.first() {
            None => -0.5, // `/`
            Some(s) => match s.test {
                sensorxpath::NodeTest::Any | sensorxpath::NodeTest::Node => -0.5,
                _ => 0.0,
            },
        }
    }
}

/// A piece of an attribute value template: literal text or `{expr}`.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrPart {
    Literal(String),
    Expr(ExprSlot),
}

/// An XSLT instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// Literal text output.
    Text(String),
    /// `<xsl:value-of select=.../>` — string value of the expression.
    ValueOf(ExprSlot),
    /// `<xsl:copy-of select=.../>` — deep copy of a node-set (attribute
    /// nodes become attributes of the current output element), or text for
    /// scalars.
    CopyOf(ExprSlot),
    /// `<xsl:copy>` — shallow copy of the context node (no attributes, per
    /// XSLT 1.0), body instantiated inside.
    Copy(Vec<Instruction>),
    /// A literal result element (or `<xsl:element name>` with a static
    /// name): attributes carry value templates.
    Element {
        name: String,
        attrs: Vec<(String, Vec<AttrPart>)>,
        body: Vec<Instruction>,
    },
    /// `<xsl:attribute name=...>` with a value template body.
    Attribute { name: String, value: Vec<AttrPart> },
    /// `<xsl:apply-templates select=... mode=.../>`; `select` defaults to
    /// the children of the context node.
    ApplyTemplates {
        select: Option<ExprSlot>,
        mode: Option<String>,
    },
    /// `<xsl:if test=...>`.
    If { test: ExprSlot, body: Vec<Instruction> },
    /// `<xsl:choose>` with `(test, body)` branches and an optional
    /// `otherwise`.
    Choose {
        branches: Vec<(ExprSlot, Vec<Instruction>)>,
        otherwise: Vec<Instruction>,
    },
    /// `<xsl:for-each select=...>`.
    ForEach { select: ExprSlot, body: Vec<Instruction> },
    /// `<xsl:variable name=... select=.../>` — binds in the remainder of
    /// the current body.
    Variable { name: String, select: ExprSlot },
}

/// A template rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    pub pattern: Pattern,
    pub mode: Option<String>,
    /// Explicit priority; defaults to [`Pattern::default_priority`].
    pub priority: Option<f64>,
    pub body: Vec<Instruction>,
}

/// A stylesheet: template rules plus the expression slot table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stylesheet {
    pub templates: Vec<Template>,
    /// XPath sources referenced by [`ExprSlot`].
    pub exprs: Vec<String>,
}

impl Stylesheet {
    /// Creates an empty stylesheet.
    pub fn new() -> Stylesheet {
        Stylesheet::default()
    }

    /// Interns an XPath source string, returning its slot.
    pub fn slot(&mut self, source: impl Into<String>) -> ExprSlot {
        self.exprs.push(source.into());
        ExprSlot(self.exprs.len() - 1)
    }

    /// Adds a template and returns its index.
    pub fn add_template(&mut self, t: Template) -> usize {
        self.templates.push(t);
        self.templates.len() - 1
    }

    /// Serializes to standard `<xsl:...>` text (re-parseable by
    /// [`crate::parse_stylesheet`]). Used by the *naive* QEG path, which —
    /// like the paper's unoptimized prototype — generates stylesheet text
    /// and pays full parse + compile cost per query.
    pub fn to_xml_text(&self) -> String {
        let mut out = String::new();
        out.push_str("<xsl:stylesheet version=\"1.0\">\n");
        for t in &self.templates {
            out.push_str("<xsl:template match=\"");
            push_escaped_attr(&mut out, &self.pattern_text(&t.pattern));
            out.push('"');
            if let Some(m) = &t.mode {
                let _ = write!(out, " mode=\"{m}\"");
            }
            if let Some(p) = t.priority {
                let _ = write!(out, " priority=\"{p}\"");
            }
            out.push('>');
            self.body_text(&t.body, &mut out);
            out.push_str("</xsl:template>\n");
        }
        out.push_str("</xsl:stylesheet>\n");
        out
    }

    fn pattern_text(&self, p: &Pattern) -> String {
        if p.steps.is_empty() {
            return "/".to_string();
        }
        let mut s = String::new();
        if p.absolute {
            s.push('/');
        }
        for (i, step) in p.steps.iter().enumerate() {
            if i > 0 {
                s.push('/');
            }
            let _ = write!(s, "{}", step.test);
            for &pred in &step.predicates {
                let _ = write!(s, "[{}]", self.exprs[pred.0]);
            }
        }
        s
    }

    fn attr_value_text(&self, parts: &[AttrPart], out: &mut String) {
        for part in parts {
            match part {
                AttrPart::Literal(s) => {
                    // `{`/`}` must be doubled in attribute value templates.
                    for ch in s.chars() {
                        match ch {
                            '{' => out.push_str("{{"),
                            '}' => out.push_str("}}"),
                            _ => {
                                let mut buf = String::new();
                                push_escaped_attr(&mut buf, &ch.to_string());
                                out.push_str(&buf);
                            }
                        }
                    }
                }
                AttrPart::Expr(slot) => {
                    out.push('{');
                    push_escaped_attr(out, &self.exprs[slot.0]);
                    out.push('}');
                }
            }
        }
    }

    fn body_text(&self, body: &[Instruction], out: &mut String) {
        for instr in body {
            match instr {
                Instruction::Text(t) => push_escaped_text(out, t),
                Instruction::ValueOf(slot) => {
                    out.push_str("<xsl:value-of select=\"");
                    push_escaped_attr(out, &self.exprs[slot.0]);
                    out.push_str("\"/>");
                }
                Instruction::CopyOf(slot) => {
                    out.push_str("<xsl:copy-of select=\"");
                    push_escaped_attr(out, &self.exprs[slot.0]);
                    out.push_str("\"/>");
                }
                Instruction::Copy(body) => {
                    out.push_str("<xsl:copy>");
                    self.body_text(body, out);
                    out.push_str("</xsl:copy>");
                }
                Instruction::Element { name, attrs, body } => {
                    let _ = write!(out, "<{name}");
                    for (an, av) in attrs {
                        let _ = write!(out, " {an}=\"");
                        self.attr_value_text(av, out);
                        out.push('"');
                    }
                    out.push('>');
                    self.body_text(body, out);
                    let _ = write!(out, "</{name}>");
                }
                Instruction::Attribute { name, value } => {
                    let _ = write!(out, "<xsl:attribute name=\"{name}\" value=\"");
                    self.attr_value_text(value, out);
                    out.push_str("\"/>");
                }
                Instruction::ApplyTemplates { select, mode } => {
                    out.push_str("<xsl:apply-templates");
                    if let Some(slot) = select {
                        out.push_str(" select=\"");
                        push_escaped_attr(out, &self.exprs[slot.0]);
                        out.push('"');
                    }
                    if let Some(m) = mode {
                        let _ = write!(out, " mode=\"{m}\"");
                    }
                    out.push_str("/>");
                }
                Instruction::If { test, body } => {
                    out.push_str("<xsl:if test=\"");
                    push_escaped_attr(out, &self.exprs[test.0]);
                    out.push_str("\">");
                    self.body_text(body, out);
                    out.push_str("</xsl:if>");
                }
                Instruction::Choose { branches, otherwise } => {
                    out.push_str("<xsl:choose>");
                    for (test, body) in branches {
                        out.push_str("<xsl:when test=\"");
                        push_escaped_attr(out, &self.exprs[test.0]);
                        out.push_str("\">");
                        self.body_text(body, out);
                        out.push_str("</xsl:when>");
                    }
                    if !otherwise.is_empty() {
                        out.push_str("<xsl:otherwise>");
                        self.body_text(otherwise, out);
                        out.push_str("</xsl:otherwise>");
                    }
                    out.push_str("</xsl:choose>");
                }
                Instruction::ForEach { select, body } => {
                    out.push_str("<xsl:for-each select=\"");
                    push_escaped_attr(out, &self.exprs[select.0]);
                    out.push_str("\">");
                    self.body_text(body, out);
                    out.push_str("</xsl:for-each>");
                }
                Instruction::Variable { name, select } => {
                    let _ = write!(out, "<xsl:variable name=\"{name}\" select=\"");
                    push_escaped_attr(out, &self.exprs[select.0]);
                    out.push_str("\"/>");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_interning() {
        let mut s = Stylesheet::new();
        let a = s.slot("@id");
        let b = s.slot("block");
        assert_eq!(a, ExprSlot(0));
        assert_eq!(b, ExprSlot(1));
        assert_eq!(s.exprs, vec!["@id".to_string(), "block".to_string()]);
    }

    #[test]
    fn default_priorities() {
        assert_eq!(Pattern::root().default_priority(), -0.5);
        assert_eq!(Pattern::any_element().default_priority(), -0.5);
        assert_eq!(Pattern::element("a").default_priority(), 0.0);
        assert_eq!(Pattern::text().default_priority(), 0.0);
        let mut s = Stylesheet::new();
        let pred = s.slot("@id = '1'");
        let p = Pattern {
            absolute: false,
            steps: vec![PatternStep {
                test: sensorxpath::NodeTest::Name("a".into()),
                predicates: vec![pred],
            }],
        };
        assert_eq!(p.default_priority(), 0.5);
    }

    #[test]
    fn to_xml_text_emits_templates() {
        let mut s = Stylesheet::new();
        let sel = s.slot("block");
        s.add_template(Template {
            pattern: Pattern::element("neighborhood"),
            mode: Some("step1".into()),
            priority: None,
            body: vec![
                Instruction::Text("hi".into()),
                Instruction::ApplyTemplates {
                    select: Some(sel),
                    mode: Some("step2".into()),
                },
            ],
        });
        let text = s.to_xml_text();
        assert!(text.contains("match=\"neighborhood\""));
        assert!(text.contains("mode=\"step1\""));
        assert!(text.contains("select=\"block\""));
        assert!(text.contains("hi"));
    }
}
