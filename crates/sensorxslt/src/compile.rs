//! Stylesheet compilation: parse all expression slots, index templates.
//!
//! [`compile`] is the expensive step the paper measures ("Creating the XSLT
//! query", Fig. 11). [`Compiled::patch_slots`] implements the §4
//! optimization: keep the compiled skeleton and re-parse only the
//! query-dependent slots.

use std::collections::HashMap;

use sensorxpath::{Expr, NodeTest};

use crate::error::{XsltError, XsltResult};
use crate::ir::{ExprSlot, Pattern, Stylesheet};

/// A compiled stylesheet: the IR plus parsed expressions and a template
/// dispatch index.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub sheet: Stylesheet,
    /// Parsed expressions, parallel to `sheet.exprs`.
    pub parsed: Vec<Expr>,
    /// Template indices by `(mode, element name)`; `None` name buckets hold
    /// templates whose leading test is not a plain name (wildcards, text(),
    /// node(), `/`), which must be considered for every node.
    index: HashMap<(Option<String>, Option<String>), Vec<usize>>,
}

/// Compiles a stylesheet: parses every expression slot and builds the
/// dispatch index.
pub fn compile(sheet: Stylesheet) -> XsltResult<Compiled> {
    let mut parsed = Vec::with_capacity(sheet.exprs.len());
    for src in &sheet.exprs {
        let mut e = sensorxpath::parse(src)?;
        sensorxpath::mark_index_hints(&mut e);
        parsed.push(e);
    }
    let mut index: HashMap<(Option<String>, Option<String>), Vec<usize>> = HashMap::new();
    for (i, t) in sheet.templates.iter().enumerate() {
        let name = leading_name(&t.pattern);
        index.entry((t.mode.clone(), name)).or_default().push(i);
    }
    Ok(Compiled { sheet, parsed, index })
}

fn leading_name(p: &Pattern) -> Option<String> {
    match p.steps.last().map(|s| &s.test) {
        Some(NodeTest::Name(n)) => Some(n.to_string()),
        _ => None,
    }
}

impl Compiled {
    /// Re-parses only the given slots with new sources — the fast path for
    /// per-query stylesheet creation (paper §4). The template structure and
    /// all other parsed expressions are reused as-is.
    pub fn patch_slots(&mut self, updates: &[(ExprSlot, String)]) -> XsltResult<()> {
        for (slot, src) in updates {
            let i = slot.0;
            if i >= self.parsed.len() {
                return Err(XsltError::BadSlot(i));
            }
            let mut e = sensorxpath::parse(src)?;
            sensorxpath::mark_index_hints(&mut e);
            self.parsed[i] = e;
            self.sheet.exprs[i] = src.clone();
        }
        Ok(())
    }

    /// The parsed expression for a slot.
    pub fn expr(&self, slot: ExprSlot) -> XsltResult<&Expr> {
        self.parsed.get(slot.0).ok_or(XsltError::BadSlot(slot.0))
    }

    /// Candidate template indices for a node with element name `name` (or
    /// `None` for text/document nodes) in `mode`.
    pub fn candidates(&self, mode: Option<&str>, name: Option<&str>) -> Vec<usize> {
        let mut out = Vec::new();
        let mode_key = mode.map(|s| s.to_string());
        if let Some(n) = name {
            if let Some(v) = self.index.get(&(mode_key.clone(), Some(n.to_string()))) {
                out.extend_from_slice(v);
            }
        }
        if let Some(v) = self.index.get(&(mode_key, None)) {
            out.extend_from_slice(v);
        }
        out
    }

    /// Effective priority of template `i`.
    pub fn priority(&self, i: usize) -> f64 {
        let t = &self.sheet.templates[i];
        t.priority.unwrap_or_else(|| t.pattern.default_priority())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Instruction, PatternStep, Template};

    fn sheet_with(patterns: Vec<(Pattern, Option<&str>)>) -> Stylesheet {
        let mut s = Stylesheet::new();
        for (p, mode) in patterns {
            s.add_template(Template {
                pattern: p,
                mode: mode.map(String::from),
                priority: None,
                body: vec![Instruction::Text("x".into())],
            });
        }
        s
    }

    #[test]
    fn compile_parses_all_slots() {
        let mut s = Stylesheet::new();
        let a = s.slot("@id = '1'");
        let b = s.slot("block/parkingSpace");
        let c = compile(s).unwrap();
        assert!(c.expr(a).is_ok());
        assert!(c.expr(b).is_ok());
        assert!(matches!(c.expr(ExprSlot(99)), Err(XsltError::BadSlot(99))));
    }

    #[test]
    fn compile_rejects_bad_xpath() {
        let mut s = Stylesheet::new();
        s.slot("@id = ");
        assert!(matches!(compile(s), Err(XsltError::XPath(_))));
    }

    #[test]
    fn candidates_by_name_and_wildcard() {
        let s = sheet_with(vec![
            (Pattern::element("a"), None),
            (Pattern::any_element(), None),
            (Pattern::element("a"), Some("m")),
            (Pattern::text(), None),
        ]);
        let c = compile(s).unwrap();
        // name buckets plus the None bucket (wildcard + text template).
        assert_eq!(c.candidates(None, Some("a")), vec![0, 1, 3]);
        assert_eq!(c.candidates(Some("m"), Some("a")), vec![2]);
        assert_eq!(c.candidates(None, Some("zzz")), vec![1, 3]);
        assert_eq!(c.candidates(None, None), vec![1, 3]);
    }

    #[test]
    fn patch_slots_reparses_only_targets() {
        let mut s = Stylesheet::new();
        let a = s.slot("true()");
        let b = s.slot("false()");
        let mut c = compile(s).unwrap();
        c.patch_slots(&[(a, "@id = 'patched'".to_string())]).unwrap();
        assert_eq!(c.sheet.exprs[a.0], "@id = 'patched'");
        assert_eq!(c.sheet.exprs[b.0], "false()");
        assert_eq!(c.expr(a).unwrap().as_id_equals(), Some("patched"));
        // Bad patches are rejected.
        assert!(matches!(
            c.patch_slots(&[(ExprSlot(42), "x".into())]),
            Err(XsltError::BadSlot(42))
        ));
        assert!(matches!(
            c.patch_slots(&[(b, "][".into())]),
            Err(XsltError::XPath(_))
        ));
    }

    #[test]
    fn priority_defaults_and_overrides() {
        let mut s = Stylesheet::new();
        s.add_template(Template {
            pattern: Pattern::element("a"),
            mode: None,
            priority: Some(3.5),
            body: vec![],
        });
        s.add_template(Template {
            pattern: Pattern {
                absolute: false,
                steps: vec![PatternStep {
                    test: NodeTest::Name("b".into()),
                    predicates: vec![],
                }],
            },
            mode: None,
            priority: None,
            body: vec![],
        });
        let c = compile(s).unwrap();
        assert_eq!(c.priority(0), 3.5);
        assert_eq!(c.priority(1), 0.0);
    }
}
