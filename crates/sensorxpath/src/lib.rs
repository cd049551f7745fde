//! # sensorxpath
//!
//! An XPath 1.0 engine over [`sensorxml`] documents, implementing the
//! **unordered fragment** of the language used by wide area sensor databases
//! (SIGMOD 2003, "Cache-and-Query for Wide Area Sensor Databases", §3.1):
//! the full expression language, axes, node tests, predicates and the core
//! function library, *minus* the order-dependent pieces (`position()`,
//! `last()`, positional number predicates, and the sibling axes), which are
//! meaningless when sibling order carries no information.
//!
//! Beyond plain evaluation this crate provides the query analysis the
//! IrisNet query processor is built on ([`analysis`]):
//!
//! * extraction of the *id-pinned prefix* of a query, from which the
//!   DNS-style name of the lowest-common-ancestor site is formed
//!   (self-starting distributed queries, §3.4);
//! * the *nesting depth* of a query (Definition 3.3);
//! * splitting a step's predicate conjunction into `P_id ∧ P_rest`, and
//!   separating consistency (freshness) predicates (§3.5, §4).
//!
//! The AST implements `Display` and round-trips through the parser, which
//! the distributed layer relies on to re-print subqueries it sends to other
//! sites.

pub mod analysis;
pub mod ast;
pub mod error;
pub mod eval;
pub mod functions;
pub mod lexer;
pub mod name;
pub mod optimize;
pub mod parser;
pub mod value;

pub use ast::{Axis, BinOp, Expr, LocationPath, NodeTest, Step};
pub use name::Name;
pub use error::{XPathError, XPathResult};
pub use eval::{evaluate, evaluate_at, EvalContext, Vars};
pub use optimize::{mark_index_hints, optimize};
pub use parser::{parse, MAX_NESTING};
pub use value::{Value, XNode};
