//! Error type for the core query-processing layer.

use std::fmt;

/// Result alias used throughout the crate.
pub type CoreResult<T> = Result<T, CoreError>;

/// An error raised by the core layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying XML problem.
    Xml(sensorxml::XmlError),
    /// Underlying XPath problem (parse or evaluation).
    XPath(sensorxpath::XPathError),
    /// A query was malformed for distributed processing (e.g. no id-pinned
    /// prefix and no root owner to fall back to).
    Query(String),
    /// A fragment violated the partitioning/cache invariants (I1/I2, C1/C2).
    Invariant(String),
    /// A message referenced unknown state (unknown query id, missing node).
    Protocol(String),
    /// DNS could not resolve a required site name.
    Unresolvable(String),
    /// The target site has shut down (or is shutting down): its pending
    /// work is completed with this error instead of blocking callers.
    SiteDown,
    /// The durability plane failed (backend I/O, or recovery applied to a
    /// non-empty database).
    Storage(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Xml(e) => write!(f, "xml: {e}"),
            CoreError::XPath(e) => write!(f, "xpath: {e}"),
            CoreError::Query(m) => write!(f, "bad query: {m}"),
            CoreError::Invariant(m) => write!(f, "invariant violation: {m}"),
            CoreError::Protocol(m) => write!(f, "protocol error: {m}"),
            CoreError::Unresolvable(m) => write!(f, "unresolvable site name: {m}"),
            CoreError::SiteDown => write!(f, "site down"),
            CoreError::Storage(m) => write!(f, "storage: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<sensorxml::XmlError> for CoreError {
    fn from(e: sensorxml::XmlError) -> Self {
        CoreError::Xml(e)
    }
}

impl From<sensorxpath::XPathError> for CoreError {
    fn from(e: sensorxpath::XPathError) -> Self {
        CoreError::XPath(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CoreError::Query("no prefix".into()).to_string().contains("bad query"));
        assert!(CoreError::Invariant("I2".into()).to_string().contains("invariant"));
    }
}
