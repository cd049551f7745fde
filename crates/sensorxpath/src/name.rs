//! [`Name`]: the string type of the AST's names and literals.
//!
//! A query's names and literals are short (`usRegion`, `id`, `'Pittsburgh'`)
//! and are copied between the parsed query, its plan and the planner's
//! predicate splits. `Name` keeps up to [`INLINE_CAP`] bytes inline and
//! shares longer strings behind an `Arc<str>`, so building one from a short
//! token and cloning any of them allocate nothing.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// The longest string a [`Name`] stores inline.
pub const INLINE_CAP: usize = 22;

/// An immutable string: inline up to [`INLINE_CAP`] bytes, shared beyond.
/// It dereferences to `str` and compares, hashes and orders like one.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` holds the UTF-8 bytes of a `str`; the rest is zero.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Shared(Arc<str>),
}

impl Name {
    /// A `Name` holding `s`; allocates only past [`INLINE_CAP`] bytes.
    pub fn new(s: &str) -> Name {
        if s.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            Name(Repr::Inline { len: s.len() as u8, buf })
        } else {
            Name(Repr::Shared(Arc::from(s)))
        }
    }

    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // SAFETY: `Inline` is built only by `Name::new`, which copies
            // the bytes of a `str` into `buf[..len]`; the field is private
            // to this module and never mutated, so the slice is UTF-8.
            Repr::Inline { len, buf } => unsafe {
                std::str::from_utf8_unchecked(&buf[..usize::from(*len)])
            },
            Repr::Shared(s) => s,
        }
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        if s.len() <= INLINE_CAP {
            Name::new(&s)
        } else {
            Name(Repr::Shared(Arc::from(s)))
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// Hashes like the `str` it holds, as [`Borrow<str>`] requires.
impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

macro_rules! eq_str {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for Name {
            fn eq(&self, other: &$other) -> bool {
                self.as_str() == &other[..]
            }
        }

        impl PartialEq<Name> for $other {
            fn eq(&self, other: &Name) -> bool {
                &self[..] == other.as_str()
            }
        }
    )*};
}

eq_str!(str, &str, String);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_shared_round_trip() {
        for s in ["", "id", "Pittsburgh", "a-22-byte-long-name-xy", "a-name-longer-than-22-bytes", "größe"] {
            let n = Name::new(s);
            assert_eq!(n.as_str(), s);
            assert_eq!(n, s);
            assert_eq!(n.clone(), n);
            assert_eq!(n.to_string(), s);
            assert_eq!(format!("{n:?}"), format!("{s:?}"));
            assert_eq!(Name::from(s.to_string()), n);
        }
        assert!(matches!(Name::new("a-22-byte-long-name-xy").0, Repr::Inline { .. }));
        assert!(matches!(Name::new("a-name-longer-than-22-bytes").0, Repr::Shared(_)));
    }

    #[test]
    fn hashes_and_orders_like_str() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        for s in ["x", "a-name-longer-than-22-bytes"] {
            let n = Name::new(s);
            assert_eq!(hash(&|st| n.hash(st)), hash(&|st| s.hash(st)));
        }
        assert!(Name::new("a") < Name::new("b"));
        assert!(Name::new("a-name-longer-than-22-bytes") < Name::new("b"));
    }

    #[test]
    fn size_matches_string() {
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
    }
}
