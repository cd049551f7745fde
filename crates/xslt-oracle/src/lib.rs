//! # irisnet-xslt-oracle
//!
//! The paper builds every query-evaluate-gather pass as an XSLT program
//! (§3.5) and makes it cheap by reusing a compiled skeleton per query
//! shape (§4). `irisnet-core` runs a native plan-driven walk instead; this
//! crate keeps the XSLT program outside the runtime, behind core's
//! [`PassEngine`](irisnet_core::PassEngine) seam, for two users:
//!
//! * the walk's differential oracle — `tests/qeg_native_prop.rs` checks
//!   equal asks and errors pass by pass, and byte-equal answers and trace
//!   digests on the discrete-event simulator, against both creation
//!   variants;
//! * the naive and fast creation arms of Fig. 11 (`exp_micro`).
//!
//! ```no_run
//! use std::sync::Arc;
//! use irisnet_core::OaConfig;
//! use irisnet_xslt_oracle::{Creation, XsltQeg};
//!
//! let config = OaConfig {
//!     engine: Arc::new(XsltQeg::new(Creation::Fast)),
//!     ..OaConfig::default()
//! };
//! # let _ = config;
//! ```

mod qeg;

pub use qeg::{extract_asks, Creation, QegOutcome, QegProgram, XsltQeg, SKELETON_CACHE_CAP};
