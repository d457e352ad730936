//! Anchor crate for the workspace-level integration tests in `/tests`;
//! it intentionally contains no code of its own.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
