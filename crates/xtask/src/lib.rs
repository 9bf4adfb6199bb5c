//! Workspace automation library backing the `cargo xtask` commands.
//!
//! The checker lives in a library crate (rather than inline in the
//! binary) so the self-tests can exercise every rule against
//! synthetic sources and a seeded on-disk fixture — the acceptance
//! gate requires `cargo xtask lint` to fail on a seeded violation.

pub mod baseline;
pub mod checks;
pub mod json;
pub mod lexer;
pub mod model;
pub mod soak;
