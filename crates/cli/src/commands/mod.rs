//! CLI command implementations.

pub mod figures;
pub mod generate;
pub mod place;
pub mod serve;
pub mod simulate;
pub mod snapshot;
pub mod stream;
