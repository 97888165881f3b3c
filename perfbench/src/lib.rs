//! Serve-mix benchmark of the VoD service, timed from outside the
//! library crates. See `README.md` beside `Cargo.toml` for how to run
//! it and what each metric means.

#![forbid(unsafe_code)]

pub mod host;
pub mod measure;
pub mod probe;
pub mod replay;
pub mod workload;
