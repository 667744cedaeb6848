//! The repo benchmark (see `README.md`): four long in-process workloads,
//! eight metrics of an end-to-end run (three of them bounded), and a
//! traced per-layer pass.
//!
//! The benchmark drives the program only through public functions of the
//! workspace crates and measures every layer from outside. The binary
//! (`src/main.rs`) is the command line over this library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod fleet;
pub mod harness;
pub mod layers;
pub mod script;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;
