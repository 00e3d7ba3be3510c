//! Shared helpers for the ASCEND example binaries.

#![warn(missing_docs)]

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("== {title} ==");
}
