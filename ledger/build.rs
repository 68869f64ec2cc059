//! Pins where the linker places `core::str::from_utf8`.
//!
//! `o2::serve::parse_flat_json` calls `from_utf8` on the rest of the
//! request line once per character, so on `serve-edits` most of the
//! daemon's time is that one loop. On x86-64 its speed depends on the
//! function's address modulo 64: builds of the same source at another
//! path, or with an unrelated change, put it at a different offset, and
//! the workload's throughput moved by a factor of about 1.5 between such
//! builds. Placing the function first in a page-aligned `.text` gives
//! every build the same offset. The benchmark prints the offset it got
//! with its provenance.
//!
//! The symbol name is that of the toolchain's precompiled `core`. With
//! another toolchain the linker finds no such symbol, skips the entry
//! without a warning, and the offset is again left to the layout.

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=link-order.txt");
    let os = std::env::var("CARGO_CFG_TARGET_OS").unwrap_or_default();
    let arch = std::env::var("CARGO_CFG_TARGET_ARCH").unwrap_or_default();
    if os != "linux" || arch != "x86_64" {
        return;
    }
    let dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    println!("cargo:rustc-link-arg-bins=-Wl,-z,separate-code");
    println!("cargo:rustc-link-arg-bins=-Wl,--symbol-ordering-file={dir}/link-order.txt");
    println!("cargo:rustc-link-arg-bins=-Wl,--no-warn-symbol-ordering");
}
