//! Records the compiler that builds the benchmark, for the machine
//! fingerprint in every results file.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=IGQ_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
