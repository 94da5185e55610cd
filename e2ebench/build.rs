//! Records the compiler version, which every result reports with its host.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| "rustc version unknown".to_string());
    println!("cargo:rustc-env=E2E_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
