//! Links the unwinder statically where the C toolchain can.
//!
//! `std` references `_Unwind_*`, which by default makes `libdiehard.so`
//! `NEEDED libgcc_s.so.1` — a library no coreutils host loads otherwise, so
//! every preloaded `exec` maps, relocates and faults it in (more than half of
//! the interposer's start-up tax on a `cat`). The same unwinder ships as the
//! static archive `libgcc_eh.a` beside the compiler; when `cc` names an
//! existing one it is linked instead and the dependency disappears. Its
//! symbols are not in the dynamic export list (a cdylib exports only its
//! `#[no_mangle]` items), so no C++ host ever resolves its unwinder here.
//! Anything else — no `cc`, no archive, a relative answer (which is `cc`
//! echoing the name back: not found) — emits nothing and leaves the link as
//! it was. `tests/ld_preload.rs` learns which link it got from
//! `STATIC_UNWINDER`, set for this package's targets only when the archive
//! was found.

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    // `cc` is the driver rustc links this cdylib with, so its archive is
    // the one that matches the link.
    let Ok(answer) = Command::new("cc")
        .arg("-print-file-name=libgcc_eh.a")
        .output()
    else {
        return;
    };
    let Ok(path) = String::from_utf8(answer.stdout) else {
        return;
    };
    let archive = Path::new(path.trim());
    if !answer.status.success() || !archive.is_absolute() || !archive.is_file() {
        return;
    }
    if let Some(dir) = archive.parent() {
        println!("cargo:rustc-link-search=native={}", dir.display());
        println!("cargo:rustc-link-lib=static=gcc_eh");
        println!("cargo:rustc-env=STATIC_UNWINDER=1");
    }
}
