//! `figures` — the paper's tables, figures and ablations, served from
//! the [`FIGURES`] registry.
//!
//!   figures --list                 the registry: name, artifact, title
//!   figures <name>                 print one entry to stdout
//!   figures --all --out-dir <dir>  write every entry to <dir>/<artifact>
//!
//! `--all` re-executes this binary once per entry instead of calling
//! the entries in a row: each figure then starts from an empty global
//! metrics registry and tracer, exactly as when it is run by name, so
//! the committed bytes do not depend on which figures ran before it.

use std::fs::File;
use std::path::Path;
use std::process::Command;
use tfhpc_bench::figures::FIGURES;

fn all(out_dir: &Path) {
    let exe = std::env::current_exe().expect("own path");
    std::fs::create_dir_all(out_dir).expect("create --out-dir");
    for f in FIGURES {
        let path = out_dir.join(f.artifact);
        let out = File::create(&path).unwrap_or_else(|e| panic!("cannot create {path:?}: {e}"));
        let status = Command::new(&exe)
            .arg(f.name)
            .stdout(out)
            .status()
            .expect("re-execute figures");
        if !status.success() {
            eprintln!("figures: {} failed ({status})", f.name);
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
}

fn usage() -> ! {
    eprintln!("usage: figures --list | <name> | --all --out-dir <dir>");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args[..] {
        ["--list"] => {
            for f in FIGURES {
                println!("{:<22} {:<26} {}", f.name, f.artifact, f.title);
            }
        }
        ["--all", "--out-dir", dir] => all(Path::new(dir)),
        [name] => match FIGURES.iter().find(|f| f.name == name) {
            Some(figure) => (figure.run)(),
            None => usage(),
        },
        _ => usage(),
    }
}
