//! The `julie` verifier as a library: the shared engine runner, the
//! portfolio supervisor, the report/JSON renderings, and the serve
//! subsystem, so integration tests (and embedders) can drive verification
//! runs in-process. The `julie` binary in `main.rs` is a thin CLI over
//! these modules.

pub mod engine;
pub mod json;
pub mod portfolio;
pub mod report;
pub mod serve;
pub mod signals;

/// The positional (non-`--flag`) arguments after the command word.
pub fn positional(args: &[String]) -> Vec<&String> {
    args.iter()
        .skip(1)
        .filter(|a| !a.starts_with("--"))
        .collect()
}

/// The value of `--key=value`, if present.
pub fn option<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    let prefix = format!("--{key}=");
    args.iter().find_map(|a| a.strip_prefix(&prefix))
}

/// Whether the bare flag `--key` is present.
pub fn flag(args: &[String], key: &str) -> bool {
    args.iter().any(|a| a == &format!("--{key}"))
}

/// The message of a failed write to a command's output.
pub fn write_error(e: std::io::Error) -> String {
    format!("cannot write output: {e}")
}
