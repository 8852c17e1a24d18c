//! `perfbench`: the helper binary behind `perfbench/run.py`.
//!
//! * `prepare` — generates a workload's request sequence from a seed and
//!   answers every distinct request with an in-process `Prospector` on
//!   the same snapshot the server loads (the reference the served
//!   answers are checked against);
//! * `load` — the closed-loop keep-alive socket client: one thread per
//!   connection, zero think time, warm-up pass, timed phase, answer
//!   checks, `/metrics` + `/status` scrapes around the timed phase;
//! * `replay` — the traced run: the same requests replayed in-process
//!   through each layer's public functions, with spans recorded around
//!   every call.
//!
//! Every subcommand writes one JSON document to its `--out` path.

mod load;
mod replay;
mod workload;

use std::collections::HashMap;
use std::process::ExitCode;

/// `--key value` arguments of one subcommand.
pub struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
            map.insert(name.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    /// A required string argument.
    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing `--{name}`"))
    }

    /// A required numeric argument.
    pub fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.str(name)?
            .parse()
            .map_err(|_| format!("`--{name}` needs a number"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench prepare|load|replay --key value ...");
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "prepare" => workload::prepare(&args),
        "load" => load::run(&args),
        "replay" => replay::run(&args),
        other => Err(format!("unknown subcommand `{other}`")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench {command}: {message}");
            ExitCode::FAILURE
        }
    }
}
