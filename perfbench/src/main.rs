//! Helper binary of the vbadet benchmark (`perfbench/run.py` drives it).
//!
//! ```text
//! perfbench gen   --workload W --seed N --out DIR
//! perfbench trace --workload W --dir DIR --model FILE --vbadet BIN
//!                 --seconds S --spans FILE
//! ```
//!
//! `gen` writes a workload's seeded inputs and `DIR/manifest.tsv`; `trace`
//! walks them layer by layer and prints the per-layer metrics as JSON.

mod gen;
mod spans;
mod trace;
mod walk;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: perfbench gen|trace --workload W ...");
        return ExitCode::from(2);
    };
    let mut flags = HashMap::new();
    for pair in rest.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => {
                flags.insert(key[2..].to_string(), value.clone());
            }
            _ => {
                eprintln!("perfbench: expected --flag value pairs, got {pair:?}");
                return ExitCode::from(2);
            }
        }
    }
    let flag = |name: &str| -> Result<String, String> {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("--{name} is required"))
    };
    let result: Result<(), String> = (|| match command.as_str() {
        "gen" => {
            let seed = flag("seed")?.parse::<u64>().map_err(|e| e.to_string())?;
            gen::run(&flag("workload")?, seed, &PathBuf::from(flag("out")?))
                .map_err(|e| e.to_string())
        }
        "trace" => trace::run(&trace::Options {
            workload: flag("workload")?,
            dir: flag("dir")?.into(),
            model: flag("model")?.into(),
            vbadet: flag("vbadet")?.into(),
            seconds: flag("seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            spans: flag("spans")?.into(),
        })
        .map_err(|e| e.to_string()),
        other => Err(format!("unknown command {other}")),
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench {command}: {e}");
            ExitCode::from(1)
        }
    }
}
