//! Command line of the `reproduce` binary.
//!
//! No external argument-parsing crate is needed for four flags:
//!
//! ```text
//! reproduce <id>... | all | --list [flags]
//!
//! --scale <f64>   workload scale relative to the paper (default 0.1)
//! --full          paper-scale workloads (equivalent to --scale 1.0)
//! --seed <u64>    master seed (default 0x16092016)
//! --threads <n>   Grapes(k) parallel thread count (default 6)
//! ```

/// Parsed experiment options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpOptions {
    /// Workload scale relative to the paper's sizes.
    pub scale: f64,
    /// Master seed for dataset and query generation.
    pub seed: u64,
    /// Threads for Grapes(k).
    pub threads: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 0.1,
            seed: 0x1609_2016,
            threads: 6,
        }
    }
}

impl ExpOptions {
    /// Parses `args` (without the program name) into the options and the
    /// positional targets (figure ids, `all`, or `--list`). Unknown flags
    /// abort with a usage message.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> (ExpOptions, Vec<String>) {
        let mut opts = ExpOptions::default();
        let mut targets = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => opts.scale = value(&mut it, "--scale"),
                "--full" => opts.scale = 1.0,
                "--seed" => opts.seed = value(&mut it, "--seed"),
                "--threads" => opts.threads = value(&mut it, "--threads"),
                "--help" | "-h" => usage(""),
                "--list" => targets.push(arg),
                other if other.starts_with('-') => usage(&format!("unknown flag {other:?}")),
                _ => targets.push(arg),
            }
        }
        if opts.scale <= 0.0 || !opts.scale.is_finite() {
            usage("--scale must be positive");
        }
        (opts, targets)
    }

    /// Parses the process arguments.
    pub fn from_env() -> (ExpOptions, Vec<String>) {
        ExpOptions::parse(std::env::args().skip(1))
    }
}

/// The next argument, parsed as `flag`'s value.
fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let v = args
        .next()
        .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
    v.parse()
        .unwrap_or_else(|_| usage(&format!("{flag}: bad value {v:?}")))
}

/// Prints `err` (if any) and the usage text, then exits with status 2.
pub fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: reproduce <id>... | all | --list [--scale <f64>] [--full] [--seed <u64>] [--threads <n>]\n\
         \n\
         --list    print every figure id with its caption\n\
         --scale   workload scale relative to the paper (default 0.1)\n\
         --full    paper-scale workloads (= --scale 1.0)\n\
         --seed    master RNG seed (default 0x16092016)\n\
         --threads Grapes(k) thread count (default 6)"
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ExpOptions {
        ExpOptions::parse(args.iter().map(|s| s.to_string())).0
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o, ExpOptions::default());
    }

    #[test]
    fn scale_and_seed() {
        let o = parse(&["--scale", "0.25", "--seed", "42"]);
        assert_eq!(o.scale, 0.25);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn full_overrides_scale() {
        let o = parse(&["--scale", "0.25", "--full"]);
        assert_eq!(o.scale, 1.0);
    }

    #[test]
    fn threads() {
        let o = parse(&["--threads", "2"]);
        assert_eq!(o.threads, 2);
    }

    #[test]
    fn targets_are_kept_in_order() {
        let args = [
            "fig07_iso_speedup_aids",
            "--scale",
            "0.5",
            "table1",
            "--list",
        ];
        let (o, targets) = ExpOptions::parse(args.iter().map(|s| s.to_string()));
        assert_eq!(o.scale, 0.5);
        assert_eq!(targets, ["fig07_iso_speedup_aids", "table1", "--list"]);
    }
}
