//! Minimal command-line options shared by every experiment binary.
//!
//! No external argument-parsing crate is needed for four flags:
//!
//! ```text
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
    /// Parses `args` (without the program name). Unknown flags abort with a
    /// usage message.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> ExpOptions {
        let mut opts = ExpOptions::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().unwrap_or_else(|| usage("--scale needs a value"));
                    opts.scale = v
                        .parse()
                        .unwrap_or_else(|_| usage("--scale expects a float"));
                }
                "--full" => opts.scale = 1.0,
                "--seed" => {
                    let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                    opts.seed = v.parse().unwrap_or_else(|_| usage("--seed expects a u64"));
                }
                "--threads" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| usage("--threads needs a value"));
                    opts.threads = v
                        .parse()
                        .unwrap_or_else(|_| usage("--threads expects a usize"));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other:?}")),
            }
        }
        if opts.scale <= 0.0 || opts.scale.is_nan() || !opts.scale.is_finite() {
            usage("--scale must be positive");
        }
        opts
    }

    /// Parses the process arguments.
    pub fn from_env() -> ExpOptions {
        ExpOptions::parse(std::env::args().skip(1))
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: <experiment> [--scale <f64>] [--full] [--seed <u64>] [--threads <n>]\n\
         \n\
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
        ExpOptions::parse(args.iter().map(|s| s.to_string()))
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
}
