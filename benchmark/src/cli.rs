//! Command-line arguments, shared by both binaries.

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload W`; `None` runs all six.
    pub workload: Option<String>,
    /// `--seed N` (default 1): inputs are a pure function of it.
    pub seed: u64,
    /// `--seconds S` (default 10): how long a run measures.
    pub seconds: f64,
    /// `--trace 0|1`: which binary `run.sh` picked; each binary checks
    /// it was the right one.
    pub trace: bool,
    /// `--aa`: run the set twice and compare.
    pub aa: bool,
}

impl Args {
    /// Parse `argv[1..]`.
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            aa: false,
        };
        let mut it = argv;
        while let Some(flag) = it.next() {
            let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" => a.workload = Some(value("a name")?),
                "--seed" => {
                    a.seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    a.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    a.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                "--aa" => a.aa = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse("--workload dp_short --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("dp_short"));
        assert_eq!((a.seed, a.seconds, a.trace, a.aa), (7, 12.0, true, false));
        assert_eq!(parse("").unwrap().seed, 1);
        assert!(parse("--seed").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus").is_err());
    }
}
