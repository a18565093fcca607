//! The one flag parser of `reproduce`: a subcommand declares its flags
//! and positional arguments, [`parse`] checks the command line against the
//! declaration, and every usage error is one `Err(String)` that names the
//! subcommand and lists what it accepts. The binary prints it and exits 2.

/// What a flag takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Nothing: the flag is present or not.
    Switch,
    /// Any string (a path, a list, an expression).
    Str,
    /// A non-negative integer.
    Int,
    /// A number.
    Num,
}

/// One declared flag: its spelling (with the dashes) and what follows it.
pub type Flag = (&'static str, Kind);

/// A command line that matched its declaration.
#[derive(Debug)]
pub struct Args<'a> {
    flags: &'a [Flag],
    given: Vec<(&'static str, &'a str)>,
    positional: Vec<&'a str>,
}

/// Check `args` against a subcommand's declaration: `flags`, and the
/// names of its positional arguments, all required (`&[]` for none). A flag
/// may be given more than once; [`Args::all`] returns every value and the
/// other accessors the last.
pub fn parse<'a>(
    sub: &str,
    flags: &'a [Flag],
    positional: &[&str],
    args: &'a [String],
) -> Result<Args<'a>, String> {
    let accepted = || {
        let takes = |kind| match kind {
            Kind::Switch => "",
            Kind::Str => " <value>",
            Kind::Int => " <n>",
            Kind::Num => " <x>",
        };
        let flags = flags
            .iter()
            .map(|&(name, kind)| format!(" [{name}{}]", takes(kind)));
        let words: String = positional
            .iter()
            .map(|p| format!(" {p}"))
            .chain(flags)
            .collect();
        if words.is_empty() {
            "this subcommand takes no arguments".to_string()
        } else {
            format!("usage: reproduce {sub}{words}")
        }
    };
    let mut out = Args {
        flags,
        given: Vec::new(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if out.positional.len() == positional.len() {
                return Err(format!(
                    "unexpected {sub} argument {arg:?} ({})",
                    accepted()
                ));
            }
            out.positional.push(arg);
            continue;
        }
        let Some(&(name, kind)) = flags.iter().find(|f| f.0 == arg) else {
            return Err(format!("unknown {sub} flag {arg:?} ({})", accepted()));
        };
        let needs = match kind {
            Kind::Switch => {
                out.given.push((name, ""));
                continue;
            }
            Kind::Str => "a value",
            Kind::Int => "a non-negative integer",
            Kind::Num => "a number",
        };
        let value = it.next().ok_or(format!("{sub}: {name} needs {needs}"))?;
        let ok = match kind {
            Kind::Int => value.parse::<usize>().is_ok(),
            Kind::Num => value.parse::<f64>().is_ok_and(f64::is_finite),
            Kind::Str | Kind::Switch => true,
        };
        if !ok {
            return Err(format!("{sub}: {name} needs {needs}, got {value:?}"));
        }
        out.given.push((name, value));
    }
    if out.positional.len() < positional.len() {
        return Err(format!(
            "{sub} needs {} ({})",
            positional[out.positional.len()],
            accepted()
        ));
    }
    Ok(out)
}

impl<'a> Args<'a> {
    /// Every value given for `name`, in command-line order. Panics if the
    /// subcommand did not declare `name` with `kind` — a bug in the caller,
    /// not a usage error.
    fn values<'s>(&'s self, name: &'s str, kind: Kind) -> impl Iterator<Item = &'a str> + 's {
        assert!(
            self.flags.contains(&(name, kind)),
            "flag {name} is not declared as {kind:?}"
        );
        self.given.iter().filter(move |g| g.0 == name).map(|g| g.1)
    }

    /// Was the switch given?
    pub fn has(&self, name: &str) -> bool {
        self.values(name, Kind::Switch).next().is_some()
    }

    /// The value of a string flag, if given.
    pub fn str(&self, name: &str) -> Option<&'a str> {
        self.values(name, Kind::Str).last()
    }

    /// Every value of a repeatable string flag.
    pub fn all(&self, name: &str) -> Vec<&'a str> {
        self.values(name, Kind::Str).collect()
    }

    /// The value of an integer flag, if given.
    pub fn int(&self, name: &str) -> Option<usize> {
        let v = self.values(name, Kind::Int).last()?;
        Some(v.parse().expect("checked by parse"))
    }

    /// The value of a numeric flag, if given.
    pub fn num(&self, name: &str) -> Option<f64> {
        let v = self.values(name, Kind::Num).last()?;
        Some(v.parse().expect("checked by parse"))
    }

    /// The `i`-th positional argument (all declared ones are present).
    pub fn positional(&self, i: usize) -> &'a str {
        self.positional[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE6: &[Flag] = &[
        ("--out", Kind::Str),
        ("--bs", Kind::Int),
        ("--tol", Kind::Num),
        ("--chaos", Kind::Switch),
    ];
    const CHECK: &[Flag] = &[("--require", Kind::Str)];

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn declared_flags_parse_to_typed_values() {
        let args = argv(&["--bs", "32", "--chaos", "--tol", "0.2", "--bs", "48"]);
        let f = parse("table6", TABLE6, &[], &args).unwrap();
        assert_eq!(f.int("--bs"), Some(48)); // last one wins
        assert_eq!(f.num("--tol"), Some(0.2));
        assert!(f.has("--chaos"));
        assert_eq!(f.str("--out"), None);
        let none = argv(&[]);
        let f = parse("table6", TABLE6, &[], &none).unwrap();
        assert!(!f.has("--chaos") && f.int("--bs").is_none());
    }

    #[test]
    fn usage_errors_name_the_subcommand_and_its_flags() {
        let err = |flags, positional: &[&str], words: &[&str]| {
            parse("table6", flags, positional, &argv(words)).unwrap_err()
        };
        // Unknown flag: the message lists what is accepted.
        let e = err(TABLE6, &[], &["--repotr", "x"]);
        assert!(e.contains("unknown table6 flag \"--repotr\""), "{e}");
        assert!(
            e.contains("[--out <value>] [--bs <n>] [--tol <x>] [--chaos]"),
            "{e}"
        );
        // Missing value.
        let e = err(TABLE6, &[], &["--out"]);
        assert!(e.contains("--out needs a value"), "{e}");
        // Unparsable values: an integer flag does not take 64.5 or -1, a
        // numeric flag does not take words or NaN.
        for bad in ["64.5", "-1", "many"] {
            let e = err(TABLE6, &[], &["--bs", bad]);
            assert!(e.contains("--bs needs a non-negative integer"), "{e}");
        }
        for bad in ["wide", "NaN"] {
            let e = err(TABLE6, &[], &["--tol", bad]);
            assert!(e.contains("--tol needs a number"), "{e}");
        }
        // A subcommand without flags rejects stray arguments of both kinds.
        let e = err(&[], &[], &["--verbose"]);
        assert!(e.contains("takes no arguments"), "{e}");
        let e = err(&[], &[], &["extra"]);
        assert!(e.contains("unexpected table6 argument \"extra\""), "{e}");
    }

    #[test]
    fn positional_paths_and_repeated_flags() {
        let args = argv(&[
            "--require",
            "health",
            "r.json",
            "--require",
            "corpus.mismatched=0",
        ]);
        let f = parse("check-report", CHECK, &["<report.json>"], &args).unwrap();
        assert_eq!(f.positional(0), "r.json");
        assert_eq!(f.all("--require"), ["health", "corpus.mismatched=0"]);
        // The path is required, and only one is taken.
        let missing = argv(&["--require", "health"]);
        let e = parse("check-report", CHECK, &["<report.json>"], &missing).unwrap_err();
        assert!(e.contains("check-report needs <report.json>"), "{e}");
        assert!(e.contains("--require"), "{e}");
        let two = argv(&["a.json", "b.json"]);
        let e = parse("check-report", CHECK, &["<report.json>"], &two).unwrap_err();
        assert!(
            e.contains("unexpected check-report argument \"b.json\""),
            "{e}"
        );
    }
}
