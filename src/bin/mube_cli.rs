//! `mube-cli` — command-line front end for the µBE engine.
//!
//! Subcommands:
//!
//! * `generate --sources N [--seed S] [--out FILE]` — synthesize a
//!   Books-domain universe (the paper's §7.1 generator) and write it in the
//!   universe file format.
//! * `solve FILE --max-sources M [--theta T] [--seed S] [--solver NAME]
//!   [--weights name=w,name=w,...] [--require-source NAME]...` — run one
//!   µBE iteration and print the chosen sources and mediated schema.
//! * `match FILE --sources NAME,NAME,... [--theta T]` — run the Match
//!   operator alone on an explicit source set.
//!
//! The universe file format is documented in [`mube::universe_file`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use mube::datagen::UniverseConfig;
use mube::prelude::*;
use mube::serve::{default_weights, solver_by_name, source_by_name};
use mube::universe_file::{format_universe, parse_universe};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  mube-cli generate --sources N [--seed S] [--out FILE]
  mube-cli solve FILE --max-sources M [--theta T] [--seed S] [--solver NAME]
            [--weights name=w,...] [--require-source NAME]...
  mube-cli match FILE --sources NAME,NAME,... [--theta T]
solvers: tabu (default), sa, pso, sls, greedy, random, exhaustive";

fn run(args: &[String]) -> Result<String, String> {
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        Some("generate") => cmd_generate(&mut args),
        Some("solve") => cmd_solve(&mut args),
        Some("match") => cmd_match(&mut args),
        Some(other) => Err(format!("unknown subcommand {other:?}")),
        None => Err("missing subcommand".to_owned()),
    }
}

/// Parses `--flag value` style options plus positional arguments.
struct Options {
    positional: Vec<String>,
    flags: BTreeMap<String, Vec<String>>,
}

fn parse_options(args: &mut dyn Iterator<Item = &str>) -> Result<Options, String> {
    let mut positional = Vec::new();
    let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut iter = args.peekable();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = iter
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags
                .entry(name.to_owned())
                .or_default()
                .push(value.to_owned());
        } else {
            positional.push(arg.to_owned());
        }
    }
    Ok(Options { positional, flags })
}

impl Options {
    fn single(&self, name: &str) -> Result<Option<&str>, String> {
        match self.flags.get(name).map(Vec::as_slice) {
            None => Ok(None),
            Some([one]) => Ok(Some(one)),
            Some(_) => Err(format!("flag --{name} given more than once")),
        }
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.single(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.single(name)? {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|e| format!("invalid value for --{name}: {e}")),
        }
    }
}

// ---------------------------------------------------------------- generate

fn cmd_generate(args: &mut dyn Iterator<Item = &str>) -> Result<String, String> {
    let opts = parse_options(args)?;
    let sources: usize = opts
        .required("sources")?
        .parse()
        .map_err(|e| format!("invalid --sources: {e}"))?;
    let seed: u64 = opts.parse("seed", 42)?;
    let generated = UniverseConfig::small_test(sources, seed).generate();
    let text = format_universe(&generated.universe);
    match opts.single("out")? {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            Ok(format!("wrote {sources} sources to {path}\n"))
        }
        None => Ok(text),
    }
}

fn load_universe(opts: &Options) -> Result<Universe, String> {
    let path = opts
        .positional
        .first()
        .ok_or("missing universe file argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_universe(&text)
}

// ------------------------------------------------------------------- solve

fn cmd_solve(args: &mut dyn Iterator<Item = &str>) -> Result<String, String> {
    let opts = parse_options(args)?;
    let universe = load_universe(&opts)?;
    let max_sources: usize = opts
        .required("max-sources")?
        .parse()
        .map_err(|e| format!("invalid --max-sources: {e}"))?;
    let theta: f64 = opts.parse("theta", 0.75)?;
    let seed: u64 = opts.parse("seed", 0)?;

    let weights = match opts.single("weights")? {
        None => default_weights(&universe),
        Some(spec) => {
            let pairs: Result<Vec<(String, f64)>, String> = spec
                .split(',')
                .map(|pair| {
                    let (name, value) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("bad weight {pair:?} (want name=w)"))?;
                    let value: f64 = value
                        .parse()
                        .map_err(|e| format!("bad weight value in {pair:?}: {e}"))?;
                    Ok((name.trim().to_owned(), value))
                })
                .collect();
            Weights::normalized(pairs?)?
        }
    };

    let mut spec = ProblemSpec::new(max_sources)
        .with_weights(weights)
        .with_theta(theta);
    if let Some(required) = opts.flags.get("require-source") {
        for name in required {
            spec = spec.with_source_constraint(source_by_name(&universe, name)?);
        }
    }

    let solver = solver_by_name(opts.single("solver")?.unwrap_or("tabu"))?;

    let mube = MubeBuilder::new(&universe).build();
    let solution = mube
        .solve(&spec, solver.as_ref(), seed)
        .map_err(|e| e.to_string())?;
    Ok(render_solution(&universe, &solution))
}

fn render_solution(universe: &Universe, solution: &Solution) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Q(S) = {:.4} with {} sources ({} Match calls, {:?})",
        solution.overall_quality,
        solution.num_sources(),
        solution.stats.match_calls,
        solution.stats.elapsed
    );
    for (name, (w, v)) in &solution.qef_values {
        let _ = writeln!(out, "  {name:<12} weight {w:.2}  value {v:.4}");
    }
    let _ = writeln!(out, "selected sources:");
    for id in &solution.selected {
        let _ = writeln!(out, "  {}", universe.expect_source(*id).name());
    }
    let _ = writeln!(out, "mediated schema ({} GAs):", solution.schema.len());
    out.push_str(&render_schema(universe, &solution.schema));
    out
}

fn render_schema(universe: &Universe, schema: &MediatedSchema) -> String {
    let mut out = String::new();
    for ga in schema.gas() {
        let names: Vec<String> = ga
            .attrs()
            .map(|a| {
                format!(
                    "{}:{}",
                    universe.expect_source(a.source).name(),
                    universe.attr_name(a).unwrap_or("?")
                )
            })
            .collect();
        let _ = writeln!(out, "  {{{}}}", names.join(" | "));
    }
    out
}

// ------------------------------------------------------------------- match

fn cmd_match(args: &mut dyn Iterator<Item = &str>) -> Result<String, String> {
    let opts = parse_options(args)?;
    let universe = load_universe(&opts)?;
    let theta: f64 = opts.parse("theta", 0.75)?;
    let names = opts.required("sources")?;
    let ids: Result<Vec<SourceId>, String> = names
        .split(',')
        .map(|n| source_by_name(&universe, n.trim()))
        .collect();
    let ids = ids?;

    let measure = NgramJaccard::default();
    let adapter = mube::cluster::MeasureAdapter::new(&universe, &measure);
    let config = MatchConfig {
        theta,
        ..MatchConfig::default()
    };
    let outcome =
        mube::cluster::match_sources(&universe, &ids, &Constraints::none(), &config, &adapter)
            .ok_or("no matching satisfies the constraints")?;
    let mut out = format!(
        "matching quality F1 = {:.4} over {} sources ({} GAs)\n",
        outcome.quality,
        ids.len(),
        outcome.schema.len()
    );
    out.push_str(&render_schema(&universe, &outcome.schema));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# demo universe
alpha.com | 1000 | title, author, isbn | mttf=100 latency=50
beta.org  | 2000 | title, author       | mttf=80
gamma.net | 500  | voltage, turbine    |
";

    #[test]
    fn solve_subcommand_end_to_end() {
        let dir = std::env::temp_dir().join("mube_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("u.mube");
        std::fs::write(&path, SAMPLE).unwrap();
        let args: Vec<String> = vec![
            "solve".into(),
            path.to_str().unwrap().into(),
            "--max-sources".into(),
            "2".into(),
            "--weights".into(),
            "matching=1".into(),
            "--theta".into(),
            "0.7".into(),
        ];
        let output = run(&args).unwrap();
        assert!(output.contains("Q(S)"), "{output}");
        assert!(
            output.contains("alpha.com") && output.contains("beta.org"),
            "{output}"
        );
        assert!(!output.contains("gamma.net"), "{output}");
    }

    #[test]
    fn match_subcommand_end_to_end() {
        let dir = std::env::temp_dir().join("mube_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mube");
        std::fs::write(&path, SAMPLE).unwrap();
        let args: Vec<String> = vec![
            "match".into(),
            path.to_str().unwrap().into(),
            "--sources".into(),
            "alpha.com,beta.org".into(),
        ];
        let output = run(&args).unwrap();
        assert!(output.contains("F1 = 1.0000"), "{output}");
        assert!(
            output.contains("alpha.com:title | beta.org:title"),
            "{output}"
        );
    }

    #[test]
    fn generate_subcommand_produces_parseable_output() {
        let args: Vec<String> = vec![
            "generate".into(),
            "--sources".into(),
            "12".into(),
            "--seed".into(),
            "3".into(),
        ];
        let output = run(&args).unwrap();
        let u = parse_universe(&output).unwrap();
        assert_eq!(u.len(), 12);
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&["frobnicate".to_owned()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn flag_errors_are_reported() {
        let args: Vec<String> = vec![
            "solve".into(),
            "/nonexistent".into(),
            "--max-sources".into(),
            "2".into(),
        ];
        assert!(run(&args).unwrap_err().contains("reading"));
        let args: Vec<String> = vec!["generate".into()];
        assert!(run(&args).unwrap_err().contains("--sources"));
    }

    #[test]
    fn require_source_constraint_applies() {
        let dir = std::env::temp_dir().join("mube_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.mube");
        std::fs::write(&path, SAMPLE).unwrap();
        // gamma.net matches nothing, so requiring it must fail (no valid M
        // spans it) — the error is the honest outcome.
        let args: Vec<String> = vec![
            "solve".into(),
            path.to_str().unwrap().into(),
            "--max-sources".into(),
            "3".into(),
            "--weights".into(),
            "matching=1".into(),
            "--require-source".into(),
            "gamma.net".into(),
        ];
        assert!(run(&args).is_err());
        // Requiring beta.org succeeds and includes it.
        let args: Vec<String> = vec![
            "solve".into(),
            path.to_str().unwrap().into(),
            "--max-sources".into(),
            "2".into(),
            "--weights".into(),
            "matching=1".into(),
            "--require-source".into(),
            "beta.org".into(),
        ];
        let output = run(&args).unwrap();
        assert!(output.contains("beta.org"), "{output}");
    }
}
