//! `figures` — the one entry point of the experiment harness, and the
//! only code in `crates/bench` that reads argv or touches the file system.
//!
//! ```text
//! figures list
//! figures fig4 fig8 --quick --jobs auto --report-json out.json
//! figures all --jobs 2
//! figures explore --mode dfs --budget 400 --max-preempt 3 --jobs auto
//! figures explore --target lazy-sub/bug/htm1 --stop-first --expect-violation
//! figures explore --replay 000201 --target mutex-counter/htm16
//! ```
//!
//! `figures <name>…` runs rows of [`bench::figures::FIGURES`] in the order
//! named (`all`: every row whose artifacts are committed), prints each
//! row's text and writes its artifacts under `bench-results/`;
//! `--report-json` adds one document with every run's report.
//!
//! `figures explore` searches the scheduler's decision tree for
//! interleavings that break GIL-equivalence (see `bench::explore` and
//! DESIGN.md §14). Its exit status is 0 when the outcome matches
//! expectation: no violations normally, at least one under
//! `--expect-violation`. Its stats document (`--report-json`, schema
//! `htm-gil-explore-report/v1`) carries no `jobs` field — it is
//! byte-identical at any pool size. Repro artifacts for every violation
//! are written to `--repro-dir` (default `bench-results/explore/`).
//!
//! A usage error — an unknown flag or experiment, a missing or malformed
//! value — prints the usage text and exits 2, for every subcommand.

use std::path::{Path, PathBuf};
use std::process::exit;

use bench::explore::{
    clean_targets, dfs, lazy_sub_clean_targets, lazy_sub_demo_target, random_walks, repro_json,
    stats_json, SearchParams, WalkParams,
};
use bench::figures::{self, Figure, Opts, FIGURES};
use htm_gil_core::explore::{check_path, gil_expected, ExploreTarget};
use machine_sim::SchedPath;

const USAGE: &str = "\
usage: figures list
       figures <name>...|all [--quick] [--jobs N|auto] [--report-json PATH]
       figures explore [--quick] [--jobs N|auto] [--report-json PATH]
               [--mode dfs|random] [--budget N] [--max-preempt K] [--horizon H]
               [--shrink-budget N] [--walks N] [--depth D] [--seed S]
               [--target ID] [--stop-first] [--expect-violation] [--replay HEX]
               [--repro-dir PATH] [--list]";

struct Cli {
    command: Command,
    opts: Opts,
    report_json: Option<String>,
}

enum Command {
    List,
    Run(Vec<&'static Figure>),
    Explore(Explore),
}

#[derive(Default)]
struct Explore {
    mode: String,
    params: SearchParams,
    walk: WalkParams,
    target: Option<String>,
    expect_violation: bool,
    replay: Option<SchedPath>,
    repro_dir: Option<String>,
    list: bool,
}

/// The one parser: every word after the subcommand is an experiment name
/// or a flag the subcommand knows, or the whole command line is refused.
/// A repeated flag's last value wins.
fn parse(args: &[String]) -> Result<Cli, String> {
    let command = match args.first().map(String::as_str) {
        None => return Err("no subcommand".into()),
        Some("list") => Command::List,
        Some("explore") => Command::Explore(Explore { mode: "dfs".into(), ..Explore::default() }),
        Some(_) => Command::Run(Vec::new()),
    };
    let skip = usize::from(!matches!(command, Command::Run(_)));
    let mut cli = Cli { command, opts: Opts { quick: false, jobs: 1 }, report_json: None };
    let mut words = args[skip..].iter();
    while let Some(word) = words.next() {
        let (flag, mut inline) = match word.split_once('=') {
            Some((flag, v)) if flag.starts_with("--") => (flag, Some(v.to_string())),
            _ => (word.as_str(), None),
        };
        let mut value = || {
            inline
                .take()
                .or_else(|| words.next().cloned())
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match (&mut cli.command, flag) {
            (Command::List, _) => return Err(format!("list takes no arguments, got {word}")),
            (_, "--quick") => cli.opts.quick = true,
            (_, "--jobs") => cli.opts.jobs = parse_jobs(&value()?)?,
            (_, "--report-json") => cli.report_json = Some(value()?),
            (Command::Run(rows), "all") => rows.extend(FIGURES.iter().filter(|f| f.committed)),
            (Command::Run(rows), name) if !name.starts_with('-') => rows.push(
                figures::find(name)
                    .ok_or_else(|| format!("unknown experiment {name} (try `figures list`)"))?,
            ),
            (Command::Explore(x), "--mode") => {
                x.mode = value()?;
                if x.mode != "dfs" && x.mode != "random" {
                    return Err(format!("unknown --mode {:?} (dfs|random)", x.mode));
                }
            }
            (Command::Explore(x), "--budget") => x.params.budget = parse_num(&value()?)?,
            (Command::Explore(x), "--max-preempt") => {
                x.params.max_preempt = parse_num(&value()?)? as u32
            }
            (Command::Explore(x), "--horizon") => x.params.horizon = parse_num(&value()?)? as usize,
            (Command::Explore(x), "--shrink-budget") => {
                x.params.shrink_budget = parse_num(&value()?)?
            }
            (Command::Explore(x), "--walks") => x.walk.walks = parse_num(&value()?)?,
            (Command::Explore(x), "--depth") => x.walk.depth = parse_num(&value()?)? as usize,
            (Command::Explore(x), "--seed") => x.walk.seed = parse_num(&value()?)?,
            (Command::Explore(x), "--target") => x.target = Some(value()?),
            (Command::Explore(x), "--replay") => {
                let hex = value()?;
                x.replay =
                    Some(SchedPath::from_hex(&hex).map_err(|e| format!("--replay {hex}: {e}"))?);
            }
            (Command::Explore(x), "--repro-dir") => x.repro_dir = Some(value()?),
            (Command::Explore(x), "--stop-first") => x.params.stop_first = true,
            (Command::Explore(x), "--expect-violation") => x.expect_violation = true,
            (Command::Explore(x), "--list") => x.list = true,
            _ => return Err(format!("unknown flag {word}")),
        }
        if inline.is_some() {
            return Err(format!("{flag} takes no value"));
        }
    }
    if matches!(&cli.command, Command::Run(rows) if rows.is_empty()) {
        return Err("no experiment named".into());
    }
    Ok(cli)
}

fn parse_num(v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("expected a number, got {v:?}"))
}

/// `auto` is one worker per available hardware thread.
fn parse_jobs(v: &str) -> Result<usize, String> {
    if v == "auto" {
        return Ok(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get));
    }
    match v.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs takes a positive count or 'auto', got {v:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2)
    });
    match &cli.command {
        Command::List => print!("{}", figures::list()),
        Command::Run(rows) => run(rows, &cli.opts, cli.report_json.as_deref()),
        Command::Explore(x) => explore(x, &cli.opts, cli.report_json.as_deref()),
    }
}

/// Where artifacts go: `bench-results/` of the checkout this was built from.
fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench-results")
}

/// Write one output file and say so; a file that cannot be written
/// fails the run.
fn write(path: &Path, bytes: &str) {
    let written = path.parent().map_or(Ok(()), std::fs::create_dir_all);
    if let Err(e) = written.and_then(|()| std::fs::write(path, bytes)) {
        eprintln!("error: could not write {}: {e}", path.display());
        exit(1);
    }
    let kind = path.extension().and_then(|e| e.to_str()).unwrap_or("file");
    println!("  [{kind}] {}", path.display());
}

fn run(rows: &[&Figure], opts: &Opts, report_json: Option<&str>) {
    let dir = results_dir();
    let body = || {
        for fig in rows {
            let out = (fig.run)(opts);
            print!("{}", out.text);
            for (file, bytes) in &out.artifacts {
                write(&dir.join(file), bytes);
            }
        }
    };
    match report_json {
        None => body(),
        Some(path) => {
            let names: Vec<&str> = rows.iter().map(|f| f.name).collect();
            let ((), doc) = bench::reporting::collect(&names.join(","), body);
            write(Path::new(path), &(doc.to_pretty() + "\n"));
        }
    }
}

/// The clean corpus; `--target` and `--list` also know the
/// lazy-subscription hazard and its two safe twins.
fn corpus(x: &Explore, quick: bool) -> Vec<ExploreTarget> {
    let mut targets = clean_targets(quick);
    if x.target.is_some() || x.list {
        targets.extend(lazy_sub_clean_targets(quick));
        targets.push(lazy_sub_demo_target(quick));
    }
    if let Some(id) = &x.target {
        targets.retain(|t| &t.id == id);
        if targets.is_empty() {
            eprintln!("error: no target matches {id:?} (try --list)");
            exit(2);
        }
    }
    targets
}

fn explore(x: &Explore, opts: &Opts, report_json: Option<&str>) {
    let targets = corpus(x, opts.quick);
    if x.list {
        println!("targets ({} available):", targets.len());
        for t in &targets {
            println!(
                "  {:28} mode={:12} sub={:12} max_threads={} interrupts={}",
                t.id,
                t.cfg.mode.label(),
                t.cfg.subscription.label(),
                t.vm.max_threads,
                t.interrupts
            );
        }
        return;
    }
    if let Some(path) = &x.replay {
        return replay_one(x, &targets, path);
    }
    let mut all_stats = Vec::new();
    let mut total_violations = 0u64;
    let repro_dir =
        x.repro_dir.as_ref().map_or_else(|| results_dir().join("explore"), PathBuf::from);
    for target in &targets {
        eprintln!("  [explore] {} ({})", target.id, x.mode);
        let out = match x.mode.as_str() {
            "dfs" => dfs(target, &x.params, opts.jobs),
            _ => random_walks(target, &x.params, &x.walk, opts.jobs),
        };
        println!(
            "{:28} executions={:5} distinct={:5} max_depth={:5} max_preempt={} violations={}",
            target.id,
            out.stats.executions,
            out.stats.distinct_paths,
            out.stats.max_depth,
            out.stats.max_preemptions,
            out.stats.violations,
        );
        if !out.violations.is_empty() {
            let expected = gil_expected(target);
            for (i, v) in out.violations.iter().enumerate() {
                let file =
                    repro_dir.join(format!("{}-{i}.json", target.id.replace(['/', ' '], "_")));
                write(&file, &repro_json(target, &expected, v).to_pretty());
                println!("  [repro] path={} trail=\"{}\"", v.minimized.to_hex(), v.trail);
                println!("  [violation] {}", v.mismatch.lines().next().unwrap_or(""));
            }
        }
        total_violations += out.stats.violations;
        all_stats.push(out.stats);
        if x.params.stop_first && total_violations > 0 {
            break;
        }
    }
    if let Some(path) = report_json {
        write(Path::new(path), &stats_json(&x.mode, &x.params, &all_stats).to_pretty());
    }
    if (total_violations > 0) != x.expect_violation {
        if x.expect_violation {
            eprintln!("FAIL: expected the search to find a violation, found none");
        } else {
            eprintln!("FAIL: {total_violations} schedule(s) diverged from the GIL oracle");
        }
        exit(1);
    }
    println!(
        "OK: {} target(s), {} executions, {} violation(s){}",
        all_stats.len(),
        all_stats.iter().map(|s| s.executions).sum::<u64>(),
        total_violations,
        if x.expect_violation { " (expected)" } else { "" }
    );
}

fn replay_one(x: &Explore, targets: &[ExploreTarget], path: &SchedPath) {
    let [target] = targets else {
        eprintln!("error: --replay needs --target (candidates: {})", targets.len());
        exit(2);
    };
    let expected = gil_expected(target);
    let (run, mismatch) = check_path(target, &expected, path);
    println!("replay {} on {}", path.to_hex(), target.id);
    println!(
        "  decisions={} preemptions={} stdout={:?}",
        run.ctl.decisions(),
        run.ctl.preemptions(),
        run.left.stdout
    );
    match mismatch {
        Some(m) => {
            println!("  VIOLATION: {m}");
            if !x.expect_violation {
                exit(1);
            }
        }
        None => {
            println!("  matches the GIL oracle");
            if x.expect_violation {
                eprintln!("FAIL: expected this path to violate");
                exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(line: &str) -> Result<Cli, String> {
        parse(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn jobs_spellings_and_last_wins() {
        assert_eq!(parse_words("fig4").unwrap().opts.jobs, 1);
        assert_eq!(parse_words("fig4 --jobs 3").unwrap().opts.jobs, 3);
        assert_eq!(parse_words("fig4 --jobs=3").unwrap().opts.jobs, 3);
        assert!(parse_words("fig4 --jobs auto").unwrap().opts.jobs >= 1);
        assert_eq!(parse_words("fig4 --jobs 3 --jobs=5").unwrap().opts.jobs, 5);
        assert_eq!(parse_words("explore --jobs 3 --jobs 2").unwrap().opts.jobs, 2);
        let cli = parse_words("--quick fig8 fig4 --report-json=r.json").unwrap();
        assert!(cli.opts.quick);
        assert_eq!(cli.report_json.as_deref(), Some("r.json"));
        let Command::Run(rows) = cli.command else { panic!("a run") };
        assert_eq!(rows.iter().map(|f| f.name).collect::<Vec<_>>(), ["fig8", "fig4"]);
    }

    #[test]
    fn all_is_the_committed_rows() {
        let Command::Run(rows) = parse_words("all").unwrap().command else { panic!("a run") };
        assert_eq!(rows.len(), FIGURES.iter().filter(|f| f.committed).count());
        assert!(rows.iter().all(|f| f.committed));
    }

    #[test]
    fn usage_errors_are_refused_for_every_subcommand() {
        for line in [
            "",
            "fig4 --jobs 0",
            "fig4 --jobs",
            "fig4 --jobs many",
            "fig4 --job 4",
            "fig4 --quick=1",
            "fig4 --bench CG",
            "fig4 --budget 10",
            "fig44",
            "--quick",
            "list --quick",
            "explore --jobs 0",
            "explore --job 4",
            "explore fig4",
            "explore --mode bfs",
            "explore --budget ten",
            "explore --replay zz",
            "explore --differential",
            "explore --bug-demo",
            "explore --lazy-demo",
        ] {
            assert!(parse_words(line).is_err(), "{line:?} must be refused");
        }
    }

    #[test]
    fn explore_accepts_its_flag_set() {
        let cli = parse_words(
            "explore --mode random --budget 9 --max-preempt 2 --horizon 7 --shrink-budget 5 \
             --walks 4 --depth 3 --seed 11 --jobs 2 --target a/b --replay 000201 \
             --report-json s.json --repro-dir out --stop-first --expect-violation --list --quick",
        )
        .unwrap();
        let Command::Explore(x) = cli.command else { panic!("explore") };
        assert_eq!((x.mode.as_str(), x.params.budget, x.params.max_preempt), ("random", 9, 2));
        assert_eq!((x.params.horizon, x.params.shrink_budget), (7, 5));
        assert_eq!((x.walk.walks, x.walk.depth, x.walk.seed), (4, 3, 11));
        assert_eq!((x.target.as_deref(), x.repro_dir.as_deref()), (Some("a/b"), Some("out")));
        assert_eq!(x.replay.map(|p| p.to_hex()).as_deref(), Some("000201"));
        assert!(x.params.stop_first && x.expect_violation && x.list);
        assert_eq!((cli.opts.jobs, cli.opts.quick), (2, true));
        assert_eq!(cli.report_json.as_deref(), Some("s.json"));
    }
}
