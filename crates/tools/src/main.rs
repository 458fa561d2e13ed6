//! `daosctl` — manage snapshot-backed weather-field archives.
//!
//! ```text
//! daosctl init     <archive> [--targets N]
//! daosctl put      <archive> <key> [--file PATH | --text STRING]
//! daosctl get      <archive> <key> [--out PATH]
//! daosctl list     <archive> <forecast-key>
//! daosctl retrieve <archive> <request>     # e.g. param=t/u,step=0/24
//! daosctl info     <archive>
//! ```

use std::path::PathBuf;
use std::process::exit;

use daosim_tools::{
    cmd_failure_drill, cmd_get, cmd_info, cmd_init, cmd_list, cmd_put, cmd_retrieve, cmd_simulate,
    cmd_synth_trace, cmd_trace, cmd_wipe, Outcome,
};

fn usage() -> ! {
    eprintln!(
        "usage: daosctl <init|put|get|list|retrieve|wipe|info|synth-trace|simulate|trace|failure-drill> <archive> [args...]\n\
         \n\
         init     <archive> [--targets N]\n\
         put      <archive> <key> [--file PATH | --text STRING]\n\
         get      <archive> <key> [--out PATH]\n\
         list     <archive> <forecast-key>\n\
         retrieve <archive> <request>\n\
         wipe     <archive> <forecast-key>\n\
         info     <archive>\n\
         synth-trace <out.csv> [--procs N] [--steps N] [--fields N] [--mib N] [--interval-ms N]\n\
         simulate    <trace.csv> [--servers N] [--clients N] [--paced] [--mode full|no-containers|no-index] [--window W]\n\
         trace       <trace.csv> [--servers N] [--clients N] [--paced] [--mode M] [--window W] [--out trace.json] [--metrics metrics.csv]\n\
         failure-drill <trace.csv> [--servers N] [--clients N] [--kill-ms N] [--restart-ms N]\n\
         \n\
         The simulator experiments (nwp-cycle, tiering, ior-interfaces, sched-fuzz)\n\
         run through `xp <experiment> [flags]`."
    );
    exit(2);
}

/// Parses a numeric flag at its destination width, so an out-of-range
/// value (`--servers 70000`) is a usage error instead of a silent
/// truncation. Parse failures name the offending flag before the usage.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("daosctl: bad value for {flag}: {v:?}");
            usage()
        }),
        None => default,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let cmd = args[0].as_str();
    let archive = PathBuf::from(&args[1]);
    let rest = &args[2..];

    let result = match cmd {
        "init" => cmd_init(&archive, parse_flag(rest, "--targets", 24)),
        "put" => {
            let key = rest.first().unwrap_or_else(|| usage());
            let data = if let Some(path) = flag_value(rest, "--file") {
                std::fs::read(path).unwrap_or_else(|e| {
                    eprintln!("cannot read payload: {e}");
                    exit(1);
                })
            } else if let Some(text) = flag_value(rest, "--text") {
                text.into_bytes()
            } else {
                usage();
            };
            cmd_put(&archive, key, data)
        }
        "get" => {
            let key = rest.first().unwrap_or_else(|| usage());
            cmd_get(&archive, key)
        }
        "list" => {
            let key = rest.first().unwrap_or_else(|| usage());
            cmd_list(&archive, key)
        }
        "retrieve" => {
            let req = rest.first().unwrap_or_else(|| usage());
            cmd_retrieve(&archive, req)
        }
        "wipe" => {
            let key = rest.first().unwrap_or_else(|| usage());
            cmd_wipe(&archive, key)
        }
        "info" => cmd_info(&archive),
        "synth-trace" => cmd_synth_trace(
            &archive,
            parse_flag(rest, "--procs", 16u32),
            parse_flag(rest, "--steps", 4u32),
            parse_flag(rest, "--fields", 12u32),
            parse_flag(rest, "--mib", 1),
            parse_flag(rest, "--interval-ms", 100),
        ),
        "simulate" => {
            let mode = flag_value(rest, "--mode").unwrap_or_else(|| "full".to_string());
            cmd_simulate(
                &archive,
                parse_flag(rest, "--servers", 1u16),
                parse_flag(rest, "--clients", 2u16),
                rest.iter().any(|a| a == "--paced"),
                &mode,
                parse_flag(rest, "--window", 1u32),
            )
        }
        "trace" => {
            let mode = flag_value(rest, "--mode").unwrap_or_else(|| "full".to_string());
            let json_out =
                PathBuf::from(flag_value(rest, "--out").unwrap_or_else(|| "trace.json".into()));
            let metrics_out = PathBuf::from(
                flag_value(rest, "--metrics").unwrap_or_else(|| "metrics.csv".into()),
            );
            cmd_trace(
                &archive,
                parse_flag(rest, "--servers", 1u16),
                parse_flag(rest, "--clients", 2u16),
                rest.iter().any(|a| a == "--paced"),
                &mode,
                parse_flag(rest, "--window", 1u32),
                &json_out,
                &metrics_out,
            )
        }
        "failure-drill" => cmd_failure_drill(
            &archive,
            parse_flag(rest, "--servers", 1u16),
            parse_flag(rest, "--clients", 2u16),
            parse_flag(rest, "--kill-ms", 59),
            parse_flag(rest, "--restart-ms", 170),
        ),
        _ => usage(),
    };

    match result {
        Ok(Outcome::Created { targets }) => {
            println!("created {} ({} targets)", archive.display(), targets)
        }
        Ok(Outcome::Put { key, bytes }) => println!("archived {key} ({bytes} bytes)"),
        Ok(Outcome::Got { key, data }) => {
            if let Some(out) = flag_value(&args[2..], "--out") {
                std::fs::write(&out, &data).unwrap_or_else(|e| {
                    eprintln!("cannot write output: {e}");
                    exit(1);
                });
                println!("retrieved {key} -> {out} ({} bytes)", data.len());
            } else {
                use std::io::Write;
                std::io::stdout().write_all(&data).ok();
            }
        }
        Ok(Outcome::Listing(entries)) => {
            for e in &entries {
                println!("{e}");
            }
            eprintln!("{} field(s)", entries.len());
        }
        Ok(Outcome::Retrieved {
            found,
            missing,
            bytes,
        }) => {
            println!("retrieved {found} field(s), {bytes} bytes; {missing} missing")
        }
        Ok(Outcome::Wiped { removed }) => println!("wiped {removed} field(s)"),
        Ok(Outcome::TraceWritten { path, ops, gib }) => {
            println!("trace written: {path} ({ops} ops, {gib:.2} GiB of writes)")
        }
        Ok(Outcome::Simulated(stats)) => {
            println!(
                "writes: {:.2} GiB/s ({} ops)",
                stats.writes.global_bw_gib, stats.writes.io_count
            );
            println!(
                "reads : {:.2} GiB/s ({} ops)",
                stats.reads.global_bw_gib, stats.reads.io_count
            );
            println!(
                "tardiness: mean {:.2} ms, max {:.2} ms; total {:.3} s",
                stats.mean_tardiness_ms, stats.max_tardiness_ms, stats.end_secs
            );
        }
        Ok(Outcome::Traced {
            json_path,
            metrics_path,
            spans,
            instants,
            categories,
        }) => {
            println!(
                "trace written: {json_path} ({spans} spans, {instants} instants; \
                 categories: {})",
                categories.join(", ")
            );
            println!("metrics written: {metrics_path}");
            println!("open {json_path} in https://ui.perfetto.dev or chrome://tracing");
        }
        Ok(Outcome::Drilled { stats, timeline }) => {
            println!(" t_ms  write GiB/s  read GiB/s");
            for (t, w, r) in &timeline {
                println!("{t:>5}  {w:>11.2}  {r:>10.2}");
            }
            let res = stats.resilience;
            println!(
                "resilience: {} retries, {} timeouts, {} failovers, {} gave up, {} faults injected",
                res.retries, res.timeouts, res.failovers, res.gave_up, res.faults_injected
            );
            println!(
                "failed ops: {} writes, {} reads",
                res.failed_writes, res.failed_reads
            );
            println!(
                "tardiness: mean {:.2} ms, max {:.2} ms; total {:.3} s",
                stats.mean_tardiness_ms, stats.max_tardiness_ms, stats.end_secs
            );
        }
        Ok(Outcome::Info {
            containers,
            used,
            targets,
            arrays,
            kv_entries,
            array_bytes,
        }) => {
            println!("targets:     {targets}");
            println!("containers:  {containers}");
            println!("arrays:      {arrays} ({array_bytes} live bytes)");
            println!("index keys:  {kv_entries}");
            println!("used bytes:  {used}");
        }
        Err(e) => {
            eprintln!("daosctl: {e}");
            exit(1);
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}
