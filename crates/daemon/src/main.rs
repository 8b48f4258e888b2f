//! `wbd` — the white-box streaming daemon binary.
//!
//! Server mode (default):
//!
//! ```text
//! wbd [--listen ADDR] [--threads N] [--shards N] [--max-tenants N]
//!     [--chunk N] [--seed N] [--state-dir DIR]
//! ```
//!
//! With `--state-dir DIR`, every `*.wbsnap` tenant snapshot found in DIR
//! is restored before the socket opens, every tenant is snapshotted back
//! to DIR after the graceful drain, and `snapshot` requests may omit
//! their `path` — so a `shutdown` + restart round-trips all tenant state.
//!
//! Prints `{"event":"listening","addr":"..."}` once the socket is bound,
//! runs until a client sends `shutdown` (or the process receives EOF-level
//! drain via that request), then prints `{"event":"final_metrics",...}`
//! after the graceful drain completes.
//!
//! Client mode:
//!
//! ```text
//! wbd client --connect ADDR [--strict]
//! ```
//!
//! forwards protocol lines from stdin and prints replies; see
//! [`wb_daemon::client`] for the script conventions (`#` comments, `!`
//! expected-error prefix).

use std::io::Write as _;
use std::process::ExitCode;
use wb_daemon::json::{obj, Json};
use wb_daemon::{client, DaemonConfig, Server};

fn die(msg: &str) -> ! {
    eprintln!("wbd: {msg}");
    eprintln!(
        "usage: wbd [--listen ADDR] [--threads N] [--shards N] [--max-tenants N] \
         [--max-updates-per-tenant N] [--chunk N] [--seed N] [--state-dir DIR]"
    );
    eprintln!("       wbd client --connect ADDR [--strict] [--pipeline N]");
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let raw = value.unwrap_or_else(|| die(&format!("{flag} requires a value")));
    raw.parse()
        .unwrap_or_else(|_| die(&format!("{flag}: invalid value {raw:?}")))
}

fn run_client(mut args: std::env::Args) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut strict = false;
    let mut pipeline = 1usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => {
                addr = Some(
                    args.next()
                        .unwrap_or_else(|| die("--connect requires an address")),
                )
            }
            "--strict" => strict = true,
            "--pipeline" => {
                pipeline = parse_num("--pipeline", args.next());
                if pipeline == 0 {
                    die("--pipeline must be >= 1");
                }
            }
            other => die(&format!("unknown client flag {other:?}")),
        }
    }
    let addr = addr.unwrap_or_else(|| die("client mode requires --connect ADDR"));
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match client::run_script(
        &addr,
        &mut stdin.lock(),
        &mut stdout.lock(),
        strict,
        pipeline,
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wbd client: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let mut cfg = DaemonConfig::default();
    let mut first = true;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "client" if first => return run_client(args),
            "--listen" => {
                cfg.listen = args
                    .next()
                    .unwrap_or_else(|| die("--listen requires an address"))
            }
            "--threads" => cfg.threads = parse_num("--threads", args.next()),
            "--shards" => {
                cfg.shards = parse_num("--shards", args.next());
                if !(1..=wb_daemon::tenant::MAX_SHARDS).contains(&cfg.shards) {
                    die(&format!(
                        "--shards must be in [1, {}]",
                        wb_daemon::tenant::MAX_SHARDS
                    ));
                }
            }
            "--max-tenants" => cfg.max_tenants = parse_num("--max-tenants", args.next()),
            "--max-updates-per-tenant" => {
                cfg.max_updates_per_tenant = parse_num("--max-updates-per-tenant", args.next())
            }
            "--chunk" => {
                cfg.chunk = parse_num("--chunk", args.next());
                if !(1..=wb_daemon::tenant::MAX_CHUNK).contains(&cfg.chunk) {
                    die(&format!(
                        "--chunk must be in [1, {}]",
                        wb_daemon::tenant::MAX_CHUNK
                    ));
                }
            }
            "--seed" => cfg.seed = parse_num("--seed", args.next()),
            "--state-dir" => {
                cfg.state_dir = Some(
                    args.next()
                        .unwrap_or_else(|| die("--state-dir requires a directory")),
                )
            }
            other => die(&format!("unknown flag {other:?}")),
        }
        first = false;
    }
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wbd: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listening = obj(vec![
        ("event", Json::from("listening")),
        ("addr", Json::from(server.addr().to_string().as_str())),
    ]);
    println!("{}", listening.to_line());
    let _ = std::io::stdout().flush();
    let final_metrics = server.wait();
    let done = obj(vec![
        ("event", Json::from("final_metrics")),
        ("metrics", final_metrics),
    ]);
    println!("{}", done.to_line());
    ExitCode::SUCCESS
}
