//! Smoke tests of the `mars-cli` binary.

use mars::cli::{Flags, COMMAND_FLAGS};
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mars-cli"))
}

#[test]
fn inspect_prints_graph_stats() {
    let out = cli().args(["inspect", "inception"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("workload inception_v3"), "{text}");
    assert!(text.contains("baselines"), "{text}");
    assert!(text.contains("gpu-only"), "{text}");
}

#[test]
fn inspect_reports_gnmt_oom() {
    let out = cli().args(["inspect", "gnmt"]).output().expect("run");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("out of memory"), "GNMT gpu-only must OOM: {text}");
}

#[test]
fn trace_renders_gantt() {
    let out = cli().args(["trace", "bert", "--placement", "blocked3"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dev1 |"), "{text}");
    assert!(text.contains("idle"), "{text}");
}

#[test]
fn dot_emits_graphviz() {
    let out = cli().args(["dot", "vgg", "--max-nodes", "10"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"));
    assert!(text.contains("more ops"));
}

#[test]
fn evaluate_measures_placement() {
    let out =
        cli().args(["evaluate", "inception", "--placement", "gpu-only"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("s/step"), "{text}");
}

#[test]
fn unknown_workload_fails_cleanly() {
    let out = cli().args(["inspect", "alexnet"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown workload"), "{err}");
}

#[test]
fn missing_args_print_usage() {
    let out = cli().output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn malformed_numeric_flag_is_rejected() {
    let out = cli().args(["train", "inception", "--budget", "lots"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid value 'lots' for --budget"), "{err}");
}

/// Evaluation is one serial path with no memo: the old thread-count
/// and cache switches are refused by name, any value.
#[test]
fn zero_eval_threads_is_rejected() {
    assert_refused_by_name(&[
        (vec!["train", "inception", "--eval-threads", "0"], "--eval-threads", "train"),
        (vec!["train", "inception", "--eval-threads", "4"], "--eval-threads", "train"),
        (vec!["train", "inception", "--no-eval-cache"], "--no-eval-cache", "train"),
    ]);
}

#[test]
fn switch_with_value_is_rejected() {
    let out = cli()
        .args(["metrics", "tail", "/nonexistent.jsonl", "--follow", "yes"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--follow") && err.contains("takes no value"), "{err}");
}

/// Each row runs `mars-cli <args>` and expects it refused as
/// `unknown flag <flag> for '<command>'`, with nothing on stdout.
fn assert_refused_by_name(rows: &[(Vec<&str>, &str, &str)]) {
    for (args, flag, command) in rows {
        let out = cli().args(args).output().expect("run");
        assert!(!out.status.success(), "{args:?} must be refused");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag} for '{command}'")), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} started work before refusing");
    }
}

/// A typo, or a flag a later version removed, is refused by name before
/// the command does anything — the daemon and its client and `metrics
/// tail` included.
#[test]
fn unknown_flags_are_refused_before_any_work() {
    let sock = "unix:/nonexistent-dir/mars.sock";
    assert_refused_by_name(&[
        (vec!["pretrain", "inception", "--encode-batch", "2"], "--encode-batch", "pretrain"),
        (vec!["train", "inception", "--bugdet", "40"], "--bugdet", "train"),
        (vec!["serve", "--listen", sock, "--cache-capcity", "8"], "--cache-capcity", "serve"),
        (vec!["serve", "--listen", sock, "--devices", "5"], "--devices", "serve"),
        (vec!["serve", "--listen", sock, "--cache-capacity", "8"], "--cache-capacity", "serve"),
        (vec!["serve", "--listen", sock, "--max-requests", "1"], "--max-requests", "serve"),
        (vec!["place", "seq2seq", "--connect", sock, "--topk", "2"], "--topk", "place"),
        (vec!["metrics", "tail", "/nonexistent.jsonl", "--line", "5"], "--line", "metrics tail"),
        (vec!["train", "inception", "--max-eval-retries", "0"], "--max-eval-retries", "train"),
        (vec!["train", "inception", "--eval-timeout-s", "5"], "--eval-timeout-s", "train"),
        (vec!["train", "inception", "--auto-checkpoint", "x"], "--auto-checkpoint", "train"),
        (
            vec!["evaluate", "inception", "--max-eval-retries", "0"],
            "--max-eval-retries",
            "evaluate",
        ),
        (vec!["evaluate", "inception", "--eval-timeout-s", "5"], "--eval-timeout-s", "evaluate"),
    ]);
}

/// A repeated flag or a stray word is refused before the command does
/// anything: neither may choose what runs, as when the last of two
/// `--placement`s won, or a placement named without its flag left the
/// default to be evaluated.
#[test]
fn repeated_flags_and_stray_words_are_refused_before_any_work() {
    let sock = "unix:/nonexistent-dir/mars.sock";
    for (args, needle) in [
        (
            vec!["evaluate", "inception", "--placement", "rr4", "--placement", "human"],
            "--placement given twice",
        ),
        (vec!["evaluate", "inception", "rr4"], "unexpected argument 'rr4'"),
        (vec!["train", "inception", "--budget", "8", "--budget", "9"], "--budget given twice"),
        (vec!["serve", "--listen", sock, "now"], "unexpected argument 'now'"),
        (
            vec!["metrics", "tail", "/nonexistent.jsonl", "--lines", "1", "--lines", "2"],
            "--lines given twice",
        ),
    ] {
        let out = cli().args(&args).output().expect("run");
        assert!(!out.status.success(), "{args:?} must be refused");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} started work before refusing");
    }
}

/// A command `COMMAND_FLAGS` does not list — one a later version
/// removed (the old kernel gate) or a typo — is refused as a command,
/// not as a workload, before any work starts.
#[test]
fn removed_or_mistyped_command_is_named_as_a_command() {
    for args in [["bench-gate", "--kernels", "x.json"], ["frobnicate", "--x", "1"]] {
        let out = cli().args(args).output().expect("run");
        assert!(!out.status.success(), "{args:?} must be refused");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown command '{}'", args[0])), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} started work before refusing");
    }
}

/// libm `exp` is the only transcendental tier: `--fast-math` is refused
/// wherever it used to be read, before any evaluation or training runs.
#[test]
fn fast_math_flag_is_refused_by_name() {
    assert_refused_by_name(&[
        (
            vec!["evaluate", "inception", "--placement", "gpu-only", "--fast-math"],
            "--fast-math",
            "evaluate",
        ),
        (vec!["train", "inception", "--fast-math"], "--fast-math", "train"),
    ]);
}

/// Training runs in one process: the rollout fleet's flags are refused
/// by name, whatever their values, before any work starts. `--listen`
/// and `--connect` stay the flags of `serve` and `place`.
#[test]
fn fleet_flags_are_refused_by_name() {
    let sock = "unix:/nonexistent-dir/mars.sock";
    assert_refused_by_name(&[
        (vec!["train", "inception", "--workers", "2"], "--workers", "train"),
        (vec!["train", "inception", "--workers", "0"], "--workers", "train"),
        (vec!["train", "inception", "--workers", "two"], "--workers", "train"),
        (vec!["train", "inception", "--connect", sock], "--connect", "train"),
        (vec!["train", "inception", "--connect", "not-an-address"], "--connect", "train"),
        (vec!["train", "inception", "--listen", sock, "--workers", "2"], "--listen", "train"),
        (vec!["train", "inception", "--listen", sock, "--connect", sock], "--connect", "train"),
    ]);
}

/// `scripts/verify.sh` is the fixture: every flag it passes to a
/// `mars-cli` command is one that command reads.
#[test]
fn verify_sh_passes_only_flags_its_commands_read() {
    let script = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scripts/verify.sh"))
        .expect("read scripts/verify.sh");
    let words: Vec<&str> = script.split_whitespace().filter(|w| *w != "\\").collect();
    // The words of one shell command from `from` on: up to an operator
    // or the `)` that closes a `$(…)` or an array.
    let command_from = |from: usize| -> Vec<&str> {
        let mut out = Vec::new();
        for w in &words[from..] {
            if ["|", "||", "&", ">", "2>/dev/null"].contains(w) {
                break;
            }
            out.push(w.trim_end_matches(')'));
            if w.ends_with(')') {
                break;
            }
        }
        out
    };
    let mut checked = 0;
    for (i, _) in words.iter().enumerate().filter(|(_, w)| w.ends_with("/mars-cli")) {
        let mut args = command_from(i + 1);
        // `"${FAULT_ARGS[@]}"` stands for the words of `FAULT_ARGS=(…)`.
        if let Some(name) = args[0].strip_prefix("\"${").and_then(|a| a.strip_suffix("[@]}\"")) {
            let open = format!("{name}=(");
            let at = words.iter().position(|w| w.starts_with(&open)).expect("array is defined");
            args.splice(..1, [&words[at][open.len()..]].into_iter().chain(command_from(at + 1)));
        }
        let command = match args[0] {
            "metrics" => format!("metrics {}", args[1]),
            other => other.to_string(),
        };
        assert!(COMMAND_FLAGS.iter().any(|(c, _)| *c == command), "verify.sh runs '{command}'?");
        let flags: Vec<String> =
            args.iter().filter(|a| a.starts_with("--")).map(|a| a.to_string()).collect();
        Flags::parse_for(&command, &flags).unwrap_or_else(|e| panic!("scripts/verify.sh: {e}"));
        checked += 1;
    }
    assert!(checked >= 20, "found only {checked} mars-cli invocations in scripts/verify.sh");
}

/// `--fault-plan` belongs to the simulated cluster: only the commands
/// that evaluate placements (`train`, `evaluate`) read it. `--dgi-iters`
/// is read only where DGI can run. The others refuse them by name
/// instead of running as if they meant something.
#[test]
fn environment_flags_are_read_only_where_placements_are_evaluated() {
    let sock = "unix:/nonexistent-dir/mars.sock";
    assert_refused_by_name(&[
        (vec!["pretrain", "inception", "--fault-plan", "fail:2@1"], "--fault-plan", "pretrain"),
        (vec!["serve", "--listen", sock, "--fault-plan", "fail:2@1"], "--fault-plan", "serve"),
        (vec!["serve", "--listen", sock, "--dgi-iters", "10"], "--dgi-iters", "serve"),
        (vec!["evaluate", "inception", "--dgi-iters", "10"], "--dgi-iters", "evaluate"),
    ]);
}

/// `--dgi-iters 0` would leave DGI without a first loss to report, and
/// only `--agent mars` pre-trains: both are refused, naming the flag,
/// before any work starts.
#[test]
fn dgi_iters_is_refused_where_it_cannot_mean_something() {
    let rows: [(&[&str], &str); 5] = [
        (&["pretrain", "inception", "--dgi-iters", "0"], "invalid value '0' for --dgi-iters"),
        (&["train", "inception", "--dgi-iters", "0", "--budget", "8"], "invalid value '0'"),
        (&["train", "inception", "--agent", "grouper", "--dgi-iters", "5"], "--dgi-iters"),
        (&["train", "inception", "--agent", "encoder", "--dgi-iters", "5"], "--dgi-iters"),
        (&["train", "inception", "--agent", "mars-nopre", "--dgi-iters", "5"], "--dgi-iters"),
    ];
    for (args, wanted) in rows {
        let out = cli().args(args).output().expect("run");
        assert_eq!(out.status.code(), Some(1), "{args:?} must be refused, not panic");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(wanted) && err.contains("--dgi-iters"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} started work before refusing");
    }
}

#[test]
fn unknown_agent_lists_the_choices() {
    let out = cli().args(["train", "inception", "--agent", "zeus"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("'zeus'") && err.contains("mars"), "{err}");
}

#[test]
fn malformed_fault_plan_is_rejected() {
    let out = cli().args(["evaluate", "inception", "--fault-plan", "bogus"]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--fault-plan"), "{err}");
}

/// The fault grammar is `fail:<dev>@<eval>` alone: the agent-crash,
/// transient-error and straggler clauses it once had are refused, by
/// both commands that read `--fault-plan`, before any work starts.
#[test]
fn removed_fault_kinds_are_refused_by_name() {
    for clause in ["crash@5", "transient@3", "transient:0.1", "straggler:8@2"] {
        for command in ["train", "evaluate"] {
            let args = [command, "inception", "--fault-plan", clause];
            let out = cli().args(args).output().expect("run");
            assert_eq!(out.status.code(), Some(1), "{args:?} must be refused, not panic");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("--fault-plan") && err.contains(&format!("'{clause}'")), "{err}");
            assert!(out.stdout.is_empty(), "{args:?} started work before refusing");
        }
    }
}

#[test]
fn train_with_device_failure_reports_degraded_cluster() {
    let out = cli()
        .args([
            "train",
            "inception",
            "--agent",
            "mars-nopre",
            "--budget",
            "40",
            "--seed",
            "7",
            "--fault-plan",
            "fail:2@10",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fault plan armed"), "{text}");
    assert!(text.contains("cluster degraded: failed devices [2]"), "{text}");
}

#[test]
fn summarize_survives_a_torn_final_line() {
    // A crash mid-write leaves a torn last line; summarize must render
    // the surviving records and say what it skipped.
    let dir = std::env::temp_dir().join("mars-cli-torn-line");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let run = dir.join("torn.jsonl");
    std::fs::write(
        &run,
        concat!(
            r#"{"seq":1,"kind":"event","name":"ppo.update","loss":0.5}"#,
            "\n",
            r#"{"seq":2,"kind":"event","name":"ppo.up"#, // torn mid-record
        ),
    )
    .expect("write");
    let out = cli()
        .args(["metrics", "summarize", run.to_str().expect("utf8")])
        .output()
        .expect("summarize");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("skipped 1 malformed line"), "{text}");
    let _ = std::fs::remove_file(run);
}

#[test]
fn telemetry_capture_renders_through_summarize_flame_and_tail() {
    // One capture, the three readers: summarize renders the span tree,
    // flame folds it into collapsed stacks, tail reaches the
    // end-of-run marker (so --follow terminates on its own).
    let dir = std::env::temp_dir().join(format!("mars-cli-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let run = dir.join("run.jsonl");
    let run_path = run.to_str().expect("utf8 path");
    let out = cli()
        .args(["train", "inception", "--budget", "40", "--dgi-iters", "10", "--seed", "1"])
        .args(["--telemetry", run_path])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = cli().args(["metrics", "summarize", run_path]).output().expect("summarize");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== span tree"), "{text}");

    let out = cli().args(["metrics", "flame", run_path]).output().expect("flame");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().any(|l| l.starts_with("learner;")), "{text}");
    for line in text.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("collapsed line has a value");
        assert!(
            !stack.is_empty() && !stack.contains(' '),
            "frames must not contain spaces: {line}"
        );
        value.parse::<u64>().expect("collapsed value is an integer");
    }

    let out = cli()
        .args(["metrics", "tail", run_path, "--lines", "0", "--follow"])
        .output()
        .expect("tail");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("run complete"));
    let bounded = cli().args(["metrics", "tail", run_path, "--lines", "5"]).output().expect("tail");
    assert!(bounded.status.success());
    assert_eq!(
        String::from_utf8_lossy(&bounded.stdout).lines().count(),
        5,
        "--lines bounds output"
    );

    let _ = std::fs::remove_dir_all(dir);
}

/// Under a connection flood `accept` fails with EMFILE once the fd
/// table is full. The daemon counts that, backs off and keeps
/// listening: when the clients go, a normal request is answered and a
/// `--shutdown` still stops it.
#[cfg(unix)]
#[test]
fn serve_keeps_accepting_after_running_out_of_descriptors() {
    use mars::net::{recv_msg, send_msg, Conn, Msg, PROTOCOL_VERSION};
    use std::io::{BufRead, BufReader, Read};
    use std::os::unix::net::UnixStream;
    use std::process::Stdio;
    use std::time::Duration;

    let dir = std::env::temp_dir().join(format!("mars-cli-emfile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let sock = dir.join("serve.sock");
    let trace = dir.join("serve.jsonl");
    let addr = format!("unix:{}", sock.display());
    /// Kills the daemon if an assertion fails before it was stopped.
    struct Daemon(std::process::Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut daemon = Daemon(
        Command::new("sh")
            .args([
                "-c",
                r#"ulimit -n 64 && exec "$0" serve --listen "$1" --seed 1 --telemetry "$2""#,
            ])
            .arg(env!("CARGO_BIN_EXE_mars-cli"))
            .args([&addr, trace.to_str().expect("utf8 path")])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn daemon"),
    );
    let mut log = BufReader::new(daemon.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    while !line.starts_with("serving weights") {
        line.clear();
        assert!(log.read_line(&mut line).expect("daemon stdout") > 0, "daemon exited early");
    }

    // Hold 80 connections against a 64-descriptor daemon. Each one is
    // greeted until a greeting goes unanswered: that connection is
    // queued behind an `accept` that fails.
    let mut held = Vec::new();
    let mut saturated = false;
    for _ in 0..80 {
        let stream = UnixStream::connect(&sock).expect("connect");
        if !saturated {
            stream.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
            let mut conn = Conn::Unix(stream.try_clone().expect("clone"));
            send_msg(&mut conn, &Msg::Hello { version: PROTOCOL_VERSION }).expect("hello");
            saturated = recv_msg(&mut conn).is_err();
        }
        held.push(stream);
    }
    assert!(saturated, "80 connections never filled the daemon's fd table");
    drop(held);

    let place = cli().args(["place", "seq2seq", "--connect", &addr]).output().expect("place");
    assert!(place.status.success(), "{}", String::from_utf8_lossy(&place.stderr));
    assert!(String::from_utf8_lossy(&place.stdout).contains("op    0:"));
    let stop = cli().args(["place", "seq2seq", "--connect", &addr, "--shutdown"]).output();
    assert!(stop.expect("shutdown").status.success());
    assert!(daemon.0.wait().expect("daemon exit").success());
    let mut rest = String::new();
    log.read_to_string(&mut rest).expect("daemon stdout");
    assert!(rest.contains("serve loop done"), "{rest}");

    let out = cli().args(["metrics", "summarize", trace.to_str().expect("utf8")]).output();
    let summary = String::from_utf8_lossy(&out.expect("summarize").stdout).into_owned();
    assert!(summary.lines().any(|l| l.starts_with("serve.accept_errors")), "{summary}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn train_and_save_checkpoint() {
    let dir = std::env::temp_dir().join("mars-cli-test");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let ckpt = dir.join("agent.mars");
    let out = cli()
        .args([
            "train",
            "inception",
            "--agent",
            "mars-nopre",
            "--budget",
            "40",
            "--seed",
            "7",
            "--save",
            ckpt.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("best "), "{text}");
    assert!(ckpt.exists(), "checkpoint file written");
    // Checkpoint header is the MARS magic.
    let bytes = std::fs::read(&ckpt).expect("read ckpt");
    assert_eq!(&bytes[..4], b"MARS");
    let _ = std::fs::remove_file(ckpt);
}
