//! The `ipl` command-line contracts, run against the real binary: the exit
//! codes of `ipl verify`, the options `ipl verify` and `ipl serve` share
//! (their messages, and flags beating `$IPL_CACHE_DIR` and
//! `$IPL_FAULT_PLAN`), and what `ipl cache` prints and does to a cache
//! directory.

use ipl::provers::cache_store::{scan_dir, HEADER_LEN};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const OK: &str = r#"
module Ok {
  var value: int;
  method bump()
    modifies value
    ensures "value = old(value) + 1"
  { value := value + 1; }
}
"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ipl-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, name: &str, source: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, source).unwrap();
    path.to_str().unwrap().to_string()
}

/// Runs `ipl` with `args`, no stdin and exactly the `IPL_*` variables in
/// `env`; returns the exit code, stdout and stderr.
fn ipl(args: &[&str], env: &[(&str, &str)]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_ipl"))
        .args(args)
        .env_remove("IPL_CACHE_DIR")
        .env_remove("IPL_FAULT_PLAN")
        .envs(env.iter().copied())
        .stdin(Stdio::null())
        .output()
        .expect("ipl runs");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).unwrap();
    (
        output.status.code().expect("ipl exited normally"),
        text(output.stdout),
        text(output.stderr),
    )
}

#[test]
fn verify_exit_codes_name_the_outcome() {
    let dir = temp_dir("exit-codes");
    let ok = write(&dir, "ok.ipl", OK);
    let broken = write(&dir, "broken.ipl", &OK.replace("+ 1\"", "+ 2\""));
    let panic = "seed=1,panic=100";
    let cases: [(i32, &[&str]); 8] = [
        (0, &["verify", "--no-cache", &ok]),
        (1, &["verify", "--no-cache", &broken]),
        (2, &["verify", "--no-cache"]),
        (2, &["verify", "--no-cache", "--bogus", &ok]),
        (
            2,
            &["verify", "--no-cache", "--fault-plan", "nonsense=1", &ok],
        ),
        (3, &["verify", "--no-cache", "--fault-plan", panic, &ok]),
        (
            4,
            &["verify", "--no-cache", "--module-deadline-ms", "0", &ok],
        ),
        (2, &["launch"]),
    ];
    for (expected, args) in cases {
        let (code, _, stderr) = ipl(args, &[]);
        assert_eq!(code, expected, "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_options_answer_alike_in_verify_and_serve() {
    let dir = temp_dir("shared-options");
    let ok = write(&dir, "ok.ipl", OK);
    let bad_env = [("IPL_FAULT_PLAN", "nonsense=1")];
    let bad_plan = "ipl: fault plan: unknown key `nonsense`";
    let cases: [(&[&str], &str); 6] = [
        (&["--jobs", "x"], "ipl: --jobs needs a number"),
        (&["--cache-dir"], "ipl: --cache-dir needs a directory"),
        (
            &["--module-deadline-ms", "x"],
            "ipl: --module-deadline-ms needs a number",
        ),
        (&["--fault-plan"], "ipl: --fault-plan needs a plan spec"),
        (&["--fault-plan", "nonsense=1"], bad_plan),
        (&[], bad_plan),
    ];
    for command in ["verify", "serve"] {
        // The file goes first, so a flag missing its value comes last.
        let file: &[&str] = if command == "verify" { &[&ok] } else { &[] };
        for (flags, message) in cases {
            // Only the case without flags reads the bad plan from the
            // environment.
            let env: &[_] = if flags.is_empty() { &bad_env } else { &[] };
            let args = [&[command], file, flags].concat();
            let (code, _, stderr) = ipl(&args, env);
            assert_eq!(code, 2, "{args:?}");
            assert!(
                stderr.starts_with(&format!("{message}\n")),
                "{args:?}: {stderr}"
            );
        }
        // The flag beats the variable: a good plan on the command line
        // overrides a bad one in the environment.
        let args = [&[command, "--no-cache", "--fault-plan", "seed=1"], file].concat();
        let (code, _, stderr) = ipl(&args, &bad_env);
        assert_eq!(code, 0, "{args:?}: {stderr}");
    }
    // And the variable applies when no flag is given.
    let plan = [("IPL_FAULT_PLAN", "seed=1,panic=100")];
    assert_eq!(ipl(&["verify", "--no-cache", &ok], &plan).0, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_cache_dir_flag_beats_the_variable_and_no_cache_beats_both() {
    let dir = temp_dir("cache-dir");
    let ok = write(&dir, "ok.ipl", OK);
    let stores = |dir: &Path| scan_dir(dir).unwrap().len();
    for command in ["verify", "serve"] {
        let file: &[&str] = if command == "verify" { &[&ok] } else { &[] };
        let from_env = dir.join(format!("{command}-env"));
        let from_flag = dir.join(format!("{command}-flag"));
        let env = [("IPL_CACHE_DIR", from_env.to_str().unwrap())];

        assert_eq!(ipl(&[&[command], file].concat(), &env).0, 0);
        assert_eq!(stores(&from_env), 1, "{command} reads $IPL_CACHE_DIR");
        std::fs::remove_dir_all(&from_env).unwrap();

        let flag = ["--cache-dir", from_flag.to_str().unwrap()];
        assert_eq!(ipl(&[&[command], &flag[..], file].concat(), &env).0, 0);
        assert_eq!(stores(&from_flag), 1, "{command} --cache-dir wins");
        assert_eq!(stores(&from_env), 0, "{command} ignored the variable");

        assert_eq!(ipl(&[&[command, "--no-cache"], file].concat(), &env).0, 0);
        assert_eq!(stores(&from_env), 0, "{command} --no-cache opens no store");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_lists_and_compacts_a_directory() {
    let dir = temp_dir("cache");
    let ok = write(&dir, "ok.ipl", OK);
    let cache = dir.join("cache");
    let cache_arg = cache.to_str().unwrap();
    assert_eq!(ipl(&["verify", "--cache-dir", cache_arg, &ok], &[]).0, 0);
    let (code, listing, _) = ipl(&["cache", cache_arg], &[]);
    assert_eq!(code, 0);
    let store = PathBuf::from(listing.split(": ").next().unwrap());
    assert_eq!(
        listing,
        format!("{}: schema v4, generation 0, 1 entries\n", store.display())
    );

    // Log every entry twice, then tear the tail.
    let clean = std::fs::read(&store).unwrap();
    let mut bytes = clean.clone();
    bytes.extend_from_slice(&clean[HEADER_LEN..]);
    bytes.extend_from_slice(&[0xff; 3]);
    std::fs::write(&store, &bytes).unwrap();
    // And a file from a schema this build does not know.
    let foreign = cache.join("proofs-v999-0000000000000000.iplstore");
    let mut foreign_bytes = b"IPLPROOF".to_vec();
    foreign_bytes.extend_from_slice(&999u32.to_le_bytes());
    foreign_bytes.extend_from_slice(&[0; 16]);
    std::fs::write(&foreign, &foreign_bytes).unwrap();

    let (code, listing, _) = ipl(&["cache", cache_arg], &[]);
    assert_eq!(code, 0);
    assert_eq!(
        listing,
        format!(
            "{}: schema v4, generation 0, 2 entries, 3 corrupt bytes (skipped on load, \
             dropped by --compact)\n{}: schema v999, generation 0, 0 entries\n",
            store.display(),
            foreign.display()
        )
    );

    let (code, report, _) = ipl(&["cache", cache_arg, "--compact"], &[]);
    assert_eq!(code, 0);
    let quarantined = cache.join("quarantine").join(foreign.file_name().unwrap());
    assert_eq!(
        report,
        format!(
            "{}: compacted 2 -> 1 entries (1 duplicates, 3 corrupt bytes dropped), \
             {} -> {} bytes, generation 1\n\
             {}: quarantined to {} (foreign or damaged header)\n",
            store.display(),
            bytes.len(),
            clean.len(),
            foreign.display(),
            quarantined.display()
        )
    );
    assert_eq!(std::fs::read(&quarantined).unwrap(), foreign_bytes);
    assert!(!foreign.exists());
    let mut compacted = clean.clone();
    compacted[20..HEADER_LEN].copy_from_slice(&1u64.to_le_bytes());
    assert_eq!(std::fs::read(&store).unwrap(), compacted);

    // A directory that is not there lists nothing, and compacts nothing.
    let empty = dir.join("empty");
    let empty_arg = empty.to_str().unwrap();
    let nothing = format!("{empty_arg}: no proof-store files\n");
    assert_eq!(
        ipl(&["cache", empty_arg], &[]),
        (0, nothing.clone(), String::new())
    );
    assert_eq!(
        ipl(&["cache", empty_arg, "--compact"], &[]),
        (0, nothing, String::new())
    );
    assert_eq!(ipl(&["cache"], &[]).0, 2);
    let _ = std::fs::remove_dir_all(&dir);
}
