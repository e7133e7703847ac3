//! The end-to-end runs: the real `ipl` binary, driven as a user drives it.
//!
//! * cli-cold spawns `ipl verify FILE --cache-dir EMPTY` one process at a
//!   time and times spawn to exit;
//! * serve-edit and serve-failing start `ipl serve --listen SOCKET --jobs 1`
//!   with a fresh `--cache-dir`, prime it with the eight modules and drive
//!   it from two closed-loop connections, timing each frame from write to
//!   answer.
//!
//! Every answer is checked against the input's known verdict.

use crate::gen::{self, Input, Stream, Workload};
use ipl::suite::baseline::{parse_json, Json};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop connections to the daemon (one per core of the 2-core
/// machine the benchmark was sized on).
const CLIENTS: u64 = 2;
/// Daemons started, one after another, to take the median set-up time.
const SERVE_SETUPS: usize = 5;
/// Cold `ipl verify` processes on an empty module, for the median set-up.
const CLI_SETUPS: usize = 15;

/// Everything one end-to-end run measured.
#[derive(Debug, Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub latency_ms: Vec<f64>,
    /// Client latency minus the daemon's own `wall_ms`, per request.
    pub overhead_ms: Vec<f64>,
    /// The longest client's time from its first request to its last answer.
    pub elapsed: Duration,
    pub attempted: usize,
    pub failed: usize,
    pub refused: usize,
    /// Answered requests per second, summed over the closed-loop clients
    /// (each over its own busy time, so one client's tail after the other
    /// stopped does not dilute the rate).
    pub requests_per_s: f64,
    /// The same for non-trivial sequents in answered requests.
    pub sequents_per_s: f64,
    pub peak_rss_kb: u64,
    /// Set when a mutated method was reported verified.
    pub soundness_trip: Option<String>,
}

/// One request's outcome as the client saw it.
#[derive(Debug, Default)]
struct Sample {
    latency_ms: f64,
    overhead_ms: Option<f64>,
    failed: bool,
    refused: bool,
    sequents: usize,
    soundness_trip: Option<String>,
}

impl E2e {
    /// Adds one client's samples, sent over `elapsed`.
    fn add_client(&mut self, samples: Vec<Sample>, elapsed: Duration) {
        let (mut answered, mut sequents) = (0, 0);
        for sample in samples {
            self.attempted += 1;
            self.latency_ms.push(sample.latency_ms);
            if let Some(overhead) = sample.overhead_ms {
                self.overhead_ms.push(overhead);
            }
            if sample.failed {
                self.failed += 1;
            } else {
                answered += 1;
                sequents += sample.sequents;
            }
            if sample.refused {
                self.refused += 1;
            }
            if self.soundness_trip.is_none() {
                self.soundness_trip = sample.soundness_trip;
            }
        }
        let seconds = elapsed.as_secs_f64();
        self.requests_per_s += f64::from(answered) / seconds;
        self.sequents_per_s += sequents as f64 / seconds;
        self.elapsed = self.elapsed.max(elapsed);
    }
}

/// Runs one workload end to end for `seconds`.
pub fn run(
    workload: Workload,
    ipl: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    min_samples: usize,
) -> Result<E2e, String> {
    let window = (seconds, min_samples);
    match workload {
        Workload::CliCold => cli_cold(ipl, work, seed, window),
        Workload::ServeEdit | Workload::ServeFailing => serve(workload, ipl, work, seed, window),
    }
}

/// When a closed loop stops: it sends whole cycles of its stream (see
/// [`Stream`]), so every run sends the same mix whatever the seed, and it
/// starts no cycle once `seconds` have passed, unless fewer than
/// `min_samples` requests were sent; never after three times `seconds`.
struct Window {
    start: Instant,
    end: Instant,
    hard_end: Instant,
    min_samples: usize,
    sent: AtomicUsize,
}

impl Window {
    fn new((seconds, min_samples): (f64, usize)) -> Window {
        let start = Instant::now();
        Window {
            start,
            end: start + Duration::from_secs_f64(seconds),
            hard_end: start + Duration::from_secs_f64(3.0 * seconds),
            min_samples,
            sent: AtomicUsize::new(0),
        }
    }

    /// Whether to send another cycle.
    fn next_cycle(&self) -> bool {
        let now = Instant::now();
        now < self.end
            || (now < self.hard_end && self.sent.load(Ordering::Relaxed) < self.min_samples)
    }

    fn sent(&self, requests: usize) {
        self.sent.fetch_add(requests, Ordering::Relaxed);
    }
}

fn io_err(what: impl std::fmt::Display) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------------
// cli-cold
// ---------------------------------------------------------------------------

fn cli_cold(ipl: &Path, work: &Path, seed: u64, window: (f64, usize)) -> Result<E2e, String> {
    let mut e2e = E2e::default();
    let file = work.join("input.ipl");
    let cache = work.join("cli-cache");

    // Set-up: a cold process that parses, opens its store and has nothing
    // to prove.
    std::fs::write(&file, "module Empty {\n  var x: int;\n}\n").map_err(io_err("input"))?;
    for _ in 0..CLI_SETUPS {
        let run = verify_process(ipl, &file, &cache)?;
        if run.code != 0 {
            return Err(format!("ipl verify on an empty module exited {}", run.code));
        }
        e2e.setup_s.push(run.wall.as_secs_f64());
    }

    let mut stream = Stream::new(Workload::CliCold, seed, 0);
    let mut samples = Vec::new();
    let window = Window::new(window);
    let inputs = std::iter::from_fn(|| {
        window.next_cycle().then(|| {
            let cycle = stream.cycle();
            window.sent(cycle.len());
            cycle
        })
    });
    for input in inputs.flatten() {
        std::fs::write(&file, &input.source).map_err(io_err("input"))?;
        let run = verify_process(ipl, &file, &cache)?;
        e2e.peak_rss_kb = e2e.peak_rss_kb.max(run.max_rss_kb);
        let mut sample = Sample {
            latency_ms: run.wall.as_secs_f64() * 1e3,
            ..Sample::default()
        };
        match parse_render(&run.stdout) {
            Some(methods) if run.code == 0 => {
                let verified: Vec<bool> = methods.iter().map(|m| m.proved == m.total).collect();
                let names_match = methods.iter().map(|m| m.name.as_str()).eq(input
                    .module()
                    .methods
                    .iter()
                    .map(|m| m.name.as_str()));
                sample.failed = !names_match || verified != input.expected();
                sample.sequents = methods.iter().map(|m| m.total - m.trivial).sum();
            }
            _ => sample.failed = true,
        }
        if sample.failed {
            eprintln!("cli-cold: {} answered\n{}", input.label(), run.stdout);
        }
        samples.push(sample);
    }
    e2e.add_client(samples, window.start.elapsed());
    let _ = std::fs::remove_dir_all(&cache);
    Ok(e2e)
}

struct ProcessRun {
    code: i32,
    stdout: String,
    wall: Duration,
    max_rss_kb: u64,
}

/// Runs `ipl verify FILE --cache-dir DIR` with `DIR` empty, timing spawn to
/// exit and reading the child's peak resident set from `wait4`.
fn verify_process(ipl: &Path, file: &Path, cache: &Path) -> Result<ProcessRun, String> {
    let _ = std::fs::remove_dir_all(cache);
    std::fs::create_dir_all(cache).map_err(io_err(cache.display()))?;
    let started = Instant::now();
    let mut child = Command::new(ipl)
        .arg("verify")
        .arg(file)
        .arg("--cache-dir")
        .arg(cache)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(io_err(ipl.display()))?;
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)
        .map_err(io_err("ipl verify stdout"))?;
    let (code, max_rss_kb) = wait_with_rusage(&child)?;
    Ok(ProcessRun {
        code,
        stdout,
        wall: started.elapsed(),
        max_rss_kb,
    })
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

/// Reaps `child` with `wait4`, returning its exit code (128 + signal when
/// killed) and its peak resident set in KiB.  `std` links libc but exposes
/// no rusage, so `wait4` is declared here.
fn wait_with_rusage(child: &Child) -> Result<(i32, u64), String> {
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // Linux's `int` and `struct rusage` (x86-64 and aarch64: two
        // timevals, then fourteen longs); `pid` is our unreaped child.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if reaped == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok((code, usage.maxrss.max(0) as u64))
}

/// One method line of `ModuleReport::render`.
struct MethodLine {
    name: String,
    proved: usize,
    total: usize,
    trivial: usize,
}

/// Reads the per-method lines `ipl verify` prints:
/// `  NAME  P/T sequents  N trivial  TIME`.
fn parse_render(stdout: &str) -> Option<Vec<MethodLine>> {
    let mut methods = Vec::new();
    for line in stdout.lines().skip(1) {
        if line.starts_with("    ") || !line.starts_with("  ") {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        if let [name, ratio, "sequents", trivial, "trivial", ..] = words[..] {
            let (proved, total) = ratio.split_once('/')?;
            methods.push(MethodLine {
                name: name.to_string(),
                proved: proved.parse().ok()?,
                total: total.parse().ok()?,
                trivial: trivial.parse().ok()?,
            });
        }
    }
    (!methods.is_empty()).then_some(methods)
}

// ---------------------------------------------------------------------------
// serve-edit and serve-failing
// ---------------------------------------------------------------------------

/// A running `ipl serve --listen` daemon.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(ipl: &Path, socket: &Path, cache: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(cache);
        std::fs::create_dir_all(cache).map_err(io_err(cache.display()))?;
        let child = Command::new(ipl)
            .arg("serve")
            .arg("--listen")
            .arg(socket)
            .args(["--jobs", "1"])
            .arg("--cache-dir")
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(io_err(ipl.display()))?;
        Ok(Daemon {
            child,
            socket: socket.to_path_buf(),
        })
    }

    /// Connects once the daemon listens.
    fn connect(&mut self) -> Result<Client, String> {
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(stream) = UnixStream::connect(&self.socket) {
                return Client::new(stream);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("ipl serve exited early: {status}"));
            }
            if Instant::now() > give_up {
                return Err("ipl serve did not start listening".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The daemon's peak resident set (`VmHWM`), in KiB.
    fn peak_rss_kb(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    }

    /// Asks the daemon to stop and waits for it, killing it if it hangs.
    fn stop(mut self) {
        if let Ok(mut client) = self.connect() {
            let _ = client.round_trip("{\"op\": \"shutdown\"}");
        }
        let give_up = Instant::now() + Duration::from_secs(10);
        while Instant::now() < give_up {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached only on an error path: never leave a daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One protocol connection.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    next_id: u64,
}

impl Client {
    fn new(stream: UnixStream) -> Result<Client, String> {
        let writer = stream.try_clone().map_err(io_err("socket"))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            next_id: 0,
        })
    }

    /// Writes one frame and reads one answer, timing the two.
    fn round_trip(&mut self, frame: &str) -> Result<(String, Duration), String> {
        let started = Instant::now();
        self.writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(io_err("socket write"))?;
        let mut answer = String::new();
        let read = self
            .reader
            .read_line(&mut answer)
            .map_err(io_err("socket read"))?;
        if read == 0 {
            return Err("the daemon closed the connection".into());
        }
        Ok((answer, started.elapsed()))
    }

    /// Sends `input` and judges the answer against its known verdict.
    fn verify(&mut self, input: &Input, trivial: &Trivial) -> Result<Sample, String> {
        self.next_id += 1;
        let frame = format!(
            "{{\"id\": {}, \"op\": \"verify\", \"source\": {}}}",
            self.next_id,
            json_string(&input.source)
        );
        let (answer, latency) = self.round_trip(&frame)?;
        let latency_ms = latency.as_secs_f64() * 1e3;
        let mut sample = judge(input, trivial, &answer);
        sample.latency_ms = latency_ms;
        sample.overhead_ms = sample.overhead_ms.map(|wall| latency_ms - wall);
        Ok(sample)
    }
}

/// Trivial sequents per input text, from the front end alone.  A no-op
/// local keeps a module's sequents (`tests/generator.rs` pins this), so
/// edits use their module's count.
struct Trivial(HashMap<String, usize>);

impl Trivial {
    fn new(workload: Workload) -> Result<Trivial, String> {
        let mut inputs = gen::priming();
        if workload == Workload::ServeFailing {
            inputs.extend(gen::failing_mutants().into_iter().map(gen::MutantId::input));
        }
        let mut counts = HashMap::new();
        for input in inputs {
            counts.insert(input.source.clone(), trivial_sequents(&input.source)?);
        }
        Ok(Trivial(counts))
    }

    fn of(&self, input: &Input) -> usize {
        self.0
            .get(&input.source)
            .or_else(|| self.0.get(input.module().source))
            .copied()
            .unwrap_or(0)
    }
}

/// Counts the sequents splitting discharges, as `Session::verify` does.
fn trivial_sequents(source: &str) -> Result<usize, String> {
    let module = ipl::lang::parse_module(source).map_err(|e| e.to_string())?;
    let lowered = ipl::lang::lower_module(&module).map_err(|e| e.to_string())?;
    let mut trivial = 0;
    for method in &lowered.methods {
        let simple = ipl::gcl::translate::translate_ext(
            &method.command,
            &mut ipl::gcl::translate::TranslateCtx::new(),
        );
        let vc = ipl::gcl::wlp::vc_of(&simple);
        trivial += ipl::gcl::split::split_all(&vc)
            .iter()
            .filter(|s| s.is_trivially_valid())
            .count();
    }
    Ok(trivial)
}

/// Judges one verify frame against the input's known verdict.
fn judge(input: &Input, trivial: &Trivial, answer: &str) -> Sample {
    let mut sample = Sample {
        failed: true,
        ..Sample::default()
    };
    let Ok(frame) = parse_json(answer.trim()) else {
        return sample;
    };
    let number = |key: &str| frame.get(key).and_then(Json::as_f64);
    if frame.get("ok") != Some(&Json::Bool(true)) {
        sample.refused = frame.get("overloaded") == Some(&Json::Bool(true));
        eprintln!("{}: {}", input.label(), answer.trim());
        return sample;
    }
    let (Some(methods), Some(verified), Some(total)) = (
        number("methods"),
        number("methods_verified"),
        number("sequents_total"),
    ) else {
        return sample;
    };
    let expected_failures = usize::from(input.failing.is_some());
    if input.failing.is_some() && verified >= methods {
        sample.soundness_trip = Some(format!("{} was reported verified", input.label()));
    }
    let faults = number("crashed").unwrap_or(1.0) + number("skipped").unwrap_or(1.0);
    let fully_proved = frame.get("fully_proved") == Some(&Json::Bool(true));
    sample.failed = faults > 0.0
        || verified as usize + expected_failures != methods as usize
        || fully_proved != input.failing.is_none();
    sample.sequents = (total as usize).saturating_sub(trivial.of(input));
    sample.overhead_ms = number("wall_ms");
    if sample.failed {
        eprintln!("{}: {}", input.label(), answer.trim());
    }
    sample
}

/// A JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn serve(
    workload: Workload,
    ipl: &Path,
    work: &Path,
    seed: u64,
    window: (f64, usize),
) -> Result<E2e, String> {
    let mut e2e = E2e::default();
    let trivial = Trivial::new(workload)?;

    // Set-up: spawn to primed, several times; the last daemon serves.
    let mut daemon: Option<Daemon> = None;
    for index in 0..SERVE_SETUPS {
        if let Some(previous) = daemon.take() {
            previous.stop();
        }
        let socket = work.join(format!("d{index}.sock"));
        let started = Instant::now();
        let mut fresh = Daemon::spawn(ipl, &socket, &work.join(format!("cache-{index}")))?;
        let mut client = fresh.connect()?;
        for input in gen::priming() {
            let sample = client.verify(&input, &trivial)?;
            if sample.failed {
                return Err(format!("priming: {} did not verify", input.label()));
            }
        }
        e2e.setup_s.push(started.elapsed().as_secs_f64());
        daemon = Some(fresh);
    }
    let mut daemon = daemon.expect("at least one set-up");

    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        clients.push(daemon.connect()?);
    }
    let window = Window::new(window);
    let results: Vec<Result<(Vec<Sample>, Duration), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(index, mut client)| {
                let trivial = &trivial;
                let window = &window;
                scope.spawn(move || {
                    let mut stream = Stream::new(workload, seed, index as u64);
                    let mut samples = Vec::new();
                    while window.next_cycle() {
                        let cycle = stream.cycle();
                        for input in &cycle {
                            samples.push(client.verify(input, trivial)?);
                        }
                        window.sent(cycle.len());
                    }
                    Ok((samples, window.start.elapsed()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    e2e.peak_rss_kb = daemon.peak_rss_kb();
    daemon.stop();
    for result in results {
        let (samples, elapsed) = result?;
        e2e.add_client(samples, elapsed);
    }
    Ok(e2e)
}
