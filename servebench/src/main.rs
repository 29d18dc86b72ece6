//! End-to-end benchmark of the `hdsd-serve` TCP path.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload lookup|analytics|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the release server from the repository, writes the seeded
//! workload graph, starts `hdsd-serve --listen` on it and drives the
//! workload over two TCP connections from two threads. Every answer is
//! checked against an in-process reference. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See README.md for the workloads and metrics.

mod client;
mod oracle;
mod probes;
mod server;
mod stats;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hdsd_service::Json;

use client::{Conn, Sample};
use oracle::{Oracle, Reference, Verdict};
use server::ServerProc;
use stats::{mean, median, sorted, supported_percentile};
use trace::Tracer;
use workload::{Batch, EdgeSet, Req, Rng, Workload, OPS, SPACES};

/// Server starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Most slices of a measured window; rates and percentiles are the
/// median over slices.
const PARTS: usize = 15;
/// End-to-end figures printed by every run but left out of the gated
/// result; the traced run reports them among the per-layer metrics. On a
/// shared 2-vCPU machine the host steals 0–30% of the CPU in episodes
/// lasting minutes. The read tail follows them past any usable bound
/// (10-run spreads of 0.15–0.66). So do the rates: with a fixed number of
/// requests in flight a rate is the inverse of mean latency, and the mean
/// carries the tail (10-run spreads of 0.15 for `lookup`'s `read_rps`
/// and 0.24 for `churn`'s, against at most 0.03 for `read_p50_ms`).
const UNGATED: [&str; 3] = ["read_rps", "read_p99_ms", "update_rps"];
/// Requests each `lookup` connection keeps in flight (below the server's
/// per-connection quota of 32).
const LOOKUP_WINDOW: usize = 16;
/// `analytics` arrival rate over both connections, requests per second:
/// about half the capacity measured on 2 cores (README.md).
const ANALYTICS_RATE: f64 = 240.0;
/// An open-loop run is invalid when more than 1% of its requests were
/// sent later than this after their due time.
const OPEN_LOOP_SLACK_MS: f64 = 10.0;
/// Analytics-mix requests the traced `lookup` and `churn` runs replay in
/// process.
const ANALYTICS_REPLAY: usize = 1000;
/// `lookup` gives this share of `--seconds` to a writer-only window after
/// its read window: in-memory `update` batches on the lookup graph.
const LOOKUP_UPDATE_SHARE: f64 = 0.5;
/// K4s whose edges the churn writer never removes (the reader's targets).
const CHURN_K4S: usize = 64;
/// In a traced window with updates, every Nth post-update graph, up to
/// `COLD_MAX` of them, is decomposed from scratch as the same-run
/// baseline for refresh and repair.
const COLD_EVERY: usize = 10;
const COLD_MAX: usize = 8;
/// Rates are medians over slices of the window holding about this many
/// samples each (at most `PARTS` slices).
const RATE_SLICE_SAMPLES: usize = 50;
/// Read round trips recorded as spans in a traced window.
const TCP_SPANS: usize = 5000;
/// Unmeasured load before the measured window.
const WARMUP: Duration = Duration::from_secs(2);
/// How long a server may take to start listening.
const START_TIMEOUT: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k.trim_start_matches("--").to_string(), v.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let workload =
        Workload::parse(get("workload")?).ok_or("--workload must be lookup, analytics or churn")?;
    let seed = get("seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: u64 = get("seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}

/// Named metrics in report order.
#[derive(Default)]
struct Metrics(Vec<(String, &'static str, f64)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push((name.into(), unit, value));
    }

    /// A copy without the named metrics.
    fn without(&self, names: &[&str]) -> Metrics {
        Metrics(self.0.iter().filter(|m| !names.contains(&m.0.as_str())).cloned().collect())
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.2)
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, u, v)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", Json::Num(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn run(args: &Args) -> Result<(), String> {
    let root = server::repo_root();
    let bin = server::build_server(&root)?;
    let out = root.join("servebench").join("out");
    let tag = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let work = out.join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = Run::new(args, bin, work.clone()).and_then(|mut r| r.execute(&out, &tag));
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Everything one run measures.
struct Run<'a> {
    args: &'a Args,
    bin: PathBuf,
    work: PathBuf,
    graph_file: PathBuf,
    tracer: Tracer,
    reference: Reference,
    /// Wrong answers found by the oracles (the run fails on any).
    wrong: Vec<String>,
}

/// The server kept running after set-up, with what set-up measured.
struct Started {
    proc: ServerProc,
    /// The control connection (`stats`, `save`, `shutdown`).
    conn: Conn,
    /// Seconds to a fully resident server, one entry per start.
    setups: Vec<f64>,
    /// Milliseconds of the first `nuclei` per space, one entry per start.
    first_nuclei: Vec<[f64; 3]>,
}

/// The writer's state (`churn`, and `lookup`'s update window), carried
/// across windows.
struct Churn {
    targets: workload::Targets,
    edges: EdgeSet,
    batches: Vec<Batch>,
    /// Edge lists of every `COLD_EVERY`-th post-update graph of the
    /// traced window, decomposed from scratch after the run.
    cold_graphs: Vec<Vec<(u32, u32)>>,
}

/// What a window's two connections send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lanes {
    /// Both connections read.
    Reads,
    /// One connection sends update batches; the other stays idle.
    Updates,
    /// One connection reads while the other sends update batches.
    Both,
}

impl Lanes {
    fn reads(self) -> bool {
        self != Lanes::Updates
    }

    fn updates(self) -> bool {
        self != Lanes::Reads
    }
}

/// One measured window.
struct Window {
    lanes: Lanes,
    traced: bool,
    reads: Vec<Sample>,
    updates: Vec<Sample>,
    start: Instant,
    len: Duration,
    /// Share of CPU time the host took from this machine (steal) during
    /// the window, when the kernel reports it.
    steal: Option<f64>,
}

/// `(steal, total)` CPU ticks since boot, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

impl<'a> Run<'a> {
    fn new(args: &'a Args, bin: PathBuf, work: PathBuf) -> Result<Run<'a>, String> {
        let mut tracer = Tracer::new(args.trace);
        let graph = args.workload.graph(args.seed);
        let graph_file = work.join("graph.txt");
        hdsd_graph::write_edge_list(&graph, &graph_file)
            .map_err(|e| format!("write graph: {e}"))?;
        let loaded = tracer
            .span("graph.load", None, 0, || hdsd_graph::read_edge_list(&graph_file))
            .map_err(|e| format!("read graph: {e}"))?;
        if loaded.edges() != graph.edges() {
            return Err("edge list did not round-trip".into());
        }
        let reference = Reference::build(loaded, &mut tracer, "", 0);
        Ok(Run { args, bin, work, graph_file, tracer, reference, wrong: Vec::new() })
    }

    fn server_args(&self, rep: usize) -> Vec<String> {
        let mut a: Vec<String> = ["--graph", &self.graph_file.display().to_string(), "--spaces"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        a.extend(["core,truss,34", "--readers", "2"].map(String::from));
        if self.args.workload == Workload::Churn {
            let dir = self.work.join(format!("durable-{rep}"));
            a.extend(["--durable".to_string(), dir.display().to_string()]);
            a.extend(["--fsync", "always"].map(String::from));
        }
        a
    }

    /// Starts the server `SETUP_REPS` times, each until `stats` and one
    /// `nuclei` per space have answered (every hierarchy resident); keeps
    /// the last one running.
    fn start(&mut self) -> Result<Started, String> {
        let mut setups = Vec::new();
        let mut nuclei = Vec::new();
        for rep in 0..SETUP_REPS {
            let log = self.work.join(format!("server-{rep}.log"));
            let t0 = Instant::now();
            let mut proc = ServerProc::spawn(&self.bin, &self.server_args(rep), &log)?;
            let mut conn = proc.connect(START_TIMEOUT)?;
            let stats = conn.request(r#"{"op":"stats"}"#)?;
            let mut first = [0.0; 3];
            for (s, ms) in first.iter_mut().enumerate() {
                let t = Instant::now();
                let reply = conn.request(&workload::nuclei_line(s, 1))?;
                *ms = t.elapsed().as_secs_f64() * 1e3;
                if !reply.starts_with("{\"ok\":true") {
                    return Err(format!("set-up nuclei failed: {reply}"));
                }
            }
            setups.push(t0.elapsed().as_secs_f64());
            nuclei.push(first);
            self.check_stats(&stats)?;
            if rep + 1 == SETUP_REPS {
                return Ok(Started { proc, conn, setups, first_nuclei: nuclei });
            }
            proc.shutdown(&mut conn)?;
        }
        unreachable!("SETUP_REPS > 0")
    }

    /// The server must report the graph shape the benchmark generated.
    fn check_stats(&self, reply: &str) -> Result<(), String> {
        let v = Json::parse(reply).map_err(|e| format!("stats reply: {e}"))?;
        let r = &self.reference;
        let shape = |v: &Json| -> Option<Vec<u64>> {
            let mut s = vec![v.get("vertices")?.as_u64()?, v.get("edges")?.as_u64()?];
            for sp in v.get("spaces")?.as_array()? {
                s.push(sp.get("cliques")?.as_u64()?);
                s.push(sp.get("max_kappa")?.as_u64()?);
            }
            Some(s)
        };
        let mut want = vec![r.graph.num_vertices() as u64, r.graph.num_edges() as u64];
        for sp in &r.spaces {
            want.extend([sp.kappa.len() as u64, u64::from(sp.max_kappa)]);
        }
        if shape(&v) != Some(want.clone()) {
            return Err(format!("server reports shape {:?}, expected {want:?}", shape(&v)));
        }
        Ok(())
    }

    fn execute(&mut self, out: &Path, tag: &str) -> Result<(), String> {
        let Started { proc, conn: mut ctl, setups, first_nuclei } = self.start()?;
        let wl = self.args.workload;
        let mut churn = (wl != Workload::Analytics).then(|| {
            let mut rng = Rng::new(self.args.seed ^ 0x5eed);
            // `lookup` has no concurrent reader, so no edge is protected.
            let targets = if wl == Workload::Churn {
                workload::churn_targets(&self.reference, &mut rng, CHURN_K4S)
            } else {
                workload::Targets { cliques: Vec::new(), protected: HashSet::new() }
            };
            Churn {
                targets,
                edges: EdgeSet::new(&self.reference.graph),
                batches: Vec::new(),
                cold_graphs: Vec::new(),
            }
        });

        // A warm-up window lets allocator and cache state settle; its
        // replies are checked but not measured. The untraced windows give
        // the end-to-end metrics; a traced run adds traced windows whose
        // difference from the untraced ones is the tracing overhead.
        // `lookup` reads first and then updates, so every read is checked
        // against the graph as loaded.
        let measured = Duration::from_secs(self.args.seconds);
        let lanes = if wl == Workload::Churn { Lanes::Both } else { Lanes::Reads };
        let updates = measured.mul_f64(LOOKUP_UPDATE_SHARE);
        let reads = if wl == Workload::Lookup { measured - updates } else { measured };
        let passes = [false, true];
        let passes = &passes[..1 + usize::from(self.args.trace)];
        let mut plan = vec![(WARMUP, false, lanes)];
        plan.extend(passes.iter().map(|&traced| (reads, traced, lanes)));
        if wl == Workload::Lookup {
            plan.extend(passes.iter().map(|&traced| (updates, traced, Lanes::Updates)));
        }
        // `peak_rss_mb` is the server's VmHWM after the last window with
        // reads: `lookup`'s update window, which ends the run, leaves it
        // out (its engine state made the figure vary by a tenth from seed
        // to seed); `churn` updates throughout, so it counts there.
        let mut windows = Vec::new();
        let mut peak_rss_mb = 0.0;
        for (i, &(secs, traced, lanes)) in plan.iter().enumerate() {
            windows.push(self.window(proc.addr, i as u64, secs, traced, lanes, churn.as_mut())?);
            if lanes.reads() {
                peak_rss_mb = proc.peak_rss_mb()?;
            }
        }
        let stats_reply = ctl.request(r#"{"op":"stats"}"#)?;
        let snap_path = self.work.join("final.snap");
        if churn.is_some() {
            let reply =
                ctl.request(&format!("{{\"op\":\"save\",\"path\":\"{}\"}}", snap_path.display()))?;
            if !reply.starts_with("{\"ok\":true") {
                return Err(format!("save failed: {reply}"));
            }
        }
        let command = proc.command.clone();
        proc.shutdown(&mut ctl)?;

        // Oracles.
        let mut verdicts: Vec<Vec<Verdict>> = Vec::new();
        for w in &windows {
            verdicts.push(self.judge(w));
        }
        // The warm-up window only had to be correct.
        windows[0].reads = Vec::new();
        windows[0].updates = Vec::new();
        if let Some(c) = &churn {
            let reference = Reference::build(c.edges.graph(), &mut Tracer::new(false), "", 0);
            if let Err(e) = oracle::check_snapshot(&snap_path, &reference) {
                self.wrong.push(format!("end state after updates: {e}"));
            }
        }

        // The measured window of each kind, untraced or traced.
        let pick = |traced: bool, updates: bool| {
            (1..windows.len())
                .find(|&i| {
                    let l = windows[i].lanes;
                    windows[i].traced == traced && if updates { l.updates() } else { l.reads() }
                })
                .map(|i| (&windows[i], &verdicts[i][..]))
        };
        let reads_of = |traced: bool| pick(traced, false).ok_or("no measured read window");
        let untraced =
            self.end_to_end(reads_of(false)?, pick(false, true), &setups, peak_rss_mb)?;
        let context = self.context(&command);
        println!("context {context}");
        print_metrics("end-to-end (untraced)", &untraced);
        let attempted: usize = windows[1..].iter().map(|w| w.reads.len() + w.updates.len()).sum();
        let failed: usize =
            verdicts[1..].iter().flatten().filter(|v| **v == Verdict::Failed).count();
        let reported = if self.args.trace {
            let traced =
                self.end_to_end(reads_of(true)?, pick(true, true), &setups, peak_rss_mb)?;
            print_metrics("end-to-end (traced windows)", &traced);
            let layers = self.per_layer(
                (reads_of(true)?.0, pick(true, true).map(|(w, _)| w)),
                &untraced,
                &traced,
                &first_nuclei,
                &stats_reply,
                churn.as_ref(),
            )?;
            print_metrics("per-layer", &layers);
            let spans = out.join(format!("{tag}.spans.jsonl"));
            self.tracer.write_jsonl(&spans).map_err(|e| format!("write spans: {e}"))?;
            println!("spans written to {}", spans.display());
            layers
        } else {
            untraced.without(&UNGATED)
        };
        for e in self.wrong.iter().take(5) {
            println!("WRONG ANSWER: {e}");
        }
        let line = format!(
            "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
            self.wrong.is_empty(),
            reported.json()
        );
        let record = format!("{{\"context\":{context},\"result\":{line}}}\n");
        std::fs::write(out.join(format!("{tag}.json")), record)
            .map_err(|e| format!("write result: {e}"))?;
        println!("{line}");
        Ok(())
    }

    fn context(&self, command: &[String]) -> String {
        let r = &self.reference;
        let spaces: Vec<String> = r
            .spaces
            .iter()
            .zip(SPACES)
            .map(|(s, n)| {
                format!(
                    "{{\"space\":\"{n}\",\"cliques\":{},\"max_kappa\":{}}}",
                    s.kappa.len(),
                    s.max_kappa
                )
            })
            .collect();
        let (n, m, p, keep) = self.args.workload.graph_params();
        let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
        let rev = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(server::repo_root())
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown (not a git checkout)".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            });
        let cmd: Vec<String> = command.iter().map(|c| Json::Str(c.clone()).to_string()).collect();
        format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"graph\":{{\"generator\":\"holme_kim\",\"n\":{n},\"m\":{m},\"p\":{p},\"keep\":{keep},\"vertices\":{},\"edges\":{},\"spaces\":[{}]}},\"cores\":{cores},\"git_revision\":{},\"server_command\":[{}]}}",
            self.args.workload.name(),
            self.args.seed,
            self.args.seconds,
            self.args.trace,
            r.graph.num_vertices(),
            r.graph.num_edges(),
            spaces.join(","),
            Json::Str(rev),
            cmd.join(",")
        )
    }

    /// Drives one window of the workload over two connections.
    fn window(
        &mut self,
        addr: std::net::SocketAddr,
        index: u64,
        secs: Duration,
        traced: bool,
        lanes: Lanes,
        churn: Option<&mut Churn>,
    ) -> Result<Window, String> {
        let r = &self.reference;
        let mut conns = [Conn::connect(addr), Conn::connect(addr)]
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        let (c1, c0) = (conns.pop().expect("two"), conns.pop().expect("two"));
        let base = self.args.seed.wrapping_mul(0x9e37_79b9).wrapping_add(index);
        let start = Instant::now() + Duration::from_millis(5);
        let until = start + secs;
        let ticks_before = cpu_ticks();
        // The churn reader shares the targets; the writer owns the rest.
        let (targets, writer) = match churn {
            Some(Churn { targets, edges, batches, cold_graphs }) => {
                (Some(&*targets), Some((edges, batches, cold_graphs)))
            }
            None => (None, None),
        };
        let wl = self.args.workload;
        let run = |mut conn: Conn, lane: u64| -> Result<Vec<Sample>, String> {
            if !lanes.reads() {
                return Ok(Vec::new());
            }
            let mut rng = Rng::new(base ^ (lane << 32));
            std::thread::sleep(start.saturating_duration_since(Instant::now()));
            match (wl, targets) {
                (Workload::Analytics, _) => {
                    // Poisson arrivals conditioned on their count: a fixed
                    // number of uniformly drawn due times per connection,
                    // so the offered load does not vary from seed to seed.
                    let n = (ANALYTICS_RATE / 2.0 * secs.as_secs_f64()).round() as usize;
                    let mut at: Vec<f64> =
                        (0..n).map(|_| rng.unit() * secs.as_secs_f64()).collect();
                    at.sort_by(f64::total_cmp);
                    let schedule: Vec<Instant> =
                        at.into_iter().map(|t| start + Duration::from_secs_f64(t)).collect();
                    let mut conn = conn.polled().map_err(|e| format!("nonblocking socket: {e}"))?;
                    client::open_loop(&mut conn, &schedule, || {
                        workload::analytics_request(r, &mut rng)
                    })
                }
                (Workload::Churn, Some(targets)) => {
                    client::closed_loop(&mut conn, 1, until, || {
                        workload::churn_read(r, targets, &mut rng)
                    })
                }
                _ => client::closed_loop(&mut conn, LOOKUP_WINDOW, until, || {
                    workload::lookup_request(r, &mut rng)
                }),
            }
        };
        let (reads, updates) = std::thread::scope(|s| {
            let reader = s.spawn(|| run(c1, 1));
            let other = match (writer, targets) {
                (Some((edges, batches, cold_graphs)), Some(targets)) if lanes.updates() => {
                    let mut conn = c0;
                    let mut rng = Rng::new(base ^ 0x0dd5);
                    std::thread::sleep(start.saturating_duration_since(Instant::now()));
                    client::closed_loop(&mut conn, 1, until, || {
                        let b = edges.next_batch(&mut rng, &targets.protected);
                        let line = b.line();
                        batches.push(b);
                        if traced
                            && batches.len().is_multiple_of(COLD_EVERY)
                            && cold_graphs.len() < COLD_MAX
                        {
                            cold_graphs.push(edges.edges().to_vec());
                        }
                        (Req::Update, line)
                    })
                    .map(|ups| (Vec::new(), ups))
                }
                _ => run(c0, 0).map(|rs| (rs, Vec::new())),
            };
            let reads = reader.join().map_err(|_| "reader thread panicked".to_string())??;
            let (mut rs, ups) = other?;
            rs.extend(reads);
            Ok::<_, String>((rs, ups))
        })?;
        if traced {
            // A span per update and per every k-th read: a few thousand
            // round trips show the shape without a span per lookup.
            let every = reads.len().div_ceil(TCP_SPANS).max(1);
            let spanned = reads.iter().step_by(every).chain(&updates);
            for (i, s) in spanned.enumerate() {
                if let Some(done) = s.done {
                    self.tracer.record(s.req.tcp_span(), s.due, done, None, 10_000_000 + i as u64);
                }
            }
        }
        let steal = match (ticks_before, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                Some((s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => None,
        };
        Ok(Window { lanes, traced, reads, updates, start, len: secs, steal })
    }

    /// Runs the oracles over a window; records wrong answers.
    fn judge(&mut self, w: &Window) -> Vec<Verdict> {
        let mut oracle = Oracle::new(&self.reference);
        let mut out = Vec::with_capacity(w.reads.len() + w.updates.len());
        let mut wrong = Vec::new();
        for s in w.reads.iter().chain(&w.updates) {
            // Churn answers change every epoch; their end state is checked
            // through the saved snapshot instead.
            let v = if self.args.workload == Workload::Churn {
                Oracle::shape(s).map(|(v, _)| v)
            } else {
                oracle.check(s)
            };
            match v {
                Ok(v) => out.push(v),
                Err(e) => {
                    wrong.push(e);
                    out.push(Verdict::Ok);
                }
            }
        }
        self.wrong.extend(wrong);
        out
    }

    /// Prints a window's failed and degraded shares and the host's CPU
    /// steal during it.
    fn report_window(&self, w: &Window, verdicts: &[Verdict]) {
        let sent = (w.reads.len() + w.updates.len()).max(1) as f64;
        let failed = verdicts.iter().filter(|v| **v == Verdict::Failed).count();
        let degraded = verdicts.iter().filter(|v| **v == Verdict::Degraded).count();
        println!(
            "{:?} window: failed_frac = {} ({failed} of {sent})",
            w.lanes,
            failed as f64 / sent
        );
        if let Some(steal) = w.steal {
            println!("host CPU steal during the window: {:.1}%", steal * 100.0);
        }
        if self.args.workload != Workload::Lookup {
            println!("degraded_frac = {} ({degraded} of {sent})", degraded as f64 / sent);
        }
    }

    /// End-to-end metrics from a window with reads and, when the workload
    /// updates, a window with updates (the same window for `churn`).
    fn end_to_end(
        &self,
        (rw, rv): (&Window, &[Verdict]),
        updates: Option<(&Window, &[Verdict])>,
        setups: &[f64],
        peak_rss_mb: f64,
    ) -> Result<Metrics, String> {
        let mut m = Metrics::default();
        m.put("setup_s", "s", median(setups.iter().copied()));
        m.put("peak_rss_mb", "MB", peak_rss_mb);
        self.report_window(rw, rv);
        if let Some((uw, uv)) = updates.filter(|(uw, _)| !std::ptr::eq(*uw, rw)) {
            self.report_window(uw, uv);
        }
        // (due time, latency) of every answered, non-failed request.
        let timed = |samples: &[Sample], verdicts: &[Verdict]| -> Vec<(Instant, f64)> {
            samples
                .iter()
                .zip(verdicts)
                .filter(|(_, v)| **v != Verdict::Failed)
                .filter_map(|(s, _)| Some((s.due, s.latency_ms()?)))
                .collect()
        };
        // Rates and percentiles are taken per slice of the window and
        // reported as the median over slices.
        let rate = |xs: &[(Instant, f64)], w: &Window| {
            let parts = (xs.len() / RATE_SLICE_SAMPLES).clamp(1, PARTS);
            let per = w.len.as_secs_f64() / parts as f64;
            let slices = stats::by_part(xs.iter().copied(), w.start, w.len, parts);
            median(slices.iter().map(|p| p.len() as f64 / per))
        };
        let pct = |xs: &[(Instant, f64)], w: &Window, p: f64, what: &str| {
            let (v, slices) = stats::median_of_parts(xs, w.start, w.len, PARTS, p)
                .map_err(|e| format!("{what} p{p}: {e}"))?;
            let slices: Vec<String> = slices.iter().map(|x| format!("{x:.3}")).collect();
            println!("{what} p{p}: median of [{}] ms ({} samples)", slices.join(", "), xs.len());
            Ok::<_, String>(v)
        };
        let reads = timed(&rw.reads, &rv[..rw.reads.len()]);
        m.put("read_rps", "1/s", rate(&reads, rw));
        m.put("read_p50_ms", "ms", pct(&reads, rw, 50.0, "read latency")?);
        m.put("read_p99_ms", "ms", pct(&reads, rw, 99.0, "read latency")?);
        if let Some(q) = stats::highest_supported(&sorted(reads.iter().map(|r| r.1))) {
            println!(
                "read latency, whole window: p{} = {:.4} ms ({} beyond of {})",
                q.pct, q.value, q.beyond, q.n
            );
        }
        if self.args.workload == Workload::Analytics {
            let late = sorted(rw.reads.iter().map(|s| stats::lateness_ms(s.due, s.sent)));
            let q = stats::percentile(&late, 99.0);
            println!(
                "generator lateness: p99 {:.3} ms, max {:.3} ms",
                q.value,
                late[late.len() - 1]
            );
            if q.value > OPEN_LOOP_SLACK_MS {
                return Err(format!(
                    "invalid run: the open-loop generator sent over 1% of requests more than \
                     {OPEN_LOOP_SLACK_MS} ms late (p99 lateness {:.3} ms)",
                    q.value
                ));
            }
        }
        if let Some((uw, uv)) = updates {
            let acks = timed(&uw.updates, &uv[uw.reads.len()..]);
            m.put("update_p50_ms", "ms", pct(&acks, uw, 50.0, "update latency")?);
            // Printed only: `lookup`'s update window is too short to hold
            // the samples a p90 needs.
            if let Err(e) = pct(&acks, uw, 90.0, "update latency") {
                println!("update latency p90 not reported: {e}");
            }
            m.put("update_rps", "1/s", rate(&acks, uw));
        }
        Ok(m)
    }

    /// Per-layer metrics from the traced read window `w` and, when the
    /// workload updates, the traced window with updates `uw`.
    fn per_layer(
        &mut self,
        (w, uw): (&Window, Option<&Window>),
        untraced: &Metrics,
        traced: &Metrics,
        first_nuclei: &[[f64; 3]],
        stats_reply: &str,
        churn: Option<&Churn>,
    ) -> Result<Metrics, String> {
        let batches = churn.map_or(&[][..], |c| &c.batches[..]);
        let mut m = Metrics::default();
        let acks: Vec<(&Sample, Json)> = uw
            .map_or(&[][..], |uw| &uw.updates[..])
            .iter()
            .filter_map(|s| Some((s, Json::parse(&s.reply).ok()?)))
            .collect();

        // serve: client latency minus the server's own handling time.
        let residual = sorted(w.reads.iter().filter_map(|s| {
            let micros = num(&Json::parse(&s.reply).ok()?, "micros");
            Some(s.latency_ms()? - micros / 1e3)
        }));
        m.put("serve.residual_ms.p50", "ms", supported_percentile(&residual, 50.0)?.value);
        m.put("serve.residual_ms.p99", "ms", supported_percentile(&residual, 99.0)?.value);

        // protocol / json / engine, replayed in process on the run's own
        // request lines. The gated workloads also replay a seeded analytics
        // mix on their own graph: the query, region and nuclei layers stay
        // measured on every gated workload.
        let mut mix = Vec::new();
        if self.args.workload != Workload::Analytics {
            let mut rng = Rng::new(self.args.seed ^ 0xa11);
            mix.extend(
                (0..ANALYTICS_REPLAY)
                    .map(|_| workload::analytics_request(&self.reference, &mut rng)),
            );
        }
        let reads: Vec<&Req> = w
            .reads
            .iter()
            .filter(|s| s.done.is_some())
            .map(|s| &s.req)
            .chain(mix.iter().map(|(q, _)| q))
            .collect();
        let (view, replies) =
            probes::protocol_and_engine(&self.reference, &reads, batches, &mut self.tracer);
        for op in OPS {
            let handle = self.tracer.micros_of(&format!("protocol.handle_line.{op}"));
            if handle.is_empty() {
                continue;
            }
            m.put(format!("protocol.handle_us.{op}"), "us", median(handle));
            let bytes = replies.iter().filter(|(o, _)| *o == op).map(|(_, r)| r.len() as f64);
            m.put(format!("protocol.response_bytes.{op}"), "bytes", mean(bytes));
        }
        m.put("json.parse_us", "us", median(self.tracer.micros_of("json.parse")));
        for op in ["kappa", "estimate", "region", "nuclei"] {
            let us = self.tracer.micros_of(&format!("engine.{op}"));
            if !us.is_empty() {
                m.put(format!("engine.{op}_us"), "us", median(us));
            }
        }

        // query: the estimate replies' exploration telemetry.
        let est: Vec<Json> = replies
            .iter()
            .filter(|(o, _)| *o == "estimate")
            .filter_map(|(_, r)| Json::parse(r).ok())
            .collect();
        if !est.is_empty() {
            m.put("query.explored_mean", "count", mean(est.iter().map(|v| num(v, "explored"))));
            let truncated =
                est.iter().filter(|v| v.get("truncated").and_then(Json::as_bool) == Some(true));
            m.put("query.truncated_frac", "ratio", truncated.count() as f64 / est.len() as f64);
        }

        // graph / space / peel / hierarchy: set-up probes.
        m.put("graph.load_ms", "ms", mean(self.tracer.micros_of("graph.load")) / 1e3);
        for (i, name) in SPACES.iter().enumerate() {
            let ms = |t: &Tracer, span: String| mean(t.micros_of(&span)) / 1e3;
            m.put(
                format!("space.build_ms.{name}"),
                "ms",
                ms(&self.tracer, format!("space.build.{name}")),
            );
            m.put(format!("peel.ms.{name}"), "ms", ms(&self.tracer, format!("peel.{name}")));
            m.put(
                format!("peel.containers_scanned.{name}"),
                "count",
                self.reference.spaces[i].containers_scanned as f64,
            );
            m.put(
                format!("hierarchy.first_nuclei_ms.{name}"),
                "ms",
                median(first_nuclei.iter().map(|f| f[i])),
            );
            m.put(
                format!("hierarchy.build_ms.{name}"),
                "ms",
                ms(&self.tracer, format!("hierarchy.build.{name}")),
            );
        }

        if let Some(c) = churn {
            self.update_layers(&mut m, &acks, batches, &c.cold_graphs)?;
            probes::epoch(&view, &mut self.tracer);
            let publish = mean(self.tracer.micros_of("epoch.publish"));
            m.put("epoch.publish_us", "us", publish);
            self.update_residual(&mut m, &acks, publish)?;
        }

        // overload: the server's own counters at the end of the run.
        let stats = Json::parse(stats_reply).map_err(|e| format!("stats reply: {e}"))?;
        let overload = stats.get("overload").ok_or("stats without overload")?;
        for key in ["shed", "degraded", "cancelled"] {
            m.put(format!("overload.{key}"), "count", num(overload, key));
        }

        // The tail percentiles are too unsteady to gate (see UNGATED); the
        // traced run reports them as layer figures.
        for (name, unit, v) in traced.0.iter().filter(|t| UNGATED.contains(&t.0.as_str())) {
            m.put(name.as_str(), unit, *v);
        }

        // telemetry: what the traced window cost against the untraced one.
        for name in ["read_p50_ms", "read_p99_ms", "read_rps", "update_p50_ms"] {
            if let (Some(a), Some(b)) = (untraced.get(name), traced.get(name)) {
                m.put(format!("trace.overhead_frac.{name}"), "ratio", (b - a) / a);
            }
        }
        if self.args.workload == Workload::Lookup {
            let (res, handle) = (m.get("serve.residual_ms.p50"), m.get("protocol.handle_us.kappa"));
            if let (Some(res), Some(handle), Some(p50)) = (res, handle, traced.get("read_p50_ms")) {
                println!(
                    "check: serve.residual_ms.p50 {res:.4} + protocol.handle_us.kappa {:.4} ms = {:.4} ms vs read_p50_ms {p50:.4} ms",
                    handle / 1e3,
                    res + handle / 1e3
                );
            }
        }
        Ok(m)
    }

    /// Update-path layers from the acks' `UpdateReport` fields, the WAL
    /// replay and the cold baselines.
    fn update_layers(
        &mut self,
        m: &mut Metrics,
        acks: &[(&Sample, Json)],
        batches: &[Batch],
        cold_graphs: &[Vec<(u32, u32)>],
    ) -> Result<(), String> {
        let acks: Vec<&Json> = acks.iter().map(|(_, v)| v).collect();
        m.put(
            "graph.delta_ms",
            "ms",
            mean(acks.iter().map(|v| num(v, "graph_delta_micros"))) / 1e3,
        );
        for (i, name) in SPACES.iter().enumerate() {
            let space = |v: &Json| -> Option<Json> {
                v.get("spaces")?
                    .as_array()?
                    .iter()
                    .find(|s| s.get("space").and_then(Json::as_str) == Some(name))
                    .cloned()
            };
            let rows: Vec<Json> = acks.iter().filter_map(|v| space(v)).collect();
            let cliques = self.reference.spaces[i].kappa.len() as f64;
            m.put(
                format!("space.splice_ms.{name}"),
                "ms",
                mean(rows.iter().map(|s| num(s, "splice_micros"))) / 1e3,
            );
            m.put(
                format!("refresh.ms.{name}"),
                "ms",
                mean(rows.iter().map(|s| num(s, "refresh_micros"))) / 1e3,
            );
            m.put(
                format!("refresh.processed_per_clique.{name}"),
                "ratio",
                mean(rows.iter().map(|s| num(s, "processed") / cliques)),
            );
            let repair = rows
                .iter()
                .map(|s| s.get("hierarchy_repair").map_or(0.0, |h| num(h, "repair_micros")));
            m.put(format!("hierarchy.repair_ms.{name}"), "ms", mean(repair) / 1e3);
        }
        for (i, edges) in cold_graphs.iter().enumerate() {
            let g = workload::graph_of(self.reference.graph.num_vertices(), edges);
            Reference::build(g, &mut self.tracer, "cold.", 5_000_000 + i as u64);
        }
        for name in SPACES {
            m.put(
                format!("cold.peel_ms.{name}"),
                "ms",
                mean(self.tracer.micros_of(&format!("cold.peel.{name}"))) / 1e3,
            );
            m.put(
                format!("cold.hierarchy_ms.{name}"),
                "ms",
                mean(self.tracer.micros_of(&format!("cold.hierarchy.build.{name}"))) / 1e3,
            );
        }
        let bytes = probes::wal(batches, &self.work, &mut self.tracer)?;
        m.put("wal.append_us", "us", mean(self.tracer.micros_of("wal.append")));
        m.put("wal.sync_us", "us", mean(self.tracer.micros_of("wal.sync")));
        m.put("wal.bytes_per_update", "bytes", bytes);
        Ok(())
    }

    /// Client ack latency minus every measured update stage; the means
    /// add up exactly (see [`stats::breakdown`]). The WAL stage counts
    /// only where the server logs (`churn`).
    fn update_residual(
        &self,
        m: &mut Metrics,
        acks: &[(&Sample, Json)],
        publish_us: f64,
    ) -> Result<(), String> {
        let get = |k: &str| m.get(k).unwrap_or(0.0);
        let wal_ms = if self.args.workload == Workload::Churn {
            (get("wal.append_us") + get("wal.sync_us")) / 1e3
        } else {
            0.0
        };
        let rows: Vec<(f64, Vec<f64>)> = acks
            .iter()
            .filter_map(|(s, v)| {
                let spaces = v.get("spaces")?.as_array()?;
                let sum = |k: &str| spaces.iter().map(|sp| num(sp, k)).sum::<f64>() / 1e3;
                let repair = spaces
                    .iter()
                    .map(|sp| sp.get("hierarchy_repair").map_or(0.0, |h| num(h, "repair_micros")))
                    .sum::<f64>()
                    / 1e3;
                Some((
                    s.latency_ms()?,
                    vec![
                        wal_ms,
                        num(v, "graph_delta_micros") / 1e3,
                        sum("splice_micros"),
                        sum("refresh_micros"),
                        repair,
                        publish_us / 1e3,
                    ],
                ))
            })
            .collect();
        let b = stats::breakdown(&rows);
        m.put("update.residual_ms", "ms", b.residual_mean);
        m.put("update.client_mean_ms", "ms", b.wall_mean);
        let sum: f64 = b.stage_means.iter().sum::<f64>() + b.residual_mean;
        println!(
            "check: update stages (wal, delta, splice, refresh, repair, publish) {:?} ms + residual {:.4} ms = {sum:.4} ms vs client mean {:.4} ms",
            b.stage_means.iter().map(|x| (x * 1e4).round() / 1e4).collect::<Vec<_>>(),
            b.residual_mean,
            b.wall_mean
        );
        if (sum - b.wall_mean).abs() > 1e-6 * b.wall_mean.max(1.0) {
            return Err("update stage attribution does not add up".into());
        }
        Ok(())
    }
}

/// A numeric reply field; 0 when absent.
fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn print_metrics(title: &str, m: &Metrics) {
    println!("── {title}");
    for (name, unit, value) in &m.0 {
        let note = if UNGATED.contains(&name.as_str()) { " (not gated)" } else { "" };
        println!("{name} = {value} {unit}{note}");
    }
}
