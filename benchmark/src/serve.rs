//! The served workloads: an in-process `sq_server::Server` at its shipped
//! defaults over a `DurableSubmitQueue` journaling to real files, driven
//! over two TCP-loopback connections by two client threads.
//!
//! Flush policy (the store's own, stated with every result): one
//! append + `sync_all` per journal record, a snapshot every 64 records.

use crate::input::{serve_input, Footprint, ServeInput};
use crate::metrics::Report;
use crate::spans::Recorder;
use crate::stats::{poisson_schedule, Samples};
use crate::sys;
use sq_core::durable::DurableSubmitQueue;
use sq_core::service::StepAction;
use sq_core::RecoveryConfig;
use sq_exec::StepOutcome;
use sq_server::{Client, Endpoint, Request, Response, Server, ServerConfig, WireTicketState};
use sq_store::{DurableStore, DurableStoreConfig, FsStorage};
use sq_workload::ChangeSpec;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

/// Executor threads of the queue under test: one per core of the box the
/// sizes were chosen on.
pub const BUILD_THREADS: usize = 2;
/// Back-to-back `Status` reads after each verdict of the open loop.
const STATUS_BURST: usize = 20;
/// One `Stats` read per this many verdicts of the open loop.
const STATS_EVERY: usize = 10;
/// Offered rate of the open loop, enqueues per second: about 35 % of
/// what `serve_queue` sustains, so the queue is short but not empty.
pub const OPEN_RATE: f64 = 30.0;
/// Tracing alternates on and off in slices this long, so that traced
/// and untraced changes see the same repository history.
const TRACE_SLICE: Duration = Duration::from_millis(250);
/// `Head` round trips per transport in the traced run.
const RTT_PROBES: usize = 200;
/// A closed loop reads the peak resident set after this many of its own
/// timed changes. The repository grows with every landed change, so a
/// reading at the end of a window fixed in time would charge a faster
/// queue for the extra changes it landed.
const RSS_CHECKPOINT: usize = 250;

type Queue = DurableSubmitQueue<DurableStore<FsStorage>>;

/// What distinguishes the three served workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub n_parts: usize,
    /// Wall sleep of every build step.
    pub step_delay: Duration,
    /// `true`: one open-loop submitter and one reader. `false`: two
    /// closed loops.
    pub open: bool,
}

pub const SERVE_QUEUE: ServeSpec = ServeSpec {
    n_parts: 300,
    step_delay: Duration::ZERO,
    open: false,
};
pub const SERVE_BUILD: ServeSpec = ServeSpec {
    n_parts: 32,
    step_delay: Duration::from_millis(2),
    open: false,
};
/// One 10 ms step per change (see [`Footprint::OneLeaf`]).
pub const SERVE_OPEN: ServeSpec = ServeSpec {
    n_parts: 32,
    step_delay: Duration::from_millis(10),
    open: true,
};

impl ServeSpec {
    pub fn footprint(&self) -> Footprint {
        if self.open {
            Footprint::OneLeaf {
                n_parts: self.n_parts,
            }
        } else {
            Footprint::TwoClients
        }
    }
}

/// How long the timed part of a served run lasts.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    /// This many changes in total (the warm-up, and the reference loop
    /// `plan_sim` traces).
    Changes(usize),
}

/// Sizes that `--smoke` divides by twenty.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub warmup_changes: usize,
    pub setups: usize,
}

/// One change as its client saw it.
#[derive(Debug, Clone, Copy)]
struct ChangeSample {
    /// Enqueue written this long after the change was due (open loop) or
    /// the loop turned to it (closed loop).
    late_ms: f64,
    ack_ms: f64,
    verdict_ms: f64,
    /// When the verdict was read, seconds into the timed window.
    done_s: f64,
    landed: bool,
    traced: bool,
}

#[derive(Debug, Default)]
struct ClientLog {
    changes: Vec<ChangeSample>,
    status_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    acked: u64,
    /// Peak resident set at [`RSS_CHECKPOINT`], if the loop got there.
    checkpoint_rss_mb: Option<f64>,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.changes.extend(other.changes);
        self.status_us.extend(other.status_us);
        self.checkpoint_rss_mb = self.checkpoint_rss_mb.or(other.checkpoint_rss_mb);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.acked += other.acked;
    }

    /// One request/reply; a transport failure or an unexpected reply
    /// (`Busy`, `Error`, a timeout) counts as failed and yields `None`.
    fn call<T>(
        &mut self,
        client: &mut Client,
        req: &Request,
        expect: impl FnOnce(Response) -> Option<T>,
    ) -> Option<T> {
        self.attempted += 1;
        let out = client.call(req).ok().and_then(expect);
        if out.is_none() {
            self.failed += 1;
        }
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A running server and what the benchmark needs to stop and check it.
struct Served {
    server: Server<DurableStore<FsStorage>>,
    dir: PathBuf,
    /// Step delay in microseconds; the audit after the run switches it
    /// off.
    delay_us: Arc<AtomicU64>,
    action: Arc<StepAction>,
    clients: [Client; 2],
    /// Next change of the input each client submits.
    cursor: usize,
}

/// The benchmark's build step: sleep the configured delay, always pass.
/// Spans are recorded here because executor threads run it; a step with
/// no parent span is recorded only if `record_orphans` (the live server's
/// steps have none; the replay's opaque twins must stay opaque).
pub fn step_action(
    delay_us: Arc<AtomicU64>,
    rec: Arc<Recorder>,
    record_orphans: bool,
) -> Arc<StepAction> {
    Arc::new(move |_step, _tree| {
        let parent = rec.step_parent();
        let span = rec.begin_if(record_orphans || parent != 0, "exec.step", parent, 0);
        let us = delay_us.load(Ordering::Relaxed);
        if us > 0 {
            std::thread::sleep(Duration::from_micros(us));
        }
        rec.end(span);
        StepOutcome::Success
    })
}

fn boxed(action: &Arc<StepAction>) -> Box<StepAction> {
    let action = Arc::clone(action);
    Box::new(move |step, tree| action(step, tree))
}

fn open_queue(repo: sq_vcs::Repository, dir: &Path) -> Queue {
    DurableSubmitQueue::open(
        repo,
        BUILD_THREADS,
        RecoveryConfig::disabled(),
        FsStorage::open(dir).expect("journal directory is writable"),
        DurableStoreConfig::default(),
    )
    .expect("a fresh journal opens")
}

fn start(input: &ServeInput, spec: &ServeSpec, dir: PathBuf, rec: &Arc<Recorder>) -> Served {
    let delay_us = Arc::new(AtomicU64::new(spec.step_delay.as_micros() as u64));
    let action = step_action(Arc::clone(&delay_us), Arc::clone(rec), true);
    let server = Server::start(
        open_queue(input.repo.repo.clone(), &dir),
        boxed(&action),
        ServerConfig::default(),
        &[
            Endpoint::Tcp("127.0.0.1:0".into()),
            Endpoint::Uds(dir.join("sq.sock")),
        ],
    )
    .expect("loopback endpoints bind");
    let addr = server.tcp_addr().expect("a TCP endpoint was asked for");
    let connect = || Client::connect_tcp(addr).expect("loopback connects");
    Served {
        clients: [connect(), connect()],
        server,
        dir,
        delay_us,
        action,
        cursor: 0,
    }
}

fn enqueue_request(input: &ServeInput, change: &ChangeSpec, base: sq_vcs::CommitId) -> Request {
    Request::Enqueue {
        author: format!("dev{}", change.developer.0),
        description: format!("change {}", change.id),
        base,
        patch: input.repo.patch_for(change),
    }
}

fn expect_head(r: Response) -> Option<sq_vcs::CommitId> {
    match r {
        Response::HeadIs { commit } => Some(commit),
        _ => None,
    }
}

fn expect_ticket(r: Response) -> Option<u64> {
    match r {
        Response::Enqueued { ticket } => Some(ticket),
        _ => None,
    }
}

/// `Some(landed)` for a terminal verdict; a `Rejected` verdict is a valid
/// outcome.
fn expect_verdict(r: Response) -> Option<bool> {
    match r {
        Response::Verdict { state, .. } => Some(matches!(state, WireTicketState::Landed(_))),
        _ => None,
    }
}

fn expect_status(r: Response) -> Option<()> {
    matches!(r, Response::StatusIs { .. }).then_some(())
}

const VERDICT_TIMEOUT_MS: u32 = 60_000;

/// Whether a change starting `since_start` into a traced run records
/// spans: tracing alternates by time slice.
fn slice_traced(trace: bool, since_start: Duration) -> bool {
    trace && (since_start.as_millis() / TRACE_SLICE.as_millis()) % 2 == 1
}

/// What the clients of one loop share.
#[derive(Clone, Copy)]
struct Load<'a> {
    input: &'a ServeInput,
    footprint: Footprint,
    rec: &'a Recorder,
    trace: bool,
}

/// One closed loop: `Head → Enqueue → SubscribeVerdict → Status`, the
/// next change only after the previous one's verdict.
fn closed_client(
    client: &mut Client,
    k: usize,
    first: usize,
    stop: Stop,
    start: Instant,
    load: Load<'_>,
) -> ClientLog {
    let Load {
        input,
        footprint,
        rec,
        trace,
    } = load;
    let mut log = ClientLog::default();
    let budget = match stop {
        Stop::Changes(n) => n.div_ceil(2),
        Stop::After(_) => usize::MAX,
    };
    // Client k takes the changes whose index is ≡ k (mod 2); `first` is
    // even.
    let mine = input.changes.iter().enumerate().skip(first + k);
    for (index, change) in mine.step_by(2).take(budget) {
        let turned = Instant::now();
        if matches!(stop, Stop::After(d) if turned.duration_since(start) >= d) {
            break;
        }
        let traced = slice_traced(trace, turned.duration_since(start));
        if k == 0 && trace {
            rec.set_enabled(traced);
        }
        let id = change.id.0;
        let root = rec.begin_if(traced, "client.change", 0, id);
        let span = |name| rec.begin_if(traced, name, root, id);

        let s = span("client.head");
        let Some(base) = log.call(client, &Request::Head, expect_head) else {
            break;
        };
        rec.end(s);
        let req = enqueue_request(input, &footprint.shape(index, change), base);
        let sent = Instant::now();
        let s = span("client.enqueue");
        let Some(ticket) = log.call(client, &req, expect_ticket) else {
            break;
        };
        rec.end(s);
        let acked = Instant::now();
        log.acked += 1;
        let s = span("client.subscribe");
        let subscribe = Request::SubscribeVerdict {
            ticket,
            timeout_ms: VERDICT_TIMEOUT_MS,
        };
        let Some(landed) = log.call(client, &subscribe, expect_verdict) else {
            break;
        };
        rec.end(s);
        let done = Instant::now();
        let s = span("client.status");
        if log
            .call(client, &Request::Status { ticket }, expect_status)
            .is_some()
        {
            log.status_us.push(done.elapsed().as_secs_f64() * 1e6);
        }
        rec.end(s);
        rec.end(root);
        log.changes.push(ChangeSample {
            late_ms: ms(sent.duration_since(turned)),
            ack_ms: ms(acked.duration_since(sent)),
            verdict_ms: ms(done.duration_since(sent)),
            done_s: done.duration_since(start).as_secs_f64(),
            landed,
            traced,
        });
        if k == 0 && log.changes.len() == RSS_CHECKPOINT {
            log.checkpoint_rss_mb = Some(sys::peak_rss_mb());
        }
    }
    log
}

/// Both closed loops from a common start, their logs merged.
fn closed_loops(served: &mut Served, stop: Stop, load: Load<'_>) -> ClientLog {
    let first = served.cursor;
    let barrier = Barrier::new(2);
    let [a, b] = &mut served.clients;
    let [mut log, log_b] = std::thread::scope(|scope| {
        let run = |client, k| {
            let barrier = &barrier;
            move || {
                barrier.wait();
                closed_client(client, k, first, stop, Instant::now(), load)
            }
        };
        let other = scope.spawn(run(b, 1));
        let log_a = run(a, 0)();
        [log_a, other.join().expect("client thread does not panic")]
    });
    // Both clients consumed the same stretch of the input, give or take
    // the last change.
    served.cursor = first + 2 * log.changes.len().max(log_b.changes.len()) + 2;
    log.absorb(log_b);
    log
}

/// The open loop: connection A enqueues on a seeded Poisson schedule and
/// never waits for a verdict; connection B long-polls each ticket's
/// verdict in order and reads `Status` and `Stats` beside the writes.
/// Every latency is timed from the change's due time, so a stall counts
/// against the requests it delays.
fn open_loop(served: &mut Served, seed: u64, span_s: f64, load: Load<'_>) -> ClientLog {
    let Load {
        input,
        footprint,
        rec,
        trace,
    } = load;
    let n = ((OPEN_RATE * span_s).round() as usize).max(1);
    let schedule = poisson_schedule(seed, n, span_s);
    let first = served.cursor;
    served.cursor += n;
    let [a, b] = &mut served.clients;
    let (tx, rx) = mpsc::channel::<(u64, Instant, f64, f64, bool)>();
    let start = Instant::now();
    let (log_a, mut log_b) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut log = ClientLog::default();
            for (i, (ticket, due, late_ms, ack_ms, traced)) in rx.iter().enumerate() {
                let root = rec.begin_if(traced, "client.change", 0, ticket);
                let span = |name| rec.begin_if(traced, name, root, ticket);
                let s = span("client.subscribe");
                let subscribe = Request::SubscribeVerdict {
                    ticket,
                    timeout_ms: VERDICT_TIMEOUT_MS,
                };
                let Some(landed) = log.call(b, &subscribe, expect_verdict) else {
                    break;
                };
                rec.end(s);
                let done = Instant::now();
                let s = span("client.status");
                for _ in 0..STATUS_BURST {
                    let t = Instant::now();
                    if log
                        .call(b, &Request::Status { ticket }, expect_status)
                        .is_some()
                    {
                        log.status_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                }
                rec.end(s);
                if i % STATS_EVERY == 0 {
                    let stats = |r| matches!(r, Response::StatsJson { .. }).then_some(());
                    log.call(b, &Request::Stats, stats);
                }
                rec.end(root);
                log.changes.push(ChangeSample {
                    late_ms,
                    ack_ms,
                    verdict_ms: ms(done.duration_since(due)),
                    done_s: done.duration_since(start).as_secs_f64(),
                    landed,
                    traced,
                });
            }
            log
        });
        let mut log = ClientLog::default();
        let changes = input.changes.iter().enumerate().skip(first);
        for ((index, change), due_s) in changes.zip(&schedule) {
            let due = start + Duration::from_secs_f64(*due_s);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let traced = slice_traced(trace, due.duration_since(start));
            if trace {
                rec.set_enabled(traced);
            }
            let Some(base) = log.call(a, &Request::Head, expect_head) else {
                break;
            };
            let req = enqueue_request(input, &footprint.shape(index, change), base);
            let sent = Instant::now();
            let s = rec.begin_if(traced, "client.enqueue", 0, change.id.0);
            let Some(ticket) = log.call(a, &req, expect_ticket) else {
                break;
            };
            rec.end(s);
            log.acked += 1;
            let late_ms = ms(sent.duration_since(due));
            let ack_ms = ms(Instant::now().duration_since(due));
            if tx.send((ticket, due, late_ms, ack_ms, traced)).is_err() {
                break;
            }
        }
        drop(tx);
        (log, reader.join().expect("reader thread does not panic"))
    });
    log_b.absorb(log_a);
    log_b
}

/// `Head` round trips over one connection, median in microseconds.
fn head_rtt_us(client: &mut Client, log: &mut ClientLog) -> f64 {
    let samples = (0..RTT_PROBES)
        .filter_map(|_| {
            let t = Instant::now();
            log.call(client, &Request::Head, expect_head)
                .map(|_| t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    Samples::new(samples).median()
}

/// One set-up: a fresh journal directory, the queue, the server, two
/// connections, and the warm-up changes through both closed loops.
fn set_up(
    input: &ServeInput,
    spec: &ServeSpec,
    scale: &Scale,
    dir: PathBuf,
    rec: &Arc<Recorder>,
) -> (Served, ClientLog) {
    let mut served = start(input, spec, dir, rec);
    let load = Load {
        input,
        footprint: spec.footprint(),
        rec,
        trace: false,
    };
    let log = closed_loops(&mut served, Stop::Changes(scale.warmup_changes), load);
    (served, log)
}

/// Stop the server and hand back the queue and the server's counters.
fn shut_down(served: Served) -> (Queue, sq_obs::MetricsRegistry, Arc<StepAction>, PathBuf) {
    let Served {
        server,
        dir,
        delay_us,
        action,
        clients,
        ..
    } = served;
    drop(clients);
    let (queue, metrics) = server.shutdown();
    delay_us.store(0, Ordering::Relaxed);
    (queue, metrics, action, dir)
}

/// Everything a served run measured.
pub struct ServedRun {
    pub report: Report,
    pub input: ServeInput,
}

/// Run one served workload: set up `scale.setups` times (the last one is
/// kept), measure until `stop`, then check the outputs outside the timed
/// window.
pub fn run_served(
    spec: &ServeSpec,
    scale: &Scale,
    seed: u64,
    stop: Stop,
    trace: bool,
    out_dir: &Path,
    rec: &Arc<Recorder>,
) -> ServedRun {
    let mut report = Report::default();
    let span_s = match stop {
        Stop::After(d) => d.as_secs_f64(),
        Stop::Changes(n) => n as f64 / OPEN_RATE,
    };
    // Enough changes for a queue several times faster than today's.
    let n_changes = scale.warmup_changes + 2_000 + (500.0 * span_s) as usize;

    let mut setups: Vec<f64> = Vec::new();
    let mut kept: Option<(Served, ClientLog, ServeInput)> = None;
    for i in 0..scale.setups.max(1) {
        if let Some((old, ..)) = kept.take() {
            let (.., dir) = shut_down(old);
            let _ = std::fs::remove_dir_all(dir);
        }
        let t = Instant::now();
        let input = serve_input(seed, spec.n_parts, n_changes);
        let dir = out_dir.join(format!("journal-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (served, warm) = set_up(&input, spec, scale, dir, rec);
        setups.push(t.elapsed().as_secs_f64());
        kept = Some((served, warm, input));
    }
    let (mut served, mut all, input) = kept.expect("at least one set-up ran");
    report.set("setup_s", Samples::new(setups).median());
    report.set("workload.generate_ms", input.generate_ms);
    report.set("workload.materialize_ms", input.materialize_ms);

    // The timed window.
    let cpu0 = sys::cpu_seconds();
    let load = Load {
        input: &input,
        footprint: spec.footprint(),
        rec,
        trace,
    };
    let timed = if spec.open {
        open_loop(&mut served, seed, span_s, load)
    } else {
        closed_loops(&mut served, stop, load)
    };
    let cpu_s = sys::cpu_seconds() - cpu0;
    rec.set_enabled(false);
    let peak_rss_mb = timed.checkpoint_rss_mb.unwrap_or_else(sys::peak_rss_mb);

    let verdicts = timed.changes.len();
    let window_s = timed
        .changes
        .iter()
        .map(|c| c.done_s)
        .fold(0.0, f64::max)
        .max(1e-9);
    let lat = |f: fn(&ChangeSample) -> f64| Samples::new(timed.changes.iter().map(f).collect());
    let verdict = lat(|c| c.verdict_ms);
    let ack = lat(|c| c.ack_ms);
    let status = Samples::new(timed.status_us.clone());
    report.set("verdicts_per_s", verdicts as f64 / window_s);
    report.set("verdict_ms_p50", verdict.percentile(0.5));
    report.set("verdict_ms_p90", verdict.percentile(0.9));
    report.set("cpu_ms_per_change", cpu_s * 1e3 / verdicts.max(1) as f64);
    report.set("peak_rss_mb", peak_rss_mb);
    report.set("client.samples", verdicts as f64);
    report.set("client.verdict_ms_p99", verdict.percentile(0.99));
    report.set("client.ack_ms_p50", ack.percentile(0.5));
    report.set("client.ack_ms_p90", ack.percentile(0.9));
    report.set("client.ack_ms_p99", ack.percentile(0.99));
    report.set("client.status_us_p50", status.percentile(0.5));
    report.set("client.status_us_p90", status.percentile(0.9));
    report.set("client.late_ms_p99", lat(|c| c.late_ms).percentile(0.99));
    let offered_over = if spec.open { span_s } else { window_s };
    report.set("client.offered_per_s", timed.acked as f64 / offered_over);
    let rejected = timed.changes.iter().filter(|c| !c.landed).count();
    report.set(
        "client.rejected_share",
        rejected as f64 / verdicts.max(1) as f64,
    );
    report.set(
        "client.slowdown_ratio",
        slowdown_ratio(&timed.changes, spec.open),
    );
    report.set(
        "obs.trace_overhead_share",
        trace_overhead_share(&timed.changes),
    );
    report.note(format!(
        "{verdicts} verdicts in {window_s:.3} s ({} status reads); percentiles are exact sorted samples, \
         highest with ten samples beyond it: {}",
        status.len(),
        crate::stats::highest_supported_percentile(verdicts)
            .map_or("none".to_string(), |q| format!("p{}", (q * 1000.0).round() / 10.0)),
    ));
    report.note(format!(
        "server at ServerConfig::default() over FsStorage in {}: append+sync per record, snapshot every 64",
        served.dir.display()
    ));

    // Outside the window: transport round trips, then stop and audit.
    if trace {
        let uds = served
            .server
            .uds_path()
            .expect("a UDS endpoint was asked for")
            .to_path_buf();
        report.set(
            "server.rtt_head_tcp_us",
            head_rtt_us(&mut served.clients[0], &mut all),
        );
        // A connection holds one of the server's two workers for its
        // lifetime, so the UDS connection takes the place of a TCP one.
        served.clients[1] = Client::connect_uds(uds).expect("the UDS endpoint accepts");
        report.set(
            "server.rtt_head_uds_us",
            head_rtt_us(&mut served.clients[1], &mut all),
        );
    }
    all.absorb(timed);
    let (queue, server_metrics, action, dir) = shut_down(served);
    let stats = queue.service().stats();
    let landed_seen = all.changes.iter().filter(|c| c.landed).count() as u64;
    let verdicts_seen = all.changes.len() as u64;
    report.attempted += all.attempted;
    report.failed += all.failed;
    report.check(all.acked == verdicts_seen, || {
        format!(
            "{} acked tickets but {verdicts_seen} verdicts read",
            all.acked
        )
    });
    report.check(
        server_metrics.counter("server.enqueues.acked") == all.acked,
        || {
            format!(
                "server acked {} enqueues, clients counted {}",
                server_metrics.counter("server.enqueues.acked"),
                all.acked
            )
        },
    );
    report.check(
        stats.landed + stats.rejected == all.acked && stats.queued == 0,
        || format!("not exactly one terminal state per acked ticket: {stats:?}"),
    );
    report.check(stats.landed == landed_seen, || {
        format!(
            "service landed {}, clients saw {landed_seen} land",
            stats.landed
        )
    });
    if !spec.open {
        // Disjoint clients and passing steps: every change of the seed lands.
        report.check(stats.landed == all.acked, || {
            format!(
                "{} of {} changes landed, expected all",
                stats.landed, all.acked
            )
        });
    }
    let audit = queue.service().verify_history(&*action);
    report.check(
        matches!(audit, Ok(n) if n as u64 == stats.landed + 1),
        || {
            format!(
                "verify_history over {} landed changes: {audit:?}",
                stats.landed
            )
        },
    );

    let requests: u64 = ["enqueue", "status", "subscribe", "stats", "head"]
        .iter()
        .map(|r| server_metrics.counter(&format!("server.requests.{r}")))
        .sum();
    report.set("server.requests", requests as f64);
    report.set(
        "server.busy_replies",
        server_metrics.counter("server.busy_replies") as f64,
    );
    report.set(
        "server.conns_accepted",
        server_metrics.counter("server.conns.accepted") as f64,
    );
    let lookups = (stats.cache_hits + stats.cache_misses).max(1);
    report.set(
        "exec.cache_hit_rate",
        stats.cache_hits as f64 / lookups as f64,
    );
    if trace {
        let repo = queue.repository();
        drop(queue);
        let t = Instant::now();
        let reopened = open_queue(repo, &dir);
        report.set("store.recover_ms", ms(t.elapsed()));
        report.check(reopened.service().stats().landed == stats.landed, || {
            "the run's own journal did not reopen to its state".into()
        });
    }
    let _ = std::fs::remove_dir_all(dir);
    ServedRun { report, input }
}

/// Time per change in the last quarter of the window over the first
/// quarter: above 1 when the per-change cost grows with history.
fn slowdown_ratio(changes: &[ChangeSample], open: bool) -> f64 {
    let mut by_time: Vec<&ChangeSample> = changes.iter().collect();
    by_time.sort_by(|a, b| a.done_s.partial_cmp(&b.done_s).expect("times are finite"));
    let q = by_time.len() / 4;
    if q == 0 {
        return 1.0;
    }
    // A closed loop's time per change is its pace; an open loop's pace is
    // the schedule's, so its cost per change is the verdict latency.
    let cost = |part: &[&ChangeSample]| {
        if open {
            Samples::new(part.iter().map(|c| c.verdict_ms).collect()).median()
        } else {
            (part[part.len() - 1].done_s - part[0].done_s) / part.len() as f64
        }
    };
    let (first, last) = (cost(&by_time[..q]), cost(&by_time[by_time.len() - q..]));
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

/// Median verdict latency of the traced slices over the untraced ones,
/// minus one. 0 when the run was not traced.
fn trace_overhead_share(changes: &[ChangeSample]) -> f64 {
    let median = |traced: bool| {
        Samples::new(
            changes
                .iter()
                .filter(|c| c.traced == traced)
                .map(|c| c.verdict_ms)
                .collect(),
        )
        .median()
    };
    let (on, off) = (median(true), median(false));
    if on > 0.0 && off > 0.0 {
        on / off - 1.0
    } else {
        0.0
    }
}
