//! One benchmark run: set up the stack, warm it, drive it closed-loop for
//! the measured window, check the answers, and compute the metrics.

use crate::host::{CpuTrace, Fingerprint, HostLoad, Readings, RssPeak, OWN_BYTES};
use crate::oracle::{self, AnswerLens, Sampled};
use crate::probes;
use crate::report::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{median, min_samples, percentile, sorted, Tally};
use crate::stream::{mix, ClientStream, Phase, Shape, CLIENTS, COLD_CAPACITY, HOT_CAPACITY};
use crate::target::{NetCounters, Target};
use crate::trace::{Layer, Outcome, Tracer};
use nfv_bench::SizedTask;
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Seed of the fixture model. Fixed, so every run explains the same
/// forest and seeds vary only the request streams.
const FIXTURE_SEED: u64 = 1;
/// Features of the fixture forest (50 trees, depth ≤ 8).
const FIXTURE_DIM: usize = 14;
/// About how long the parts are that a measured window is cut into to
/// tell quiet host time from busy.
const SLICE: Duration = Duration::from_secs(1);
/// A slice is quiet when the hypervisor stole at most this share of the
/// host's CPU time during it. On a shared host, steal of 10-30 % for
/// seconds to minutes slows the same code up to 2.5× (most on the wire,
/// where every request hands off between several threads).
const QUIET_STEAL: f64 = 0.01;
/// When fewer slices are quiet, this share of them, the least stolen,
/// is used instead.
const MIN_USED: f64 = 0.25;
/// One answer in this many is recomputed by the oracle...
const SAMPLE_EVERY: u64 = 32;
/// ...up to this many per client.
const SAMPLES_PER_CLIENT: usize = 64;
/// Warm-up requests per client: enough misses to fill both cache tiers
/// and let the zipf hit rate settle.
const WARMUP_PER_CLIENT: usize = 2 * (HOT_CAPACITY + COLD_CAPACITY);
/// Upper bound on the warm-up's wall time.
const WARMUP_CAP: Duration = Duration::from_secs(120);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf TreeSHAP keys against one in-process engine.
    ZipfTreeShap,
    /// Never-repeated cells, four sampling methods, in-process engine.
    FreshSampling,
    /// The `ZipfTreeShap` stream through a router and two shard servers.
    WireZipf,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ZipfTreeShap,
        Workload::FreshSampling,
        Workload::WireZipf,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfTreeShap => "zipf_treeshap",
            Workload::FreshSampling => "fresh_sampling",
            Workload::WireZipf => "wire_zipf",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Shape {
        match self {
            Workload::ZipfTreeShap | Workload::WireZipf => Shape::Zipf,
            Workload::FreshSampling => Shape::Fresh,
        }
    }

    fn wire(self) -> bool {
        self == Workload::WireZipf
    }

    /// Set-ups timed for `setup_s`: an in-process set-up takes about a
    /// millisecond, a wire one (two shard servers, connect, a 1.78 MB
    /// registration) about 170 ms.
    fn setup_repeats(self) -> usize {
        if self.wire() {
            11
        } else {
            41
        }
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the request streams and the engine.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Everything a measured window produced, for one client or all of them.
#[derive(Debug, Default)]
struct Window {
    tally: Tally,
    /// Client latency of every answered request, µs.
    latency_us: Vec<f64>,
    /// When each answer arrived, seconds into the window.
    done_s: Vec<f64>,
    outcome: Vec<Outcome>,
    /// Engine queue wait and service time of every answer, µs.
    queue_us: Vec<f64>,
    service_us: Vec<f64>,
    exact: u64,
    samples: Vec<Sampled>,
    first_error: Option<String>,
    elapsed: Duration,
    /// When the window started.
    started: Option<Instant>,
    /// The host's CPU counters through the window.
    cpu: Readings,
}

impl Window {
    fn answered(&self) -> usize {
        self.latency_us.len()
    }

    fn throughput_rps(&self) -> f64 {
        self.answered() as f64 / self.elapsed.as_secs_f64()
    }

    /// How busy the rest of the host was from `from` to `to` seconds into
    /// the window.
    fn load(&self, from: f64, to: f64) -> HostLoad {
        let at = |s: f64| self.started.map(|t| t + Duration::from_secs_f64(s));
        match (at(from), at(to)) {
            (Some(a), Some(b)) => self.cpu.load(a, b),
            _ => HostLoad::default(),
        }
    }

    /// Cuts the window into slices of about [`SLICE`] and returns the
    /// slice length in seconds with the steal share of each slice.
    fn slice_steal(&self) -> (f64, Vec<f64>) {
        let secs = self.elapsed.as_secs_f64();
        let k = ((secs / SLICE.as_secs_f64()).round() as usize).max(1);
        let len = secs / k as f64;
        let steal = (0..k)
            .map(|i| self.load(i as f64 * len, (i + 1) as f64 * len).steal)
            .collect();
        (len, steal)
    }

    /// Client latency minus engine queue wait and service time.
    fn transport_us(&self) -> Vec<f64> {
        self.latency_us
            .iter()
            .zip(self.queue_us.iter().zip(&self.service_us))
            .map(|(l, (q, s))| (l - q - s).max(0.0))
            .collect()
    }

    fn absorb(&mut self, log: Window) {
        self.tally.merge(&log.tally);
        self.latency_us.extend(log.latency_us);
        self.done_s.extend(log.done_s);
        self.outcome.extend(log.outcome);
        self.queue_us.extend(log.queue_us);
        self.service_us.extend(log.service_us);
        self.exact += log.exact;
        self.samples.extend(log.samples);
        if self.first_error.is_none() {
            self.first_error = log.first_error;
        }
    }
}

/// Bytes of the per-answer records a [`Window`] keeps (four `f64` columns
/// and the outcome), counted in [`OWN_BYTES`].
const ANSWER_BYTES: u64 = (4 * std::mem::size_of::<f64>() + std::mem::size_of::<Outcome>()) as u64;

/// Drives one client closed-loop until `deadline`, or for `limit`
/// requests when given (warm-up).
#[allow(clippy::too_many_arguments)]
fn client_loop(
    target: &Target,
    task: &SizedTask,
    lens: AnswerLens,
    stream: &mut ClientStream,
    client: usize,
    seed: u64,
    start: Instant,
    deadline: Instant,
    limit: Option<usize>,
    mut tracer: Option<Tracer>,
) -> (Window, Option<Tracer>) {
    let mut log = Window::default();
    let call_name = target.explain_span_name();
    let call_layer = target.layer();
    let first = stream.issued();
    loop {
        let i = stream.issued();
        if limit.is_some_and(|n| i - first >= n as u64) || Instant::now() >= deadline {
            break;
        }
        let rid = ((client as u64) << 48) | i;
        let root = tracer
            .as_mut()
            .map(|t| t.begin("request", Layer::Bench, rid, None));
        let key = stream.next_key();
        let request = key.request(task);
        let keep =
            log.samples.len() < SAMPLES_PER_CLIENT && mix(seed ^ rid).is_multiple_of(SAMPLE_EVERY);
        let features = keep.then(|| request.features.clone());
        let call = tracer
            .as_mut()
            .zip(root)
            .map(|(t, r)| t.begin(call_name, call_layer, rid, Some(r)));
        let t0 = Instant::now();
        let result = target.explain(request);
        let latency = t0.elapsed();
        let outcome = match &result {
            Err(_) => Outcome::Failed,
            Ok(r) if r.fidelity.grade() == 0 => Outcome::Degraded,
            Ok(r) if r.cache_hit => Outcome::Hit,
            Ok(_) => Outcome::Miss,
        };
        if let (Some(t), Some(c), Some(r)) = (tracer.as_mut(), call, root) {
            t.end(c, outcome);
            t.end(r, outcome);
        }
        log.tally.attempted += 1;
        match result {
            Err(e) => {
                log.tally.errors += 1;
                log.first_error.get_or_insert(e);
            }
            Ok(resp) => {
                log.latency_us.push(latency.as_nanos() as f64 / 1e3);
                log.done_s.push((t0 + latency - start).as_secs_f64());
                log.outcome.push(outcome);
                log.queue_us.push(resp.queue_wait.as_nanos() as f64 / 1e3);
                log.service_us
                    .push(resp.service_time.as_nanos() as f64 / 1e3);
                log.exact += resp.fidelity.is_exact() as u64;
                OWN_BYTES.fetch_add(ANSWER_BYTES, Ordering::Relaxed);
                if !oracle::well_formed(&resp.attribution, lens.expected(key.method)) {
                    log.tally.malformed += 1;
                    log.first_error
                        .get_or_insert_with(|| format!("malformed answer to {:?}", key.method));
                } else if let Some(features) = features {
                    log.samples.push(Sampled {
                        features,
                        method: key.method,
                        model_version: resp.model_version,
                        served: resp.attribution,
                        fidelity: resp.fidelity,
                    });
                }
            }
        }
    }
    (log, tracer)
}

/// Fresh streams of every client for one phase.
fn streams(settings: &Settings, phase: Phase) -> Vec<ClientStream> {
    (0..CLIENTS)
        .map(|c| ClientStream::new(settings.workload.shape(), settings.seed, phase, c))
        .collect()
}

/// Runs every client on its stream until `window` ends, or for `limit`
/// requests each; spans go to `tracer` when given.
#[allow(clippy::too_many_arguments)]
fn drive(
    target: &Target,
    task: &SizedTask,
    lens: AnswerLens,
    settings: &Settings,
    streams: &mut [ClientStream],
    window: Duration,
    limit: Option<usize>,
    mut tracer: Option<&mut Tracer>,
) -> Window {
    let epoch = tracer.as_ref().map(|t| t.epoch());
    let cpu = CpuTrace::start();
    let start = Instant::now();
    let deadline = start + window;
    let logs: Vec<(Window, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let client_tracer = epoch.map(Tracer::new);
                s.spawn(move || {
                    client_loop(
                        target,
                        task,
                        lens,
                        stream,
                        c,
                        settings.seed,
                        start,
                        deadline,
                        limit,
                        client_tracer,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut w = Window {
        elapsed,
        started: Some(start),
        // A failed poller leaves the window without host readings.
        cpu: cpu.finish().unwrap_or_default(),
        ..Window::default()
    };
    for (log, client_tracer) in logs {
        if let (Some(t), Some(ct)) = (tracer.as_deref_mut(), client_tracer) {
            t.absorb(ct);
        }
        w.absorb(log);
    }
    w
}

/// Recomputes the sampled answers directly, counts mismatches as
/// failures and sets `success_rate` from the whole tally: answered
/// correctly over attempted.
fn check_samples(
    entry: &ModelEntry,
    seed: u64,
    samples: &[Sampled],
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut ws = CoalitionWorkspace::default();
    let mut first = None;
    for s in samples {
        let direct = oracle::direct(entry, seed, s.model_version, s.method, &s.features, &mut ws)?;
        if let Err(e) = oracle::compare(&direct, &s.served, s.fidelity) {
            tally.mismatched += 1;
            first.get_or_insert(format!("{:?}: {e}", s.method));
        }
    }
    println!(
        "oracle: {} sampled answers recomputed directly, {} mismatched",
        samples.len(),
        tally.mismatched
    );
    if let Some(e) = first {
        println!("  first mismatch: {e}");
    }
    m.set("success_rate", 1.0 - tally.error_rate());
    Ok(())
}

/// Which slices of a window the end-to-end figures use: the quiet ones,
/// or the least-stolen [`MIN_USED`] share of them when fewer are quiet;
/// in either case more of the least stolen until they hold `need`
/// answers (`answers[i]` completed in slice `i`) or every slice is used.
fn used_slices(steal: &[f64], answers: &[usize], need: usize) -> Vec<bool> {
    let least = ((steal.len() as f64 * MIN_USED).ceil() as usize).max(1);
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let mut used = vec![false; steal.len()];
    let mut have = 0;
    for (rank, &i) in order.iter().enumerate() {
        if rank >= least && steal[i] > QUIET_STEAL && have >= need {
            break;
        }
        used[i] = true;
        have += answers[i];
    }
    used
}

/// End-to-end metrics of a window. Throughput and latency come from the
/// answers completed in its quiet slices (see [`used_slices`]), so host
/// time stolen by other guests does not read as a slower program.
fn end_to_end(w: &Window, m: &mut Metrics) -> Result<(), String> {
    let (len, steal) = w.slice_steal();
    let slice_of = |t: f64| ((t / len) as usize).min(steal.len() - 1);
    let mut answers = vec![0; steal.len()];
    for &t in &w.done_s {
        answers[slice_of(t)] += 1;
    }
    let used = used_slices(&steal, &answers, min_samples(0.99));
    let latency = sorted(
        w.latency_us
            .iter()
            .zip(&w.done_s)
            .filter(|(_, &t)| used[slice_of(t)])
            .map(|(&l, _)| l),
    );
    let n_used = used.iter().filter(|&&u| u).count();
    let pct = |q: f64| {
        percentile(&latency, q).ok_or_else(|| {
            format!(
                "{} answers in {n_used} slices cannot support p{}",
                latency.len(),
                q * 100.0
            )
        })
    };
    m.set(
        "throughput_rps",
        latency.len() as f64 / (n_used as f64 * len),
    );
    m.set("latency_p50_us", pct(0.50)?);
    m.set("latency_p99_us", pct(0.99)?);
    let shares: Vec<String> = steal.iter().map(|s| format!("{:.0}", s * 100.0)).collect();
    println!(
        "  host steal % per {len:.2} s slice: {} | {} answers in {n_used} of {} slices \
         used{}",
        shares.join(" "),
        latency.len(),
        used.len(),
        if steal.iter().filter(|&&s| s <= QUIET_STEAL).count() < n_used {
            " (host busy throughout: the least-stolen slices stand in)"
        } else {
            ""
        }
    );
    m.set("exact_share", w.exact as f64 / w.answered().max(1) as f64);
    Ok(())
}

/// A per-layer percentile, or 0 with a note when the window has too few
/// samples to support it (e.g. hit latency on a workload without hits).
fn layer_pct(name: &str, samples: Vec<f64>, q: f64) -> f64 {
    let n = samples.len();
    percentile(&sorted(samples), q).unwrap_or_else(|| {
        println!(
            "  note: {name}: {n} samples cannot support p{}; reported as 0",
            q * 100.0
        );
        0.0
    })
}

/// Counter deltas of the serving stack over a window.
fn stats_delta(m: &mut Metrics, before: &ServeStats, after: &ServeStats, fill_target: f64) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let hits = d(after.cache_hits, before.cache_hits);
    let lookups = hits + d(after.cache_misses, before.cache_misses);
    m.set("serve.cache.hit_rate", hits / lookups.max(1.0));
    m.set(
        "serve.cache.quantized_hit_share",
        d(after.quantized_hits, before.quantized_hits) / hits.max(1.0),
    );
    m.set("serve.cache.hot_bytes", after.cache_hot_bytes as f64);
    m.set("serve.cache.cold_bytes", after.cache_cold_bytes as f64);
    let batches = d(after.batches, before.batches);
    m.set(
        "serve.mean_batch_size",
        d(after.batched_requests, before.batched_requests) / batches.max(1.0),
    );
    let groups = d(after.fused_groups, before.fused_groups);
    m.set(
        "serve.fused_fill_ratio",
        d(after.fused_rows, before.fused_rows) / (groups * fill_target).max(1.0),
    );
    m.set(
        "serve.single_flight_hits",
        d(after.single_flight_hits, before.single_flight_hits),
    );
    let rejected = |s: &ServeStats| {
        s.rejected_queue_full
            + s.rejected_deadline_unmeetable
            + s.rejected_deadline_expired
            + s.rejected_unknown_model
            + s.rejected_invalid
    };
    m.set("serve.rejected", d(rejected(after), rejected(before)));
    m.set(
        "serve.degraded_served",
        d(after.degraded_served, before.degraded_served),
    );
}

/// Runs one workload and prints its report; the last line is the result.
pub fn run(settings: Settings) -> Result<(), String> {
    let wl = settings.workload;
    let window = Duration::from_secs_f64(settings.seconds);
    println!(
        "servebench {}: seed {} | {:.1} s measured | trace {} | {} closed-loop clients",
        wl.name(),
        settings.seed,
        settings.seconds,
        settings.trace as u8,
        CLIENTS
    );
    let fit = Instant::now();
    let task = SizedTask::new(FIXTURE_DIM, FIXTURE_SEED);
    println!(
        "fixture: d={FIXTURE_DIM} forest fitted in {:.2} s",
        fit.elapsed().as_secs_f64()
    );
    let epoch = Instant::now();
    let mut tracer = settings.trace.then(|| Tracer::new(epoch));

    let (target, _) = Target::setup(wl.wire(), &task, settings.seed, tracer.as_mut())?;
    let result = measure(&settings, &task, &target, window, tracer.as_mut());
    let down = target.shutdown();
    let (tally, mut metrics, host) = result?;
    down?;
    // Set-up is timed on stacks of its own once the measured one is down,
    // so their threads' allocator arenas do not reach `peak_rss_mb`.
    let mut setups = Vec::with_capacity(wl.setup_repeats());
    for _ in 0..wl.setup_repeats() {
        let (target, took) = Target::setup(wl.wire(), &task, settings.seed, None)?;
        setups.push(took.as_secs_f64());
        target.shutdown()?;
    }
    println!(
        "set-up: {} times, ms: {}",
        setups.len(),
        setups
            .iter()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    metrics.set("setup_s", median(setups));
    if let Some(t) = &tracer {
        for (name, span) in [
            ("serve.register_ms", "ModelRegistry::register"),
            ("net.register_ms", "NetCluster::register"),
        ] {
            metrics.set(name, median(t.durations_us(span)) / 1e3);
        }
        for (layer, ms) in t.self_ms() {
            metrics.set(self_ms_name(layer), ms);
        }
        write_trace(wl, settings.seed, &host, t)?;
    }
    let catalogue = if settings.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    println!("metrics:");
    metrics.print(catalogue);
    println!(
        "requests: {} attempted, {} failed ({} errors, {} malformed, {} mismatched), error rate {:.6}",
        tally.attempted,
        tally.failed(),
        tally.errors,
        tally.malformed,
        tally.mismatched,
        tally.error_rate()
    );
    println!(
        "{}",
        crate::report::result_line(
            tally.correct(),
            tally.attempted,
            tally.failed(),
            &metrics.to_json(catalogue)?
        )
    );
    Ok(())
}

/// Warm-up, measured window(s), oracle and (traced) probes.
fn measure(
    settings: &Settings,
    task: &SizedTask,
    target: &Target,
    window: Duration,
    tracer: Option<&mut Tracer>,
) -> Result<(Tally, Metrics, Fingerprint), String> {
    let wl = settings.workload;
    let lens = AnswerLens::of(&*target.model_entry(task)?);
    // Peak memory while serving; set-up transients (and the oracle's copy
    // of the wire model, built below) are not part of it.
    let rss = RssPeak::start();
    let mut warm_streams = streams(settings, Phase::Warmup);
    let warm = drive(
        target,
        task,
        lens,
        settings,
        &mut warm_streams,
        WARMUP_CAP,
        Some(WARMUP_PER_CLIENT),
        None,
    );
    print_window("warm-up", &warm);
    let host = Fingerprint::read(&target.stats()?.kernel);
    println!("host: {host}");

    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let mut samples = Vec::new();

    // The measured window, or the untraced half of a traced run.
    let plain_len = if tracer.is_some() { window / 2 } else { window };
    // The traced window continues the untraced window's streams.
    let mut measured = streams(settings, Phase::Measure);
    let shards_before = target.shard_stats()?;
    let mut plain = drive(
        target,
        task,
        lens,
        settings,
        &mut measured,
        plain_len,
        None,
        None,
    );
    end_to_end(&plain, &mut m)?;
    m.set("peak_rss_mb", rss.finish()?);
    let entry = target.model_entry(task)?;
    print_window("untraced", &plain);
    print_shards(&shards_before, &target.shard_stats()?);
    tally.merge(&plain.tally);
    samples.append(&mut plain.samples);

    if let Some(tr) = tracer {
        let before = target.stats()?;
        let net_before = target.net_counters();
        let dedup_before = dedup_rows_saved();
        let mut traced = drive(
            target,
            task,
            lens,
            settings,
            &mut measured,
            window / 2,
            None,
            Some(tr),
        );
        let dedup = dedup_rows_saved() - dedup_before;
        let after = target.stats()?;
        let net_after = target.net_counters();
        print_window("traced", &traced);
        tally.merge(&traced.tally);
        samples.append(&mut traced.samples);

        let mut traced_e2e = Metrics::default();
        end_to_end(&traced, &mut traced_e2e)?;
        for (overhead, base) in [
            ("trace.overhead_throughput_rps", "throughput_rps"),
            ("trace.overhead_latency_p50_us", "latency_p50_us"),
            ("trace.overhead_latency_p99_us", "latency_p99_us"),
        ] {
            let (t, u) = (traced_e2e.get(base), m.get(base));
            m.set(overhead, t.unwrap_or(0.0) - u.unwrap_or(0.0));
        }
        layer_metrics(
            &mut m, &traced, &before, &after, net_before, net_after, dedup,
        );
        // Client time of hits and misses, from the spans around each call.
        let call = target.explain_span_name();
        for (name, outcome, q) in [
            ("serve.hit_latency_us_p50", Outcome::Hit, 0.5),
            ("serve.miss_latency_us_p50", Outcome::Miss, 0.5),
            ("serve.miss_latency_us_p99", Outcome::Miss, 0.99),
        ] {
            m.set(name, layer_pct(name, tr.durations_us_of(call, outcome), q));
        }

        // Direct per-layer probes on this run's own inputs and messages.
        probes::xai(tr, &entry, &samples, settings.seed)?;
        probes::ml(tr, task, &samples)?;
        let bytes = probes::codec(tr, task, &samples)?;
        probes::register(tr, task, settings.seed)?;
        probe_metrics(&mut m, tr, task, bytes);
        print_stages(wl, settings.seed, &traced, &m)?;
    }

    check_samples(&entry, settings.seed, &samples, &mut tally, &mut m)?;
    Ok((tally, m, host))
}

fn self_ms_name(layer: Layer) -> &'static str {
    match layer {
        Layer::Bench => "self_ms.bench",
        Layer::Serve => "self_ms.nfv-serve",
        Layer::Xai => "self_ms.nfv-xai",
        Layer::Ml => "self_ms.nfv-ml",
        Layer::Net => "self_ms.nfv-net",
    }
}

/// Per-layer metrics of the traced serving window.
fn layer_metrics(
    m: &mut Metrics,
    w: &Window,
    before: &ServeStats,
    after: &ServeStats,
    net_before: NetCounters,
    net_after: NetCounters,
    dedup: u64,
) {
    stats_delta(m, before, after, FusionPolicy::default().target_rows as f64);
    // Queue wait and service time of computed answers (hits skip both).
    let computed = |v: &[f64]| -> Vec<f64> {
        v.iter()
            .zip(&w.outcome)
            .filter(|(_, &o)| o != Outcome::Hit)
            .map(|(&x, _)| x)
            .collect()
    };
    for (name, q, v) in [
        ("serve.queue_wait_us_p50", 0.5, &w.queue_us),
        ("serve.queue_wait_us_p99", 0.99, &w.queue_us),
        ("serve.service_us_p50", 0.5, &w.service_us),
        ("serve.service_us_p99", 0.99, &w.service_us),
    ] {
        m.set(name, layer_pct(name, computed(v), q));
    }
    m.set("xai.dedup_rows_saved", dedup as f64);
    let transport = w.transport_us();
    m.set(
        "net.transport_us_p50",
        layer_pct("net.transport_us_p50", transport.clone(), 0.5),
    );
    m.set(
        "net.transport_us_p99",
        layer_pct("net.transport_us_p99", transport, 0.99),
    );
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    m.set(
        "net.net_errors",
        d(net_after.net_errors, net_before.net_errors),
    );
    m.set("net.spills", d(net_after.spills, net_before.spills));
    m.set(
        "net.protocol_errors",
        d(net_after.protocol_errors, net_before.protocol_errors),
    );
}

/// Per-layer metrics of the direct probes, read back from their spans.
fn probe_metrics(m: &mut Metrics, tr: &Tracer, task: &SizedTask, bytes: probes::CodecBytes) {
    for (name, span, _) in probes::XAI_METHODS {
        let samples = tr.durations_us(span);
        m.set(name, layer_pct(name, samples, 0.5));
    }
    let rows = probes::block_rows(task) as f64;
    let block_ns = median(tr.durations_us("SoaForest::predict_block_into")) * 1e3;
    m.set("ml.predict_block_ns_per_row", block_ns / rows);
    m.set(
        "ml.pack_ms",
        median(tr.durations_us("SoaForest::from_forest")) / 1e3,
    );
    let reps = probes::CODEC_REPS as f64;
    m.set(
        "net.request_encode_ns",
        median(tr.durations_us("Message::encode_payload")) * 1e3 / reps,
    );
    m.set(
        "net.reply_decode_ns",
        median(tr.durations_us("Message::decode_payload")) * 1e3 / reps,
    );
    m.set("net.request_bytes", bytes.request);
    m.set("net.reply_bytes", bytes.reply);
    m.set("net.register_bytes", bytes.register);
}

fn print_window(label: &str, w: &Window) {
    let count = |o: Outcome| w.outcome.iter().filter(|&&x| x == o).count();
    println!(
        "{label} window: {:.2} s, {} answered ({} hit, {} miss, {} degraded), {} failed, \
         {:.1} req/s | host: {}{}",
        w.elapsed.as_secs_f64(),
        w.answered(),
        count(Outcome::Hit),
        count(Outcome::Miss),
        count(Outcome::Degraded),
        w.tally.errors,
        w.throughput_rps(),
        w.load(0.0, w.elapsed.as_secs_f64()),
        w.first_error
            .as_ref()
            .map_or(String::new(), |e| format!(" | first error: {e}"))
    );
}

/// Cache lookups and hit rate of each engine over a window, so a skewed
/// split of the keys between shards shows.
fn print_shards(before: &[ServeStats], after: &[ServeStats]) {
    let per: Vec<String> = before
        .iter()
        .zip(after)
        .enumerate()
        .map(|(i, (b, a))| {
            let hits = a.cache_hits.saturating_sub(b.cache_hits);
            let lookups = hits + a.cache_misses.saturating_sub(b.cache_misses);
            format!(
                "engine {i}: {lookups} lookups, {:.1} % hit",
                100.0 * hits as f64 / lookups.max(1) as f64
            )
        })
        .collect();
    println!("  cache: {}", per.join("; "));
}

/// Directory the traced runs write their spans and stage tables to.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_trace(wl: Workload, seed: u64, host: &Fingerprint, t: &Tracer) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{}.jsonl", wl.name()));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"host\":\"{}\",\"spans\":{}}}\n",
        wl.name(),
        host.to_string().replace('"', "\\\""),
        t.spans().len()
    );
    std::fs::write(&path, header + &t.to_jsonl())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", t.spans().len(), path.display());
    Ok(())
}

/// Per-outcome stage medians of a traced window, µs:
/// `[outcome][client, queue wait, service, transport]`.
fn stage_medians(w: &Window) -> Vec<(Outcome, usize, [f64; 4])> {
    let transport = w.transport_us();
    [Outcome::Hit, Outcome::Miss, Outcome::Degraded]
        .into_iter()
        .map(|o| {
            let pick = |v: &[f64]| {
                median(
                    v.iter()
                        .zip(&w.outcome)
                        .filter(|(_, &x)| x == o)
                        .map(|(&x, _)| x),
                )
            };
            let n = w.outcome.iter().filter(|&&x| x == o).count();
            (
                o,
                n,
                [
                    pick(&w.latency_us),
                    pick(&w.queue_us),
                    pick(&w.service_us),
                    pick(&transport),
                ],
            )
        })
        .collect()
}

/// Which build of the benchmark wrote a stored stage table: the size and
/// modification time of the running executable.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{mtime}", m.len())
        })
        .unwrap_or_else(|_| "unknown".into())
}

/// The seed and build a stored stage table names on its first line.
fn table_origin(table: &str) -> (Option<&str>, Option<&str>) {
    let mut f = table.lines().next().unwrap_or("").split_whitespace();
    match (f.next(), f.next(), f.next(), f.next()) {
        (Some("seed"), seed, Some("build"), build) => (seed, build),
        _ => (None, None),
    }
}

/// Prints the traced window's latency split by outcome and stage. The
/// zipf workloads also store theirs, and print the other zipf workload's
/// latest table beside their own, so the wire tax per hit and per miss
/// reads off one table. Tables of another build are not paired.
fn print_stages(wl: Workload, seed: u64, w: &Window, m: &Metrics) -> Result<(), String> {
    let mine = stage_medians(w);
    let row = |(o, n, s): &(Outcome, usize, [f64; 4])| {
        format!(
            "{:<8} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            o.name(),
            n,
            s[0],
            s[1],
            s[2],
            s[3]
        )
    };
    let header = format!(
        "{:<8} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "outcome", "n", "client_us", "queue_us", "service_us", "transp_us"
    );
    println!("stage medians by outcome ({}, traced window):", wl.name());
    println!("  {header}");
    for r in &mine {
        println!("  {}", row(r));
    }
    let sibling = match wl {
        Workload::ZipfTreeShap => Workload::WireZipf,
        Workload::WireZipf => Workload::ZipfTreeShap,
        Workload::FreshSampling => return Ok(()),
    };
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let build = build_id();
    let mut saved = format!("seed {seed} build {build}\n");
    for (o, n, s) in &mine {
        saved += &format!("{} {n} {} {} {} {}\n", o.name(), s[0], s[1], s[2], s[3]);
    }
    for key in [
        "net.transport_us_p50",
        "net.request_encode_ns",
        "net.reply_decode_ns",
    ] {
        saved += &format!("{key} {}\n", m.get(key).unwrap_or(0.0));
    }
    let path = dir.join(format!("stages_{}.txt", wl.name()));
    std::fs::write(&path, &saved).map_err(|e| format!("{}: {e}", path.display()))?;
    let other_path = dir.join(format!("stages_{}.txt", sibling.name()));
    let Ok(other) = std::fs::read_to_string(&other_path) else {
        println!(
            "  (run {} traced to print the wire-tax table side by side)",
            sibling.name()
        );
        return Ok(());
    };
    let (other_seed, other_build) = table_origin(&other);
    if other_build != Some(build.as_str()) {
        println!(
            "  ({} holds a table of another build; run {} traced again to print the \
             wire-tax table side by side)",
            other_path.display(),
            sibling.name()
        );
        return Ok(());
    }
    let (local, wire) = match wl {
        Workload::WireZipf => (other.as_str(), saved.as_str()),
        _ => (saved.as_str(), other.as_str()),
    };
    let other_seed = other_seed.unwrap_or("?");
    let seeds = match wl {
        Workload::WireZipf => format!("seeds {other_seed} / {seed}"),
        _ => format!("seeds {seed} / {other_seed}"),
    };
    let differ = if other_seed == seed.to_string() {
        ""
    } else {
        "; the seeds differ"
    };
    println!(
        "wire tax: zipf_treeshap vs wire_zipf (latest traced run of each, {seeds}{differ}; \
         medians):"
    );
    println!(
        "  {:<26} {:>14} {:>14} {:>12}",
        "stage", "zipf_treeshap", "wire_zipf", "wire tax"
    );
    let lookup = |text: &str, key: &str, col: usize| -> f64 {
        text.lines()
            .find_map(|l| {
                let mut f = l.split_whitespace();
                (f.next() == Some(key)).then(|| f.nth(col).and_then(|v| v.parse().ok()))
            })
            .flatten()
            .unwrap_or(0.0)
    };
    for o in ["hit", "miss"] {
        for (col, stage) in [
            (1, "client_us"),
            (2, "queue_us"),
            (3, "service_us"),
            (4, "transp_us"),
        ] {
            let (a, b) = (lookup(local, o, col), lookup(wire, o, col));
            println!(
                "  {:<26} {a:>14.1} {b:>14.1} {:>12.1}",
                format!("{o}.{stage}"),
                b - a
            );
        }
    }
    for key in [
        "net.transport_us_p50",
        "net.request_encode_ns",
        "net.reply_decode_ns",
    ] {
        let (a, b) = (lookup(local, key, 0), lookup(wire, key, 0));
        println!("  {key:<26} {a:>14.1} {b:>14.1} {:>12.1}", b - a);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::MODEL_ID;
    use crate::target::serve_model;
    use std::sync::Arc;

    #[test]
    fn a_mismatched_sample_lowers_success_rate() {
        let task = SizedTask::new(5, 1);
        let registry = ModelRegistry::new();
        registry
            .register(
                MODEL_ID,
                serve_model(&task),
                task.names.clone(),
                task.background.clone(),
            )
            .unwrap();
        let entry = registry.get(MODEL_ID).unwrap();
        let (seed, method) = (7, ExplainMethod::TreeShap);
        let features = task.data.row(0).to_vec();
        let mut ws = CoalitionWorkspace::default();
        let right =
            oracle::direct(&entry, seed, entry.version, method, &features, &mut ws).unwrap();
        let mut wrong = right.clone();
        wrong.values[0] = f64::from_bits(wrong.values[0].to_bits() ^ 1);
        for (served, want) in [(right, 1.0), (wrong, 0.75)] {
            let sample = Sampled {
                features: features.clone(),
                method,
                model_version: entry.version,
                served: Arc::new(served),
                fidelity: Fidelity::Exact,
            };
            let mut tally = Tally {
                attempted: 4,
                ..Tally::default()
            };
            let mut m = Metrics::default();
            check_samples(&entry, seed, &[sample], &mut tally, &mut m).unwrap();
            assert_eq!(m.get("success_rate"), Some(want));
        }
    }

    #[test]
    fn quiet_slices_are_used_else_the_least_stolen_quarter() {
        let answers = [100; 8];
        let busy = [0.2, 0.005, 0.3, 0.0, 0.01, 0.25, 0.4, 0.15];
        assert_eq!(
            used_slices(&busy, &answers, 300),
            [false, true, false, true, true, false, false, false]
        );
        let all_busy = [0.2, 0.05, 0.3, 0.04, 0.1, 0.25, 0.4, 0.15];
        assert_eq!(
            used_slices(&all_busy, &answers, 200),
            [false, true, false, true, false, false, false, false]
        );
        // Too few answers for the percentile: the next least stolen join.
        assert_eq!(
            used_slices(&busy, &answers, 350),
            [false, true, false, true, true, false, false, true]
        );
        assert_eq!(used_slices(&[0.5], &[3], 1000), [true]);
    }

    #[test]
    fn stage_tables_name_their_seed_and_build() {
        assert_eq!(
            table_origin("seed 12 build 1900-42\nhit 3 1 2 3 4\n"),
            (Some("12"), Some("1900-42"))
        );
        assert_eq!(table_origin("seed 12\nhit 3 1 2 3 4\n"), (None, None));
    }
}
