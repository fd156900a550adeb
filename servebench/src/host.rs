//! What the host is and how much memory the run used.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Threads the process may run in parallel.
    pub cores: usize,
    /// CPU model string.
    pub cpu: String,
    /// Whether the CPU offers AVX2.
    pub avx2: bool,
    /// Whether the CPU offers AVX-512F.
    pub avx512f: bool,
    /// The SoA traversal kernel the process settled on.
    pub kernel: String,
    /// The kernel the serving stack's stats report.
    pub serve_kernel: String,
}

impl Fingerprint {
    /// Reads the host; `serve_kernel` comes from `ServeStats::kernel`.
    pub fn read(serve_kernel: &str) -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512f) = (
            std::is_x86_feature_detected!("avx2"),
            std::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512f) = (false, false);
        Fingerprint {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            avx2,
            avx512f,
            kernel: nfv_ml::soa::active_kernel_name().to_string(),
            serve_kernel: serve_kernel.to_string(),
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cores={} cpu=\"{}\" avx2={} avx512f={} kernel={} serve_kernel={}",
            self.cores, self.cpu, self.avx2, self.avx512f, self.kernel, self.serve_kernel
        )
    }
}

/// Bytes of per-answer records the benchmark itself keeps while it polls
/// the resident set; [`RssPeak`] subtracts them, so a faster program
/// (more answers, longer record vectors) does not read as a bigger one.
pub static OWN_BYTES: AtomicU64 = AtomicU64::new(0);

/// The largest resident set the process reaches between [`RssPeak::start`]
/// and [`RssPeak::finish`], polled from `VmRSS` on a thread of its own,
/// less the benchmark's own records ([`OWN_BYTES`]).
pub struct RssPeak {
    stop: Arc<AtomicBool>,
    poller: Option<JoinHandle<Result<f64, String>>>,
}

/// How often the poller reads `VmRSS`.
const RSS_POLL: Duration = Duration::from_millis(10);

impl RssPeak {
    /// Returns the allocator's free pages to the system, then starts
    /// polling. Without the trim, which allocator arenas happened to keep
    /// the set-up's freed memory (the wire registration parses a 1.78 MB
    /// JSON model) moves the figure by 11 MiB from run to run.
    pub fn start() -> RssPeak {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            extern "C" {
                fn malloc_trim(pad: usize) -> std::ffi::c_int;
            }
            // SAFETY: glibc's `malloc_trim` takes no pointers and may be
            // called at any time from any thread.
            unsafe {
                malloc_trim(0);
            }
        }
        OWN_BYTES.store(0, Ordering::Relaxed);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let poller = std::thread::spawn(move || {
            let mut peak = 0.0f64;
            loop {
                let own = OWN_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0);
                peak = peak.max(rss_mb()? - own);
                // A bare stop flag: it publishes no other data.
                if flag.load(Ordering::Relaxed) {
                    return Ok(peak);
                }
                std::thread::sleep(RSS_POLL);
            }
        });
        RssPeak {
            stop,
            poller: Some(poller),
        }
    }

    /// Stops polling and returns the peak in MiB.
    pub fn finish(mut self) -> Result<f64, String> {
        self.stop.store(true, Ordering::Relaxed);
        let poller = self.poller.take().expect("finish runs once");
        poller
            .join()
            .map_err(|_| "RSS poller panicked".to_string())?
    }
}

impl Drop for RssPeak {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(poller) = self.poller.take() {
            let _ = poller.join();
        }
    }
}

/// Resident set of this process in MiB (`VmRSS`).
fn rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmRSS in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time since boot, in clock ticks: the machine's from the first line
/// of `/proc/stat` and this process's from `/proc/self/stat`. Two readings
/// tell how busy the host was between them, so a slow run can be told
/// apart from a slow program.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTime {
    total: u64,
    idle: u64,
    steal: u64,
    own: u64,
}

impl CpuTime {
    /// Reads the counters; all zero where they cannot be read.
    pub fn read() -> CpuTime {
        let mut t = CpuTime::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
            // user nice system idle iowait irq softirq steal (guest time is
            // already inside user and nice).
            let f: Vec<u64> = stat
                .lines()
                .next()
                .unwrap_or("")
                .split_whitespace()
                .skip(1)
                .take(8)
                .filter_map(|v| v.parse().ok())
                .collect();
            if f.len() == 8 {
                t.total = f.iter().sum();
                t.idle = f[3] + f[4];
                t.steal = f[7];
            }
        }
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields of the line.
            let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
            let f: Vec<u64> = rest
                .split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|v| v.parse().ok())
                .collect();
            t.own = f.iter().sum();
        }
        t
    }

    /// Shares of the machine's CPU time from `self` to `later` that the
    /// hypervisor stole and that other processes used.
    pub fn load_until(&self, later: &CpuTime) -> HostLoad {
        let total = later.total.saturating_sub(self.total);
        let idle = later.idle.saturating_sub(self.idle);
        let steal = later.steal.saturating_sub(self.steal);
        let own = later.own.saturating_sub(self.own);
        let share = |t: u64| t as f64 / total.max(1) as f64;
        HostLoad {
            steal: share(steal),
            other: share(total.saturating_sub(idle + steal + own)),
        }
    }
}

/// How busy the host was over an interval, as shares of its CPU time.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostLoad {
    /// Time the hypervisor gave to other guests.
    pub steal: f64,
    /// Time other processes of this machine ran.
    pub other: f64,
}

impl fmt::Display for HostLoad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steal {:.1} %, other processes {:.1} % of the host's CPU time",
            self.steal * 100.0,
            self.other * 100.0
        )
    }
}

/// Readings of [`CpuTime`] taken on a thread of its own every
/// [`CPU_POLL`], so the host's load can be told for any part of a window.
pub struct CpuTrace {
    stop: Arc<AtomicBool>,
    poller: Option<JoinHandle<Vec<(Instant, CpuTime)>>>,
}

/// How often [`CpuTrace`] reads the counters.
const CPU_POLL: Duration = Duration::from_millis(50);

impl CpuTrace {
    /// Starts reading.
    pub fn start() -> CpuTrace {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let poller = std::thread::spawn(move || {
            let mut readings = Vec::new();
            loop {
                readings.push((Instant::now(), CpuTime::read()));
                // A bare stop flag: it publishes no other data.
                if flag.load(Ordering::Relaxed) {
                    return readings;
                }
                std::thread::sleep(CPU_POLL);
            }
        });
        CpuTrace {
            stop,
            poller: Some(poller),
        }
    }

    /// Stops reading and returns the readings, oldest first.
    pub fn finish(mut self) -> Result<Readings, String> {
        self.stop.store(true, Ordering::Relaxed);
        let poller = self.poller.take().expect("finish runs once");
        poller
            .join()
            .map(Readings)
            .map_err(|_| "CPU poller panicked".to_string())
    }
}

impl Drop for CpuTrace {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(poller) = self.poller.take() {
            let _ = poller.join();
        }
    }
}

/// Timed [`CpuTime`] readings of a [`CpuTrace`].
#[derive(Debug, Clone, Default)]
pub struct Readings(Vec<(Instant, CpuTime)>);

impl Readings {
    /// The host's load between `from` and `to`, from the last reading at
    /// or before `from` to the first at or after `to`.
    pub fn load(&self, from: Instant, to: Instant) -> HostLoad {
        let r = &self.0;
        if r.is_empty() {
            return HostLoad::default();
        }
        let a = r.iter().rposition(|(t, _)| *t <= from).unwrap_or(0);
        let b = r.iter().position(|(t, _)| *t >= to).unwrap_or(r.len() - 1);
        r[a].1.load_until(&r[b.max(a)].1)
    }
}
