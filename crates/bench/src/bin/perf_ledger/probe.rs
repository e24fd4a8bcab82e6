//! Sustainable-bandwidth probe: a STREAM-style triad through
//! `LocalOps::waxpby_into`, on as many threads as the solves use, run in the
//! traced run's own process so the roofline column divides two numbers from
//! the same process.

use std::sync::Barrier;
use std::time::Instant;

use resilient_linalg::auto_ops;

/// Threads of the probe: the rank threads of the solves.
const THREADS: usize = 2;
/// Timed passes; the best one is the sustainable rate.
const PASSES: usize = 5;
const GIB: usize = 1 << 30;

#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Bytes moved per second by the best pass (24 per element, computed).
    pub triad_gbps: f64,
    /// Size of each of the three arrays.
    pub array_bytes: usize,
    /// Last-level cache size the system reports (0 if it reports none).
    pub llc_bytes: usize,
}

/// Size of the largest cache `cpu0` reports under sysfs.
fn reported_llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let text = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let text = text.trim();
            let (digits, unit) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1 << 10),
                b'M' => (&text[..text.len() - 1], 1 << 20),
                b'G' => (&text[..text.len() - 1], 1 << 30),
                _ => (text, 1),
            };
            digits.parse::<usize>().ok().map(|v| v * unit)
        })
        .max()
        .unwrap_or(0)
}

/// Run the triad. Each array is four times the reported last-level cache,
/// capped at 1 GiB (and 32 MiB when the system reports no cache size);
/// `small` shrinks it to 1 MiB for the smoke run.
pub fn triad(small: bool) -> Probe {
    let llc_bytes = reported_llc_bytes();
    let array_bytes = match (small, llc_bytes) {
        (true, _) => 1 << 20,
        (false, 0) => 32 << 20,
        (false, llc) => (4 * llc).min(GIB),
    };
    let per_thread = array_bytes / 8 / THREADS;
    let start_line = Barrier::new(THREADS);
    let ops = auto_ops();
    let best_pass_s = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    // First touch on the thread that streams the slice.
                    let x = vec![1.0; per_thread];
                    let y = vec![2.0; per_thread];
                    let mut w = vec![0.0; per_thread];
                    let mut passes = Vec::with_capacity(PASSES);
                    for _ in 0..PASSES {
                        start_line.wait();
                        let t0 = Instant::now();
                        ops.waxpby_into(1.0, &x, 3.0, &y, &mut w);
                        std::hint::black_box(&mut w);
                        passes.push(t0.elapsed().as_secs_f64());
                    }
                    passes
                })
            })
            .collect();
        let per_thread: Vec<Vec<f64>> = workers
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect();
        // A pass takes as long as its slowest thread.
        (0..PASSES)
            .map(|i| per_thread.iter().map(|p| p[i]).fold(0.0, f64::max))
            .fold(f64::INFINITY, f64::min)
    });
    let bytes_per_pass = (24 * per_thread * THREADS) as f64;
    Probe {
        triad_gbps: bytes_per_pass / best_pass_s / 1e9,
        array_bytes,
        llc_bytes,
    }
}
