//! Host-side measurements: process CPU time and peak resident memory read
//! from Linux `/proc` (off Linux, or without `/proc`, they read as 0), and
//! the calibration that expresses measured times in reference-host
//! seconds.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (Linux `USER_HZ`,
/// 100 on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far, threads
/// (including ones already joined) included.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Reset the kernel's peak-RSS watermark to the current RSS, so the next
/// [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM (Linux ≥ 4.0).  Where that is
    // refused, the watermark keeps covering the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host cost of one measured call.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Cost {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident memory during the call, in MiB.
    pub peak_rss_mb: f64,
}

/// Run `f`, measuring its wall time, CPU time and peak resident memory.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    reset_peak_rss();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cost = Cost {
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
        peak_rss_mb: peak_rss_mb(),
    };
    (out, cost)
}

/// About the seconds either calibration mix takes on a quiet host of the
/// reference kind (a 2-core Sapphire Rapids KVM guest; estimated from the
/// times of the calibration's parts there).  Normalized times are
/// expressed in this host's seconds.
pub const CALIBRATION_REF_S: f64 = 0.24;

/// How much of each part of the calibration work a calibration runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Byte step between the UTF-8 validations over the text.
    pub utf8_step: usize,
    /// Rounds of the allocation part (0: none).
    pub alloc_rounds: u64,
}

impl Mix {
    /// For work bound by heap structures (the simulator, the campaign
    /// engine): a quarter validation, three quarters allocation.
    pub const HEAP: Mix = Mix {
        utf8_step: 400,
        alloc_rounds: 150,
    };

    /// For work bound by the JSON decoder's character loop: validation
    /// only.
    pub const DECODE: Mix = Mix {
        utf8_step: 100,
        alloc_rounds: 0,
    };
}

/// Calibration work for one thread: a fixed amount of work shaped like the
/// program's hot paths, calling no code of the repository, so a change to
/// the program never moves it.  Two parts, weighed by `mix`:
///
/// * UTF-8 validation streaming over a 1.3 MB text, as the JSON decoder's
///   character loop does over a shard document;
/// * small allocations, formatting and ordered-map inserts and walks, as
///   the simulator's and the campaign engine's heap structures.
///
/// In the slow phases of the shared host seen while tuning, the first part
/// slowed about as much as the resume workload and the second about as much
/// as the simulating ones, while a mix of the two fell behind the resume
/// workload by up to 25%.  A branchy loop over a cache-resident table
/// slowed much less than any workload and was left out.
fn calibration_work(salt: u64, mix: Mix) -> u64 {
    let mut acc = 0u64;
    const PATTERN: &[u8] = br#"{"row":[1,2.5e-3],"label":"mcf"}"#;
    let text: Vec<u8> = (0..1_300_000)
        .map(|i| PATTERN[(i + salt as usize) % PATTERN.len()])
        .collect();
    for at in (0..text.len()).step_by(mix.utf8_step) {
        if let Ok(rest) = std::str::from_utf8(std::hint::black_box(&text[at..])) {
            acc = acc.wrapping_add(rest.len() as u64);
        }
    }

    for round in 0..mix.alloc_rounds {
        let mut map = std::collections::BTreeMap::new();
        for i in 0..4_000u64 {
            let key = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ round ^ salt) >> 7;
            map.insert(key, format!("{{\"k\":{key},\"v\":[{},{}]}}", i * 3, round));
        }
        let mut joined = String::new();
        for (key, value) in &map {
            joined.push_str(value);
            acc = acc.wrapping_add(*key);
        }
        acc ^= joined
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|t| t.parse::<u64>().ok())
            .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b));
    }
    std::hint::black_box(acc)
}

/// One calibration: the seconds the calibration work took per thread, as
/// wall time and as CPU time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Calibration {
    /// Wall seconds, averaged over the threads.
    pub wall_s: f64,
    /// CPU seconds, averaged over the threads.
    pub cpu_s: f64,
}

/// Run the calibration work shaped by `mix` on `threads` threads at once:
/// how fast the host
/// runs code like the program's right now.  On a shared host this drifts by
/// tens of percent over minutes as neighbours come and go; dividing a
/// measured time by it (see [`Speed`]) removes much of that drift.
pub fn calibrate(threads: usize, mix: Mix) -> Calibration {
    let threads = threads.max(1);
    let cpu0 = cpu_seconds();
    let wall: f64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|i| {
                s.spawn(move || {
                    let t0 = Instant::now();
                    calibration_work(i as u64, mix);
                    t0.elapsed().as_secs_f64()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap_or(0.0)).sum()
    });
    Calibration {
        wall_s: wall / threads as f64,
        cpu_s: (cpu_seconds() - cpu0) / threads as f64,
    }
}

/// The host's speed over a run, from calibrations interleaved with the
/// measured work.
#[derive(Debug, Clone, Default)]
pub struct Speed {
    samples: Vec<Calibration>,
}

impl Speed {
    /// Calibrate once more on `threads` threads.
    pub fn sample(&mut self, threads: usize, mix: Mix) {
        self.samples.push(calibrate(threads, mix));
    }

    /// Median calibration so far (wall and CPU time each).  The median,
    /// not the mean: a short calibration that lands on a burst of the
    /// host's contention would otherwise move the whole run.
    pub fn calibration(&self) -> Calibration {
        let pick =
            |f: fn(&Calibration) -> f64| median(&self.samples.iter().map(f).collect::<Vec<_>>());
        Calibration {
            wall_s: pick(|c| c.wall_s),
            cpu_s: pick(|c| c.cpu_s),
        }
    }

    /// Wall seconds measured on this host, expressed in seconds of the
    /// reference host ([`CALIBRATION_REF_S`]): `seconds × reference /
    /// calibration`, with the run's median calibration wall time.  Without
    /// samples the time is returned as measured.
    pub fn normalize_wall(&self, seconds: f64) -> f64 {
        scale(seconds, self.calibration().wall_s)
    }

    /// CPU seconds measured on this host, in reference seconds: as
    /// [`Speed::normalize_wall`], with the calibration's CPU time.
    pub fn normalize_cpu(&self, seconds: f64) -> f64 {
        scale(seconds, self.calibration().cpu_s)
    }
}

fn scale(seconds: f64, calibration: f64) -> f64 {
    if calibration > 0.0 {
        seconds * CALIBRATION_REF_S / calibration
    } else {
        seconds
    }
}

/// Median of a non-empty sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_rss_is_read() {
        let (_, cost) = measure(|| {
            let mut x = 0u64;
            for i in 0..30_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
            }
            x
        });
        assert!(cost.wall_s > 0.0);
        assert!(cost.cpu_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn normalized_times_scale_by_the_reference_over_the_calibration() {
        let mut speed = Speed::default();
        assert_eq!(speed.normalize_wall(3.0), 3.0, "no calibration yet");
        speed.sample(1, Mix::DECODE);
        let c = speed.calibration();
        assert!(c.wall_s > 0.0);
        let normalized = speed.normalize_wall(2.0);
        assert!((normalized * c.wall_s - 2.0 * CALIBRATION_REF_S).abs() < 1e-9);
        if c.cpu_s > 0.0 {
            let normalized = speed.normalize_cpu(2.0);
            assert!((normalized * c.cpu_s - 2.0 * CALIBRATION_REF_S).abs() < 1e-9);
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
