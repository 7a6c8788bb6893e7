//! Process and host probes: CPU time and peak memory from `/proc/self`,
//! and a fixed calibration loop that calls no workspace code.

use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second of `/proc/self/stat` times (`USER_HZ`,
/// 100 on every Linux architecture this runs on).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds this process has used so far (`0` where
/// `/proc` is unavailable).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // utime and stime are fields 14 and 15 of the line (1-based); after
    // the parenthesised command name, which may hold spaces, they are
    // 0-based fields 11 and 12.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Peak resident set size of this process (`VmHWM`) in MiB (`0` where
/// `/proc` is unavailable). Process-wide and never decreasing.
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

/// Milliseconds one fixed integer-mixing loop takes on this host. It
/// touches no workspace code, so a change in it between runs is host
/// drift (frequency, steal time), not a change in the program.
pub fn calibrate_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..20_000_000u64 {
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(i);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}
