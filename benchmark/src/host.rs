//! What the process can read about itself and its host from `/proc`.

use std::fs;
use std::time::Instant;

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// CPU time and run-queue wait of every thread of this process, summed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    pub cpu_ns: u64,
    pub runqueue_wait_ns: u64,
    pub threads: usize,
}

/// Reads `/proc/self/task/*/schedstat` (`<cpu ns> <run-queue wait ns> <slices>`).
pub fn sched() -> Sched {
    let mut s = Sched::default();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return s;
    };
    for t in tasks.flatten() {
        let Ok(text) = fs::read_to_string(t.path().join("schedstat")) else {
            continue;
        };
        let mut it = text
            .split_whitespace()
            .map(|x| x.parse::<u64>().unwrap_or(0));
        s.cpu_ns += it.next().unwrap_or(0);
        s.runqueue_wait_ns += it.next().unwrap_or(0);
        s.threads += 1;
    }
    s
}

/// The reference chunk: a fixed piece of work that touches nothing of the
/// repository — half its time a pointer chase over 2 MiB (memory latency),
/// half small string allocations, a sort and hash-map traffic (the
/// instruction mix of XML handling, not its code), about 0.17 ms in all.
/// One chunk is timed before every slice, off the slice's clock; the median
/// is printed as `host.reference_chunk_us`. It is a noise indicator only: a
/// run whose chunk reads well above the host's calm value was taken while
/// the host was slow. No metric is scaled by it.
pub struct Reference {
    next: Vec<u32>,
    pos: u32,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    pub fn new() -> Reference {
        // A single cycle through all slots (Sattolo's algorithm with a
        // fixed generator), so the chase never settles into a short loop.
        let n = 1usize << 19;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in (1..n).rev() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = ((x >> 33) as usize) % i;
            order.swap(i, j);
        }
        let mut r = Reference {
            next: order,
            pos: 0,
        };
        for _ in 0..64 {
            r.chunk(); // fault the table in, warm the allocator
        }
        r
    }

    /// Runs one chunk and returns its duration in nanoseconds.
    pub fn chunk(&mut self) -> u64 {
        use std::collections::HashMap;
        let t0 = Instant::now();
        let mut p = self.pos;
        for _ in 0..750 {
            p = self.next[p as usize];
        }
        self.pos = p;
        let mut words: Vec<String> = (0..256u32)
            .map(|i| {
                format!(
                    "<space id='{}'>{}</space>",
                    p.wrapping_add(i.wrapping_mul(2_654_435_761)) % 9_973,
                    i
                )
            })
            .collect();
        words.sort_unstable();
        let mut seen: HashMap<&str, usize> = HashMap::with_capacity(512);
        for (i, w) in words.iter().enumerate() {
            seen.insert(w.as_str(), i);
        }
        let total: usize = words.iter().map(|w| seen[w.as_str()] + w.len()).sum();
        std::hint::black_box((total, p));
        t0.elapsed().as_nanos() as u64
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the checkout was made from, when it is a git checkout.
pub fn git_sha() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h,
        Err(_) => return "unknown".to_string(),
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn reference_chunk_takes_time_and_moves_on() {
        let mut r = Reference::new();
        let before = r.pos;
        assert!(r.chunk() > 0);
        assert_ne!(r.pos, before, "the chase continues where it stopped");
    }

    #[test]
    fn sched_sees_this_thread() {
        let s = sched();
        assert!(s.threads >= 1);
    }
}
