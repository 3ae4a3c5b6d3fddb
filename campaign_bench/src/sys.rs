//! Process accounting read from `/proc/self`: CPU time split into user and
//! kernel mode, and the machine's processor count.

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// fixes `USER_HZ` at 100 for this interface on every architecture the
/// benchmark targets.
const USER_HZ: f64 = 100.0;

/// CPU seconds the whole process (every thread, live or exited) has spent
/// in user and kernel mode.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl CpuTimes {
    /// Reads the current totals.
    ///
    /// # Panics
    ///
    /// Panics if `/proc/self/stat` is missing or malformed: the benchmark
    /// has no other source for CPU time and must not report a made-up one.
    pub fn read() -> Self {
        let text = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
        parse_stat(&text).expect("malformed /proc/self/stat")
    }

    /// User plus kernel seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    /// The time spent between `earlier` and `self`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a `stat` line. The
/// command name in field 2 may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<CpuTimes> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state).
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / USER_HZ,
        sys_s: stime as f64 / USER_HZ,
    })
}

/// The benchmark's one clock. Its readings time campaigns and spans; none
/// reaches the digested results.
pub fn clock() -> std::time::Instant {
    // tdfm-lint: allow(nondeterministic-time, benchmark timing site whose readings never reach the digested results)
    std::time::Instant::now()
}

/// Prints a diagnostic of the benchmark binary on standard error, which
/// keeps standard output for the report and its final JSON line.
pub fn complain(message: &str) {
    // tdfm-lint: allow(raw-eprintln, user-facing diagnostics of the benchmark binary)
    eprintln!("campaign_bench: {message}");
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let line = "4242 (odd) name)) R 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 3 0 99";
        let t = parse_stat(line).unwrap();
        assert_eq!(t.user_s, 2.5);
        assert_eq!(t.sys_s, 0.75);
        assert_eq!(t.total_s(), 3.25);
    }

    #[test]
    fn own_stat_parses() {
        let t = CpuTimes::read();
        assert!(t.user_s >= 0.0 && t.sys_s >= 0.0);
    }
}
