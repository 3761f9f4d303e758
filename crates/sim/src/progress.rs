//! Coarse progress reporting for long sweeps.
//!
//! A [`Progress`] counts completed trials and, when enabled *and* stderr is
//! a terminal, repaints a one-line `done/total (pct%, ETA …)` status. Prints
//! are rate-limited (and contention-free: a worker that can't take the print
//! lock just skips), so ticking per trial from every worker is safe even for
//! micro-trials. When stderr is piped — CI logs, `2>file` — nothing is ever
//! printed, as batch output should be.

use std::io::IsTerminal;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Minimum interval between repaints.
const MIN_INTERVAL: Duration = Duration::from_millis(200);

/// A shared trials-completed counter with optional stderr reporting.
pub struct Progress {
    total: usize,
    done: AtomicUsize,
    started: Instant,
    last_print: Mutex<Instant>,
    /// The newline-terminated 100 % line has been painted.
    finished: AtomicBool,
    enabled: bool,
}

impl Progress {
    /// A meter over `total` work items; reporting happens only when
    /// `requested` is set *and* stderr is a TTY.
    pub fn new(total: usize, requested: bool) -> Progress {
        let now = Instant::now();
        Progress {
            total,
            done: AtomicUsize::new(0),
            started: now,
            // Backdate so the very first tick paints immediately.
            last_print: Mutex::new(now.checked_sub(MIN_INTERVAL).unwrap_or(now)),
            finished: AtomicBool::new(false),
            enabled: requested && std::io::stderr().is_terminal(),
        }
    }

    /// Records one completed item; repaints if due. Callable from any thread.
    pub fn tick(&self) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.enabled {
            return;
        }
        let Ok(mut last) = self.last_print.try_lock() else {
            // Another worker is painting. If this was the *final* tick the
            // repaint it deserved comes from `finish()` after the join, so
            // dropping it here cannot strand a stale line.
            return;
        };
        if done < self.total && last.elapsed() < MIN_INTERVAL {
            return;
        }
        *last = Instant::now();
        self.paint(done);
        if done >= self.total {
            eprintln!();
            self.finished.store(true, Ordering::Relaxed);
        }
    }

    /// Paints the final newline-terminated status unless a tick already did.
    /// Call once after the workers have joined — the meter must never leave
    /// a stale, unterminated line behind on stderr.
    pub fn finish(&self) {
        if !self.enabled || self.total == 0 || self.finished.swap(true, Ordering::Relaxed) {
            return;
        }
        self.paint(self.done.load(Ordering::Relaxed));
        eprintln!();
    }

    /// One repaint: carriage return, status, clear-to-end-of-line (the new
    /// line can be shorter than the previous one — e.g. `ETA 17m` → `ETA 9s`
    /// — and must not leave its tail visible).
    fn paint(&self, done: usize) {
        eprint!(
            "\r{}\x1b[K",
            render(done, self.total, self.started.elapsed())
        );
    }

    /// Items completed so far.
    pub fn completed(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }
}

/// The status line: `done/total trials (pct%, ETA …)`. Pure, for testing.
pub fn render(done: usize, total: usize, elapsed: Duration) -> String {
    let pct = 100.0 * done as f64 / total.max(1) as f64;
    if done >= total {
        return format!(
            "{done}/{total} trials (100%, {})",
            coarse(elapsed.as_secs_f64())
        );
    }
    let eta = if done == 0 {
        "—".to_string()
    } else {
        let remaining = elapsed.as_secs_f64() * (total - done) as f64 / done as f64;
        format!("ETA {}", coarse(remaining))
    };
    format!("{done}/{total} trials ({pct:.0}%, {eta})")
}

/// Coarse duration: whole seconds below two minutes, minutes above.
fn coarse(seconds: f64) -> String {
    if seconds < 120.0 {
        format!("{}s", seconds.round() as u64)
    } else {
        format!("{}m", (seconds / 60.0).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_midway_has_percent_and_eta() {
        let line = render(25, 100, Duration::from_secs(10));
        assert_eq!(line, "25/100 trials (25%, ETA 30s)");
    }

    #[test]
    fn render_start_has_no_eta() {
        let line = render(0, 100, Duration::ZERO);
        assert!(line.contains("(0%, —)"), "{line}");
    }

    #[test]
    fn render_done_reports_elapsed() {
        let line = render(100, 100, Duration::from_secs(7));
        assert_eq!(line, "100/100 trials (100%, 7s)");
    }

    #[test]
    fn long_etas_switch_to_minutes() {
        let line = render(1, 100, Duration::from_secs(10));
        assert_eq!(line, "1/100 trials (1%, ETA 17m)");
    }

    #[test]
    fn ticks_count_even_when_disabled() {
        let p = Progress::new(3, false);
        p.tick();
        p.tick();
        assert_eq!(p.completed(), 2);
        // Disabled meters never paint; finish (idempotent) is a no-op.
        p.finish();
        p.finish();
        assert_eq!(p.completed(), 2);
    }

    #[test]
    fn zero_total_renders_without_dividing_by_zero() {
        let line = render(0, 0, Duration::ZERO);
        assert!(line.starts_with("0/0"), "{line}");
    }
}
