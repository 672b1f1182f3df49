//! Ordered, buffered output for parallel experiment runs.
//!
//! When the driver fans experiments across the work-stealing pool, they
//! finish out of order; writing each report the moment it completes would
//! interleave output and shuffle the suite's presentation order from run
//! to run. [`OrderedReporter`] restores determinism at the output edge:
//! every experiment submits its finished text under its *input* index,
//! and the reporter streams the longest contiguous prefix — so the reader
//! sees reports in suite order, starting as soon as the first experiment
//! completes, no matter which worker finished first.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;

/// Buffers out-of-order completions and flushes them in input order.
///
/// `complete(idx, text)` may be called from any thread, each index exactly
/// once; text for index `i` is written only after indices `0..i` have all
/// been written.
pub struct OrderedReporter<W: Write> {
    state: Mutex<State<W>>,
}

struct State<W> {
    next: usize,
    pending: BTreeMap<usize, String>,
    out: W,
}

impl<W: Write> OrderedReporter<W> {
    /// Wraps a writer; flushing starts at index 0.
    pub fn new(out: W) -> Self {
        OrderedReporter {
            state: Mutex::new(State {
                next: 0,
                pending: BTreeMap::new(),
                out,
            }),
        }
    }

    /// Submits the finished text for input index `idx` and flushes every
    /// contiguously completed report. Returns the first write error (a
    /// closed stdout, say); the reports it covers are dropped, so the
    /// order bookkeeping stays whole.
    pub fn complete(&self, idx: usize, text: String) -> io::Result<()> {
        let mut s = self.state.lock().expect("reporter lock");
        let prev = s.pending.insert(idx, text);
        debug_assert!(prev.is_none(), "index {idx} completed twice");
        let mut written = Ok(());
        loop {
            let next = s.next;
            let Some(text) = s.pending.remove(&next) else {
                break;
            };
            if written.is_ok() {
                written = s.out.write_all(text.as_bytes());
            }
            s.next += 1;
        }
        written.and_then(|()| s.out.flush())
    }

    /// Consumes the reporter and returns the writer. Panics if any
    /// submitted report is still waiting on an earlier index that never
    /// arrived (a driver bug: some experiment was skipped).
    pub fn into_inner(self) -> W {
        let s = self.state.into_inner().expect("reporter lock");
        assert!(
            s.pending.is_empty(),
            "reports stuck behind missing index {}",
            s.next
        );
        s.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_completions_flush_in_order() {
        let r = OrderedReporter::new(Vec::new());
        r.complete(2, "c".into()).unwrap();
        r.complete(0, "a".into()).unwrap();
        r.complete(1, "b".into()).unwrap();
        assert_eq!(r.into_inner(), b"abc");
    }

    #[test]
    fn flushes_longest_ready_prefix_immediately() {
        let r = OrderedReporter::new(Vec::new());
        r.complete(1, "b".into()).unwrap();
        {
            let s = r.state.lock().unwrap();
            assert_eq!(s.out, b"", "index 1 must wait for index 0");
        }
        r.complete(0, "a".into()).unwrap();
        {
            let s = r.state.lock().unwrap();
            assert_eq!(s.out, b"ab", "prefix should stream before index 2");
        }
        r.complete(2, "c".into()).unwrap();
        assert_eq!(r.into_inner(), b"abc");
    }

    #[test]
    fn parallel_submission_is_ordered() {
        let r = OrderedReporter::new(Vec::new());
        parpool::run_ordered((0..50).collect(), |i| {
            r.complete(i, format!("{i};")).unwrap()
        });
        let got = String::from_utf8(r.into_inner()).unwrap();
        let want: String = (0..50).map(|i| format!("{i};")).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_failed_write_is_returned_and_keeps_the_order() {
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let r = OrderedReporter::new(Closed);
        r.complete(1, "b".into()).unwrap();
        let err = r.complete(0, "a".into()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(r.complete(2, "c".into()).is_err());
        r.into_inner();
    }

    #[test]
    #[should_panic(expected = "missing index")]
    fn into_inner_detects_gaps() {
        let r = OrderedReporter::new(Vec::new());
        r.complete(1, "b".into()).unwrap();
        r.into_inner();
    }
}
