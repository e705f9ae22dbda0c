//! Connection establishment and liveness plumbing: bounded-retry
//! connect with exponential backoff, the accept poll shared by every
//! listener in the workspace, and the worker-side heartbeat writer that
//! keeps a long round from being mistaken for a dead process.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use super::frame::{write_frame, FrameKind};

/// Connects to `addr`, retrying with exponential backoff (`base_ms`,
/// doubling per attempt) up to `attempts` tries. Bounded time by
/// construction: the worst case is `base_ms · (2^attempts − 1)` of
/// sleeping plus the OS connect timeouts.
pub fn connect_with_retry(
    addr: &str,
    attempts: u32,
    base_ms: u64,
) -> Result<TcpStream, std::io::Error> {
    let mut delay = Duration::from_millis(base_ms);
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
        if attempt + 1 < attempts.max(1) {
            std::thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("no connect attempts made")))
}

/// First pause of an [`AcceptPoll`] after a connection (or at start).
const ACCEPT_PAUSE_MIN: Duration = Duration::from_micros(50);
/// Longest pause of an [`AcceptPoll`]: an idle listener wakes at most
/// once per this period.
const ACCEPT_PAUSE_MAX: Duration = Duration::from_millis(2);

/// Paces an accept loop over a nonblocking listener. Each empty poll
/// sleeps, starting at 50 µs and doubling to a 2 ms cap; an accepted
/// connection resets the pause. A peer that is already connecting is
/// picked up within microseconds, while an idle listener still costs
/// at most one wakeup per 2 ms.
#[derive(Debug)]
pub struct AcceptPoll {
    pause: Duration,
}

impl Default for AcceptPoll {
    /// A poll starting at the shortest pause.
    fn default() -> Self {
        AcceptPoll { pause: ACCEPT_PAUSE_MIN }
    }
}

impl AcceptPoll {
    /// One accept attempt on a nonblocking `listener`: `Some(stream)`
    /// for a new connection, `None` after one [`AcceptPoll::pause`]
    /// when none is pending. Any other accept error is returned as is;
    /// the caller decides whether to pause and retry or give up.
    pub fn accept(&mut self, listener: &TcpListener) -> std::io::Result<Option<TcpStream>> {
        match listener.accept() {
            Ok((stream, _)) => {
                self.pause = ACCEPT_PAUSE_MIN;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                self.pause();
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Sleeps the current pause, then doubles it up to the cap.
    pub fn pause(&mut self) {
        std::thread::sleep(self.pause);
        self.pause = self.pause.saturating_mul(2).min(ACCEPT_PAUSE_MAX);
    }
}

/// A frame writer shared between a protocol thread and its heartbeat
/// thread: every frame or batch goes out under one lock, so heartbeats
/// can never interleave into the middle of a protocol frame.
pub struct SharedWriter<W: Write + Send> {
    inner: Arc<Mutex<W>>,
}

impl<W: Write + Send> Clone for SharedWriter<W> {
    fn clone(&self) -> Self {
        SharedWriter { inner: Arc::clone(&self.inner) }
    }
}

impl<W: Write + Send + 'static> SharedWriter<W> {
    pub fn new(w: W) -> Self {
        SharedWriter { inner: Arc::new(Mutex::new(w)) }
    }

    /// Writes one frame and flushes it, atomically w.r.t. other frames.
    pub fn send(&self, kind: FrameKind, body: &[u8]) -> std::io::Result<()> {
        // A poisoned lock means a peer thread panicked mid-write; the
        // stream may carry a torn frame, which the reader's length
        // checks surface as a typed FrameError. Propagating the write
        // is strictly more informative than poisoning-panicking here.
        let mut w = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        write_frame(&mut *w, kind, body)?;
        w.flush()
    }

    /// Writes a batch of whole frames, already encoded back to back
    /// with [`super::frame::encode_frame`], and flushes it, all under
    /// one lock: no heartbeat can land between or inside them.
    pub fn send_encoded(&self, frames: &[u8]) -> std::io::Result<()> {
        let mut w = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        w.write_all(frames)?;
        w.flush()
    }
}

/// Emits [`FrameKind::Heartbeat`] frames every `interval` until
/// stopped; write failures end the beat silently (the protocol side
/// observes the dead link itself). The beat waits on a condition
/// variable, so stopping it wakes the thread at once instead of
/// waiting out the rest of an interval.
pub struct HeartbeatHandle {
    /// The halt flag and the beat's wakeup. A lone `bool` is valid
    /// after any update, so a poisoned lock is recovered, not fatal.
    halted: Arc<(Mutex<bool>, Condvar)>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatHandle {
    /// Spawns the beat on `writer`.
    pub fn spawn<W: Write + Send + 'static>(writer: SharedWriter<W>, interval: Duration) -> Self {
        let halted = Arc::new((Mutex::new(false), Condvar::new()));
        let beat_halted = Arc::clone(&halted);
        let join = std::thread::spawn(move || {
            let (flag, wake) = &*beat_halted;
            loop {
                let guard = flag.lock().unwrap_or_else(PoisonError::into_inner);
                let (guard, _) = wake
                    .wait_timeout_while(guard, interval, |halted| !*halted)
                    .unwrap_or_else(PoisonError::into_inner);
                if *guard {
                    break;
                }
                drop(guard);
                if writer.send(FrameKind::Heartbeat, &[]).is_err() {
                    break;
                }
            }
        });
        HeartbeatHandle { halted, join: Some(join) }
    }

    /// Stops the beat and joins the thread.
    pub fn stop(mut self) {
        self.halt();
    }

    /// Raises the halt flag, wakes the beat, and joins it.
    fn halt(&mut self) {
        let (flag, wake) = &*self.halted;
        *flag.lock().unwrap_or_else(PoisonError::into_inner) = true;
        wake.notify_all();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for HeartbeatHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::frame::{encode_frame, read_frame, Deadline, FrameError};
    use std::time::Instant;

    #[test]
    fn connect_retry_fails_typed_and_bounded() {
        // A port nothing listens on: every attempt errors, the call
        // returns instead of hanging.
        let err = connect_with_retry("127.0.0.1:1", 2, 1);
        assert!(err.is_err());
    }

    #[test]
    fn heartbeat_stop_and_drop_return_without_waiting_out_the_interval() {
        let shared = SharedWriter::new(Vec::<u8>::new());
        let started = Instant::now();
        HeartbeatHandle::spawn(shared.clone(), Duration::from_secs(60)).stop();
        drop(HeartbeatHandle::spawn(shared.clone(), Duration::from_secs(60)));
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_secs(1), "halt waited out the beat: {elapsed:?}");
        // Neither beat fired: the halt won the wait.
        assert!(shared.inner.lock().unwrap().is_empty());
    }

    #[test]
    fn accept_poll_backs_off_to_the_cap_and_resets_on_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poll = AcceptPoll::default();
        for _ in 0..8 {
            assert!(poll.accept(&listener).unwrap().is_none());
        }
        assert_eq!(poll.pause, ACCEPT_PAUSE_MAX);
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let deadline = Deadline::after_ms(5_000);
        while poll.accept(&listener).unwrap().is_none() {
            assert!(!deadline.expired(), "pending connection never accepted");
        }
        assert_eq!(poll.pause, ACCEPT_PAUSE_MIN);
    }

    #[test]
    fn heartbeats_never_split_protocol_frames() {
        let buf: Vec<u8> = Vec::new();
        let shared = SharedWriter::new(buf);
        let hb = HeartbeatHandle::spawn(shared.clone(), Duration::from_micros(200));
        let mut batch = Vec::new();
        for i in 0..50u32 {
            shared.send(FrameKind::Go, &i.to_le_bytes()).unwrap();
            // A round's worth of Msg frames and its Done, one write.
            batch.clear();
            for m in 0..i % 4 {
                encode_frame(&mut batch, FrameKind::Msg, &[m as u8; 13]);
            }
            encode_frame(&mut batch, FrameKind::Done, &i.to_le_bytes());
            shared.send_encoded(&batch).unwrap();
        }
        hb.stop();
        let wire = shared.inner.lock().unwrap().clone();
        // Every frame parses cleanly — no interleaving corrupted one —
        // and each batch arrives contiguous: no heartbeat between a
        // round's first Msg and its Done.
        let d = Deadline::after_ms(200);
        let mut r = &wire[..];
        let (mut gos, mut msgs, mut dones) = (0, 0, 0);
        let mut in_batch = false;
        loop {
            match read_frame(&mut r, &d) {
                Ok(f) => match f.kind {
                    FrameKind::Go => gos += 1,
                    FrameKind::Msg => {
                        assert_eq!(f.body.len(), 13);
                        msgs += 1;
                        in_batch = true;
                    }
                    FrameKind::Done => {
                        dones += 1;
                        in_batch = false;
                    }
                    FrameKind::Heartbeat => assert!(!in_batch, "heartbeat inside a batch"),
                    other => panic!("unexpected frame {other:?}"),
                },
                Err(FrameError::Truncated) if r.is_empty() => break,
                Err(e) => panic!("corrupted stream: {e:?}"),
            }
        }
        assert_eq!((gos, dones), (50, 50));
        assert_eq!(msgs, (0..50u32).map(|i| i % 4).sum::<u32>());
    }
}
