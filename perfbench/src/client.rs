//! The load generator: one thread per connection, speaking the wire
//! protocol over loopback TCP.
//!
//! A connection may carry many premises. ACKs come back in send order
//! (one reader per connection on the server) and DECISIONs in per-
//! premises FIFO order, so every frame is matched to the record that
//! caused it. A DECISION may overtake its own ACK (the router and the
//! reader share the socket), which is why a record waits for its
//! decision from the moment it is sent.

use std::collections::{HashMap, VecDeque};
use std::ffi::c_void;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use gem_core::fnv1a64;
use gem_service::wire::{self, Frame, WireShedReason, WireVerdict};

use crate::spans::SpanLog;

/// One pre-encoded record of a workload.
pub struct Rec {
    pub premises: u64,
    /// The complete RECORD frame (header + payload).
    pub frame: Vec<u8>,
    /// Ground truth: collected inside the premises.
    pub truth_in: bool,
}

/// What the server said about one record.
#[derive(Clone, Copy, Debug)]
pub struct Dec {
    pub at: Instant,
    pub inside: bool,
    pub score: f64,
    /// Server-side admission → decision seconds.
    pub latency_s: f64,
}

/// The client's book on one sent record.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub rec: usize,
    /// When the record was due (open loop) or started sending.
    pub due: Instant,
    pub sent: Instant,
    pub ack: Option<Instant>,
    pub decision: Option<Dec>,
}

impl Outcome {
    /// Client-observed RECORD → DECISION latency, from the due time.
    pub fn latency_ns(&self) -> Option<f64> {
        self.decision.map(|d| d.at.duration_since(self.due).as_nanos() as f64)
    }
}

/// How records are paced.
#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// Send as soon as the window allows.
    Closed,
    /// Record `i` of the plan is due at `start + i / rate`.
    Open { start: Instant, rate_per_s: f64 },
}

/// Incremental frame parser over a byte stream.
struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    fn new() -> FrameReader {
        FrameReader { buf: Vec::with_capacity(1 << 16), start: 0 }
    }

    /// The next complete frame in the buffer, if any.
    fn next(&mut self) -> Result<Option<Frame>, String> {
        let avail = &self.buf[self.start..];
        if avail.len() < wire::HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[0..4].try_into().expect("4 bytes")) as usize;
        if len == 0 || len > wire::MAX_FRAME_LEN as usize {
            return Err(format!("server frame declares {len} payload bytes"));
        }
        if avail.len() < wire::HEADER_LEN + len {
            return Ok(None);
        }
        let expected = u64::from_le_bytes(avail[4..12].try_into().expect("8 bytes"));
        let payload = &avail[wire::HEADER_LEN..wire::HEADER_LEN + len];
        if fnv1a64(payload) != expected {
            return Err("server frame checksum mismatch".into());
        }
        let frame = wire::decode_payload(payload).map_err(|e| e.to_string())?;
        self.start += wire::HEADER_LEN + len;
        Ok(Some(frame))
    }

    /// Reads whatever the socket has. `Ok(false)` on a read timeout.
    fn fill(&mut self, stream: &mut TcpStream) -> Result<bool, String> {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let old = self.buf.len();
        self.buf.resize(old + (1 << 16), 0);
        let res = stream.read(&mut self.buf[old..]);
        match res {
            Ok(0) => {
                self.buf.truncate(old);
                Err("server closed the connection".into())
            }
            Ok(n) => {
                self.buf.truncate(old + n);
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                self.buf.truncate(old);
                Ok(false)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {
                self.buf.truncate(old);
                Ok(true)
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(format!("reading from server: {e}"))
            }
        }
    }
}

/// Counts of one connection's frames.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    pub sent: u64,
    pub acks: u64,
    pub admitted: u64,
    pub shed: u64,
    pub busy: u64,
    pub decisions: u64,
    pub alerts: u64,
}

impl Ledger {
    pub fn add(&mut self, o: &Ledger) {
        self.sent += o.sent;
        self.acks += o.acks;
        self.admitted += o.admitted;
        self.shed += o.shed;
        self.busy += o.busy;
        self.decisions += o.decisions;
        self.alerts += o.alerts;
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const c_void) -> i32;
}

/// Waits until `stream` has bytes to read or `timeout` passes, with the
/// nanosecond timer of `ppoll(2)` (64-bit Linux). True when readable.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> Result<bool, String> {
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `fd` and `ts` are live for the whole call and laid out as
    // the C `struct pollfd` and `struct timespec` of 64-bit Linux; `nfds`
    // is 1, matching the single entry; a null sigmask leaves the signal
    // mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(format!("ppoll: {e}"))
        };
    }
    Ok(n > 0)
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// The credit window the server granted in HELLO.
    pub credits: usize,
    pub ledger: Ledger,
}

const BLOCKING_READ: Duration = Duration::from_secs(30);

impl Conn {
    /// Connects and waits for the server's HELLO.
    pub fn connect(addr: std::net::SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_write_timeout(Some(BLOCKING_READ)).map_err(|e| e.to_string())?;
        let mut conn =
            Conn { stream, reader: FrameReader::new(), credits: 0, ledger: Ledger::default() };
        conn.stream.set_read_timeout(Some(BLOCKING_READ)).map_err(|e| e.to_string())?;
        loop {
            if let Some(frame) = conn.reader.next()? {
                match frame {
                    Frame::Hello { version, credits } if version == wire::WIRE_VERSION => {
                        conn.credits = credits.max(1) as usize;
                        return Ok(conn);
                    }
                    other => return Err(format!("expected HELLO, got {other:?}")),
                }
            }
            if !conn.reader.fill(&mut conn.stream)? {
                return Err("timed out waiting for HELLO".into());
            }
        }
    }

    /// Streams `plan` (indices into `recs`) with at most `window`
    /// records unresolved. New records stop being sent once `deadline`
    /// passes; every record sent is seen through to its ACK and, when
    /// admitted, its DECISION. With `spans`, each record gets
    /// `client.send`, `client.ack`, `client.decision` and (due time to
    /// DECISION) `client.record` spans, joined by the record's trace id.
    pub fn run(
        &mut self,
        plan: &[usize],
        recs: &[Rec],
        window: usize,
        pacing: Pacing,
        deadline: Option<Instant>,
        mut spans: Option<&mut SpanLog>,
    ) -> Result<Vec<Outcome>, String> {
        let window = window.min(self.credits).max(1);
        if let Some(log) = spans.as_deref_mut() {
            log.reserve(4 * plan.len());
        }
        let mut out: Vec<Outcome> = Vec::with_capacity(plan.len());
        let mut awaiting_ack: VecDeque<usize> = VecDeque::new();
        let mut awaiting_dec: HashMap<u64, VecDeque<usize>> = HashMap::new();
        let mut unresolved = 0usize;
        let mut next = 0usize;
        let mut stopped = false;
        loop {
            if !stopped && (next == plan.len() || deadline.is_some_and(|d| Instant::now() >= d)) {
                stopped = true;
            }
            // A DECISION can overtake its ACK: done only once both are in.
            if stopped && unresolved == 0 && awaiting_ack.is_empty() {
                break;
            }
            if !stopped && unresolved < window {
                let now = Instant::now();
                let due = match pacing {
                    Pacing::Closed => now,
                    Pacing::Open { start, rate_per_s } => {
                        start + Duration::from_secs_f64(next as f64 / rate_per_s)
                    }
                };
                if due > now {
                    // Wait for a reply or the due time, whichever comes
                    // first. Socket read timeouts are jiffy-granular and
                    // would make the generator milliseconds late.
                    if unresolved > 0 {
                        if wait_readable(&self.stream, due - now)? {
                            self.pump(
                                &mut out,
                                &mut awaiting_ack,
                                &mut awaiting_dec,
                                &mut unresolved,
                                &mut spans,
                            )?;
                        }
                    } else {
                        std::thread::sleep(due - now);
                    }
                    continue;
                }
                let rec = &recs[plan[next]];
                let sent = Instant::now();
                self.stream
                    .write_all(&rec.frame)
                    .map_err(|e| format!("sending record {next}: {e}"))?;
                if let Some(log) = spans.as_deref_mut() {
                    let trace = plan[next] as u64 + 1;
                    log.record("client.send", trace, sent, Instant::now());
                }
                self.ledger.sent += 1;
                let slot = out.len();
                out.push(Outcome { rec: plan[next], due, sent, ack: None, decision: None });
                awaiting_ack.push_back(slot);
                awaiting_dec.entry(rec.premises).or_default().push_back(slot);
                unresolved += 1;
                next += 1;
                continue;
            }
            if !self.pump(
                &mut out,
                &mut awaiting_ack,
                &mut awaiting_dec,
                &mut unresolved,
                &mut spans,
            )? {
                return Err(format!(
                    "no reply from the server in {BLOCKING_READ:?} with {unresolved} records unresolved"
                ));
            }
        }
        if let Some(log) = spans {
            for o in &out {
                let trace = o.rec as u64 + 1;
                if let Some(d) = o.decision {
                    log.record("client.record", trace, o.due, d.at);
                }
            }
        }
        Ok(out)
    }

    /// Reads once (blocking up to the read timeout) and applies every
    /// complete frame. `Ok(false)` when the read timed out.
    fn pump(
        &mut self,
        out: &mut [Outcome],
        awaiting_ack: &mut VecDeque<usize>,
        awaiting_dec: &mut HashMap<u64, VecDeque<usize>>,
        unresolved: &mut usize,
        spans: &mut Option<&mut SpanLog>,
    ) -> Result<bool, String> {
        if !self.reader.fill(&mut self.stream)? {
            return Ok(false);
        }
        let now = Instant::now();
        while let Some(frame) = self.reader.next()? {
            match frame {
                Frame::Ack { premises_id, verdict } => {
                    let slot = awaiting_ack.pop_front().ok_or_else(|| {
                        format!("ACK for premises {premises_id} with nothing sent")
                    })?;
                    let o = &mut out[slot];
                    o.ack = Some(now);
                    self.ledger.acks += 1;
                    if let Some(log) = spans.as_deref_mut() {
                        log.record("client.ack", o.rec as u64 + 1, o.sent, now);
                    }
                    match verdict {
                        WireVerdict::Accept | WireVerdict::Queued { .. } => {
                            self.ledger.admitted += 1
                        }
                        WireVerdict::Shed(reason) => {
                            if reason == WireShedReason::Busy {
                                self.ledger.busy += 1;
                            } else {
                                self.ledger.shed += 1;
                            }
                            *unresolved -= 1;
                            if let Some(q) = awaiting_dec.get_mut(&premises_id) {
                                q.retain(|&s| s != slot);
                            }
                        }
                    }
                }
                Frame::Decision { premises_id, inside, score, latency_s, .. } => {
                    let slot = awaiting_dec
                        .get_mut(&premises_id)
                        .and_then(VecDeque::pop_front)
                        .ok_or_else(|| format!("DECISION for premises {premises_id} never sent"))?;
                    let o = &mut out[slot];
                    o.decision = Some(Dec { at: now, inside, score, latency_s });
                    self.ledger.decisions += 1;
                    *unresolved -= 1;
                    if let Some(log) = spans.as_deref_mut() {
                        log.record("client.decision", o.rec as u64 + 1, o.sent, now);
                    }
                }
                Frame::Alert { .. } => self.ledger.alerts += 1,
                other => return Err(format!("unexpected server frame {other:?}")),
            }
        }
        Ok(true)
    }
}
