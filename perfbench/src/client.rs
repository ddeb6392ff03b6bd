//! The benchmark's client: one connection, two threads.
//!
//! The caller's thread is the *sender*: it generates operations,
//! pipelines their frames onto the socket, and paces them (closed loop:
//! a window of outstanding operations; open loop: a fixed schedule). A
//! spawned *receiver* matches every reply frame to its operation by
//! `query_id`, checks it against the generator's expectation, and
//! records its timings. Completions flow back to the sender as credits.
//!
//! Frames are encoded and decoded with the server's own protocol
//! functions, so the client speaks exactly the wire format it measures.

use crate::inputs::{Dataset, Op, OpKind};
use crate::stats;
use delayguard_server::protocol::{encode_frame_into, read_frame_buffered};
use delayguard_server::Frame;
use delayguard_storage::Value;
use delayguard_workload::rng::splitmix64;
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Operations in flight are tracked in a ring of this many slots; it
/// must exceed both the closed-loop window and the open-loop in-flight
/// bound.
const RING: usize = 1 << 14;

/// Closed-loop capacity is the median over windows of this length, so a
/// stall of the box lands in few windows.
const CAPACITY_WINDOW: Duration = Duration::from_millis(250);

/// Nanoseconds since the client's time base.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// What the sender publishes about one operation before sending it.
#[derive(Default)]
struct Slot {
    /// `query_id + 1` while the operation is in flight, 0 once complete.
    /// Stored last (Release) by the sender; the receiver loads it
    /// (Acquire) before reading the other fields.
    tag: AtomicU64,
    kind_phase: AtomicU64,
    key: AtomicU64,
    version: AtomicU64,
    due: AtomicU64,
    sent: AtomicU64,
}

struct Shared {
    data: Arc<Dataset>,
    slots: Box<[Slot]>,
    clock: Clock,
    completed: AtomicU64,
    /// Operations that have received their first reply frame.
    begun: AtomicU64,
    rows: AtomicU64,
}

fn kind_code(kind: OpKind) -> u64 {
    match kind {
        OpKind::Point => 0,
        OpKind::Range => 1,
        OpKind::Write => 2,
    }
}

fn kind_of(code: u64) -> OpKind {
    match code {
        0 => OpKind::Point,
        1 => OpKind::Range,
        _ => OpKind::Write,
    }
}

/// Output checks, summed over the session.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Rows whose id or body differ from the generator's expectation,
    /// plus replies whose row count is wrong.
    pub wrong_rows: u64,
    /// `DONE` arriving sooner after the send than the charged delay.
    pub early_releases: u64,
    /// `MUTATED` not reporting exactly one row.
    pub mutated_rows: u64,
    /// `MUTATED` whose data version did not strictly increase.
    pub version_order: u64,
    /// Frames for no operation in flight, or of an unexpected type.
    pub stray_frames: u64,
    /// The connection failed before the session ended.
    pub transport_errors: u64,
    /// The first refusal or error the server sent, for the report.
    pub first_failure: Option<String>,
}

impl Checks {
    pub fn violations(&self) -> u64 {
        self.wrong_rows
            + self.early_releases
            + self.mutated_rows
            + self.version_order
            + self.stray_frames
            + self.transport_errors
    }
}

/// Per-phase outcomes recorded by the receiver.
#[derive(Debug, Default, Clone)]
pub struct PhaseOutcome {
    pub completed: u64,
    /// Refused, errored, or answered wrongly.
    pub failed: u64,
    /// Due send time to `ROWS_BEGIN`, ms (reads).
    pub begin_ms: Vec<f64>,
    /// `DONE` minus (due send time + charged delay), ms (reads).
    pub slip_ms: Vec<f64>,
    /// Due send time to `MUTATED`, ms (writes).
    pub write_ms: Vec<f64>,
    /// Charged delays of completed reads, seconds.
    pub delays: Vec<f64>,
}

/// Receiver-owned state of one in-flight operation.
#[derive(Default, Clone, Copy)]
struct Pending {
    /// A reply frame has arrived.
    begun: bool,
    begin: u64,
    rows: u32,
    seq_sum: u64,
    bad: bool,
}

/// Sender-side figures of one phase.
#[derive(Debug, Default, Clone)]
pub struct PhaseSent {
    pub attempted: u64,
    /// Of those, reads and writes.
    pub reads: u64,
    pub writes: u64,
    /// Open loop: how late the generator sent each operation, ns.
    pub lateness_ns: Vec<f64>,
    /// Open loop: operations in flight when the last one fell due, and
    /// of those, how many had no reply frame yet (the server's backlog,
    /// as opposed to replies held for their charged deadline).
    pub inflight_at_end: u64,
    pub unbegun_at_end: u64,
    /// Closed loop: completions and rows per second in each measurement
    /// window after the warm-up.
    pub window_rates: Vec<(f64, f64)>,
}

impl PhaseSent {
    /// Closed loop: the median window's operations and rows per second.
    pub fn capacity(&self) -> (f64, f64) {
        let ops: Vec<f64> = self.window_rates.iter().map(|r| r.0).collect();
        let rows: Vec<f64> = self.window_rates.iter().map(|r| r.1).collect();
        (stats::median(&ops), stats::median(&rows))
    }
}

/// One registered connection driven by a sender and a receiver thread.
pub struct Session {
    stream: TcpStream,
    user: u64,
    shared: Arc<Shared>,
    credits: Receiver<u32>,
    receiver: Option<JoinHandle<(Checks, Vec<PhaseOutcome>)>>,
    next_qid: u32,
    buf: Vec<u8>,
    /// Operations sent and not yet credited back.
    outstanding: u64,
}

impl Session {
    pub fn new(stream: TcpStream, user: u64, data: Arc<Dataset>) -> Session {
        let slots: Vec<Slot> = (0..RING).map(|_| Slot::default()).collect();
        let shared = Arc::new(Shared {
            data,
            slots: slots.into_boxed_slice(),
            clock: Clock::new(),
            completed: AtomicU64::new(0),
            begun: AtomicU64::new(0),
            rows: AtomicU64::new(0),
        });
        let (tx, rx) = mpsc::channel();
        let read_half = stream.try_clone().expect("clone client stream");
        let recv_shared = Arc::clone(&shared);
        let receiver = std::thread::Builder::new()
            .name("perfbench-receiver".into())
            .spawn(move || receive(read_half, recv_shared, tx))
            .expect("spawn receiver");
        Session {
            stream,
            user,
            shared,
            credits: rx,
            receiver: Some(receiver),
            next_qid: 0,
            buf: Vec::with_capacity(64 * 1024),
            outstanding: 0,
        }
    }

    pub fn clock(&self) -> Clock {
        self.shared.clock
    }

    /// Queue one operation's frame into the send buffer.
    fn push(&mut self, op: &Op, phase: usize, due: u64, sent: u64, out: &mut PhaseSent) {
        let qid = self.next_qid;
        self.next_qid = self.next_qid.wrapping_add(1);
        let slot = &self.shared.slots[qid as usize % RING];
        slot.kind_phase
            .store(kind_code(op.kind) | (phase as u64) << 8, Ordering::Relaxed);
        slot.key.store(op.key, Ordering::Relaxed);
        slot.version.store(op.version, Ordering::Relaxed);
        slot.due.store(due, Ordering::Relaxed);
        slot.sent.store(sent, Ordering::Relaxed);
        slot.tag.store(qid as u64 + 1, Ordering::Release);
        let sql = op.sql(&self.shared.data);
        let frame = match op.kind {
            OpKind::Write => Frame::Update {
                query_id: qid,
                user: self.user,
                sql,
            },
            _ => Frame::Query {
                query_id: qid,
                user: self.user,
                sql,
            },
        };
        encode_frame_into(&frame, &mut self.buf).expect("encode request");
        out.attempted += 1;
        if op.kind == OpKind::Write {
            out.writes += 1;
        } else {
            out.reads += 1;
        }
        self.outstanding += 1;
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.stream.write_all(&self.buf).expect("send requests");
            self.buf.clear();
        }
    }

    fn take_credits(&mut self, block: Option<Duration>) {
        if let Some(wait) = block {
            match self.credits.recv_timeout(wait) {
                Ok(n) => self.outstanding -= n as u64,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => panic!("receiver exited early"),
            }
        }
        while let Ok(n) = self.credits.try_recv() {
            self.outstanding -= n as u64;
        }
    }

    /// Closed loop: keep `window` operations outstanding for `secs`
    /// seconds; completions after the first `warm_secs` are counted.
    pub fn closed(
        &mut self,
        phase: usize,
        window: usize,
        secs: f64,
        warm_secs: f64,
        mut next: impl FnMut() -> Op,
    ) -> PhaseSent {
        let mut out = PhaseSent::default();
        let clock = self.clock();
        let start = clock.now();
        let end_at = start + (secs * 1e9) as u64;
        // Completions and rows at each measurement-window boundary, from
        // the end of the warm-up on.
        let mut marks: Vec<(u64, u64, u64)> = Vec::new();
        let mut next_mark = start + (warm_secs * 1e9) as u64;
        loop {
            let now = clock.now();
            if now >= next_mark {
                marks.push((now, self.completed(), self.rows()));
                next_mark = now + CAPACITY_WINDOW.as_nanos() as u64;
            }
            if now >= end_at {
                break;
            }
            while self.outstanding < window as u64 {
                let op = next();
                self.push(&op, phase, now, now, &mut out);
            }
            self.flush();
            self.take_credits(Some(Duration::from_millis(5)));
        }
        for w in marks.windows(2) {
            let secs = (w[1].0 - w[0].0) as f64 / 1e9;
            out.window_rates.push((
                (w[1].1 - w[0].1) as f64 / secs,
                (w[1].2 - w[0].2) as f64 / secs,
            ));
        }
        out
    }

    /// Open loop: send `count` operations at `rate` per second, each at
    /// its due time regardless of replies.
    ///
    /// Operation `i` is due at `(i + u_i) / rate` seconds into the phase,
    /// with `u_i` uniform in `[0, 1)` and seeded by `jitter_seed`: the
    /// count per interval is exact, and the schedule cannot phase-lock
    /// with the server's wheel ticks.
    pub fn open(
        &mut self,
        phase: usize,
        rate: f64,
        count: u64,
        jitter_seed: u64,
        mut next: impl FnMut() -> Op,
    ) -> PhaseSent {
        let mut out = PhaseSent::default();
        let clock = self.clock();
        let interval = 1e9 / rate;
        let start = clock.now() + 1_000_000;
        let due = |i: u64| {
            let mut s = jitter_seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let u = (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64;
            start + ((i as f64 + u) * interval) as u64
        };
        let mut i = 0u64;
        while i < count {
            let now = clock.now();
            let next_due = due(i);
            if next_due > now + 20_000 {
                std::thread::sleep(Duration::from_nanos(next_due - now - 10_000));
                continue;
            }
            let sent = clock.now();
            while i < count && due(i) <= sent {
                if i + 1 == count {
                    // The end of the phase: the last operation is due.
                    out.inflight_at_end = self.next_qid as u64 - self.completed();
                    out.unbegun_at_end =
                        self.next_qid as u64 - self.shared.begun.load(Ordering::Relaxed);
                }
                let op = next();
                let d = due(i);
                out.lateness_ns.push(sent.saturating_sub(d) as f64);
                self.push(&op, phase, d, sent, &mut out);
                i += 1;
            }
            self.flush();
            self.take_credits(None);
        }
        out
    }

    /// Closed loop over a fixed list: keep up to `window` operations
    /// outstanding until `ops` is exhausted.
    pub fn send_all(
        &mut self,
        phase: usize,
        window: usize,
        ops: &mut dyn Iterator<Item = Op>,
    ) -> PhaseSent {
        let mut out = PhaseSent::default();
        let clock = self.clock();
        let mut exhausted = false;
        while !exhausted {
            let now = clock.now();
            while self.outstanding < window as u64 {
                let Some(op) = ops.next() else {
                    exhausted = true;
                    break;
                };
                self.push(&op, phase, now, now, &mut out);
            }
            self.flush();
            self.take_credits(Some(Duration::from_millis(5)));
        }
        out
    }

    /// Wait until every operation sent has completed, up to `timeout`.
    pub fn drain(&mut self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while self.outstanding > 0 && Instant::now() < deadline {
            self.take_credits(Some(Duration::from_millis(5)));
        }
    }

    fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    fn rows(&self) -> u64 {
        self.shared.rows.load(Ordering::Relaxed)
    }

    /// Close the connection and collect the receiver's findings.
    pub fn finish(mut self) -> (Checks, Vec<PhaseOutcome>) {
        let _ = self.stream.shutdown(Shutdown::Write);
        let handle = self.receiver.take().expect("receiver running");
        handle.join().expect("receiver thread panicked")
    }
}

fn phase_mut(phases: &mut Vec<PhaseOutcome>, phase: usize) -> &mut PhaseOutcome {
    if phases.len() <= phase {
        phases.resize_with(phase + 1, PhaseOutcome::default);
    }
    &mut phases[phase]
}

/// Whether `row` is the tuple `id` carrying `version`'s body.
pub fn row_matches(data: &Dataset, values: &[Value], id: u64, version: u64) -> bool {
    match values {
        [Value::Int(got), Value::Text(body)] => {
            *got as u64 == id && data.body_matches(id, version, body)
        }
        _ => false,
    }
}

/// The receiver thread: match replies to operations and check them.
fn receive(
    stream: TcpStream,
    shared: Arc<Shared>,
    credits: Sender<u32>,
) -> (Checks, Vec<PhaseOutcome>) {
    let data = &shared.data;
    let clock = shared.clock;
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    let mut scratch = Vec::new();
    let mut pending = vec![Pending::default(); RING];
    let mut checks = Checks::default();
    let mut phases: Vec<PhaseOutcome> = Vec::new();
    let mut unsent_credits = 0u32;
    let mut last_version = 0u64;
    loop {
        if unsent_credits > 0 && reader.buffer().is_empty() {
            // About to block on the socket: hand completions back first.
            let _ = credits.send(unsent_credits);
            unsent_credits = 0;
        }
        let frame = match read_frame_buffered(&mut reader, &mut scratch) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(_) => {
                checks.transport_errors += 1;
                break;
            }
        };
        let now = clock.now();
        let qid = match &frame {
            Frame::RowsBegin { query_id, .. }
            | Frame::Row { query_id, .. }
            | Frame::RowsEnd { query_id, .. }
            | Frame::Done { query_id, .. }
            | Frame::Mutated { query_id, .. }
            | Frame::Refused { query_id, .. }
            | Frame::Error { query_id, .. } => *query_id,
            _ => {
                checks.stray_frames += 1;
                continue;
            }
        };
        let idx = qid as usize % RING;
        let slot = &shared.slots[idx];
        if slot.tag.load(Ordering::Acquire) != qid as u64 + 1 {
            checks.stray_frames += 1;
            continue;
        }
        let kind_phase = slot.kind_phase.load(Ordering::Relaxed);
        let kind = kind_of(kind_phase & 0xff);
        let phase = (kind_phase >> 8) as usize;
        let key = slot.key.load(Ordering::Relaxed);
        let version = slot.version.load(Ordering::Relaxed);
        let due = slot.due.load(Ordering::Relaxed);
        let sent = slot.sent.load(Ordering::Relaxed);
        let p = &mut pending[idx];
        if !p.begun {
            p.begun = true;
            shared.begun.fetch_add(1, Ordering::Relaxed);
        }
        let expected_rows = Op { kind, key, version }.expected_rows();
        let mut complete = false;
        match frame {
            Frame::RowsBegin { .. } if kind != OpKind::Write && p.begin == 0 => {
                p.begin = now.max(1);
            }
            Frame::Row { seq, row, .. } if kind != OpKind::Write => {
                shared.rows.fetch_add(1, Ordering::Relaxed);
                let id = match kind {
                    OpKind::Range => key + seq as u64,
                    _ => key,
                };
                if seq >= expected_rows || !row_matches(data, row.values(), id, version) {
                    p.bad = true;
                }
                p.rows += 1;
                p.seq_sum += seq as u64;
            }
            Frame::RowsEnd { rows, .. } if kind != OpKind::Write => {
                if rows != expected_rows {
                    p.bad = true;
                }
            }
            Frame::Done {
                delay_secs, tuples, ..
            } if kind != OpKind::Write => {
                complete = true;
                let n = expected_rows as u64;
                if tuples != expected_rows
                    || p.rows != expected_rows
                    || p.seq_sum != n * (n - 1) / 2
                {
                    p.bad = true;
                }
                let delay_ns = delay_secs * 1e9;
                if ((now - sent) as f64) < delay_ns {
                    checks.early_releases += 1;
                }
                let out = phase_mut(&mut phases, phase);
                if p.bad || p.begin == 0 {
                    checks.wrong_rows += 1;
                    out.failed += 1;
                } else {
                    out.begin_ms.push((p.begin - due) as f64 / 1e6);
                    out.slip_ms.push((now as f64 - due as f64 - delay_ns) / 1e6);
                    out.delays.push(delay_secs);
                }
            }
            Frame::Mutated {
                rows, data_version, ..
            } if kind == OpKind::Write => {
                complete = true;
                let out = phase_mut(&mut phases, phase);
                if rows != 1 {
                    checks.mutated_rows += 1;
                    out.failed += 1;
                } else {
                    out.write_ms.push((now - due) as f64 / 1e6);
                }
                if data_version <= last_version {
                    checks.version_order += 1;
                }
                last_version = data_version;
            }
            Frame::Refused { .. } | Frame::Error { .. } => {
                if checks.first_failure.is_none() {
                    checks.first_failure = Some(format!("{frame:?}"));
                }
                complete = true;
                phase_mut(&mut phases, phase).failed += 1;
            }
            _ => {
                checks.stray_frames += 1;
            }
        }
        if complete {
            *p = Pending::default();
            slot.tag.store(0, Ordering::Release);
            phase_mut(&mut phases, phase).completed += 1;
            shared.completed.fetch_add(1, Ordering::Relaxed);
            unsent_credits += 1;
        }
    }
    if unsent_credits > 0 {
        let _ = credits.send(unsent_credits);
    }
    (checks, phases)
}

/// Latency percentiles over every operation attempted: operations that
/// failed or never completed count as infinitely late.
pub fn percentile_with_misses(samples: &[f64], attempted: u64, q: f64) -> f64 {
    let mut all = samples.to_vec();
    let missing = (attempted as usize).saturating_sub(all.len());
    all.extend(std::iter::repeat_n(f64::INFINITY, missing));
    stats::percentile(&mut all, q)
}

/// Operations per window of [`windowed_percentile`]: enough that a p99
/// has ten samples beyond it.
pub const WINDOW_OPS: usize = 1000;

/// The `q`-quantile of each window of [`WINDOW_OPS`] consecutive
/// completions (the last window takes the remainder). A report takes the
/// median over windows: a stall of the whole box (host steal on a shared
/// VM) lands in few windows and moves it little, while anything the
/// program does in every window shows in full. With any operation
/// missing, the one "window" is the plain percentile with misses (and so
/// infinite beyond the share that completed).
pub fn window_percentiles(samples: &[f64], attempted: u64, q: f64) -> Vec<f64> {
    if samples.len() < attempted as usize || samples.len() < WINDOW_OPS {
        return vec![percentile_with_misses(samples, attempted, q)];
    }
    let windows = samples.len() / WINDOW_OPS;
    (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * WINDOW_OPS
            };
            stats::percentile(&mut samples[w * WINDOW_OPS..end].to_vec(), q)
        })
        .collect()
}
