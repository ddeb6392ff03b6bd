//! The traced run (`--trace 1`): the per-layer cost table.
//!
//! Three parts, all on the workload's own generated inputs:
//!
//! 1. A closed-loop slice through the real server (half the run), for
//!    the capacity the transport figures are derived from and the
//!    process counters sampled at its boundaries.
//! 2. A replay on a twin database behind an in-process [`FrontDoor`]
//!    (in-memory [`FrameSink`], [`DelayScheduler::manual`] polled after
//!    every operation): everything the server does except sockets and
//!    threads. Batches rotate through three modes: the real
//!    `FrontDoor::handle_query`/`handle_mutation` (`server.gate_us`), and
//!    the same pipeline recomposed here from each layer's public
//!    functions, once traced and once untraced. The traced spans give
//!    the self-time table; traced minus untraced is the tracing overhead.
//! 3. Focused loops on the same inputs: pricing under both policies on
//!    the same tuples, the paper's Table 5 (guarded against the base
//!    engine), and the frame codec.

use crate::alloc_count;
use crate::client::{row_matches, Session};
use crate::inputs::{Dataset, Op, OpGen, OpKind, Workload, CAP};
use crate::procstat::ProcSample;
use crate::report::{Metric, Outcome};
use crate::setup::{
    guard_config, seeded_db, wide_open_gatekeeper, Deployment, Pricing, CHUNK_ROWS, TICK,
};
use crate::spans::{self_times, Recorder, NONE};
use crate::stats;
use delayguard_core::clock::secs_to_nanos;
use delayguard_core::gatekeeper::{Admission, UserId};
use delayguard_core::SnapshotPolicy;
use delayguard_core::{ChargedChunk, GuardedDatabase, StreamedQuery};
use delayguard_query::engine::StatementOutput;
use delayguard_query::{parse, RowBuf};
use delayguard_server::protocol::{encode_frame_into, read_frame_buffered};
use delayguard_server::scheduler::Job;
use delayguard_server::{
    DelayScheduler, Frame, FrameSink, FrontDoor, GateConfig, MutationVerb, ServerMetrics,
    SessionState, PROTOCOL_VERSION,
};
use delayguard_sim::Registry;
use delayguard_storage::{copymeter, Row, RowId};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Operations per replay batch; batches rotate through the modes.
const BATCH: usize = 16;
/// Upper bound on replayed operations (bounds the span log).
const MAX_REPLAY_OPS: u64 = 60_000;
/// The server's refresher runs this often; the replay refreshes its
/// twin on the same cadence.
const REFRESH_EVERY: Duration = Duration::from_millis(20);
/// The self times of the recomposed layers describe the gate when they
/// sum to within this share of `server.gate_us`.
const SELF_SUM_TOLERANCE: f64 = 0.10;

/// The in-memory transport: frames pile up until the replay drains them.
#[derive(Default)]
struct MemSink {
    frames: Mutex<Vec<Frame>>,
}

impl MemSink {
    fn take(&self) -> Vec<Frame> {
        std::mem::take(&mut *self.frames.lock().expect("sink lock"))
    }
}

impl FrameSink for MemSink {
    fn push_control(&self, frame: Frame) {
        self.frames.lock().expect("sink lock").push(frame);
    }

    fn push_row(&self, frame: Frame) {
        self.frames.lock().expect("sink lock").push(frame);
    }

    fn push_rows(&self, frames: &mut Vec<Frame>) {
        self.frames.lock().expect("sink lock").append(frames);
    }

    fn try_reserve_rows(&self, _n: usize) -> bool {
        true
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Gate,
    Traced,
    Untraced,
}

/// Checks every reply frame of the replay against the generator.
#[derive(Default)]
struct ReplayCheck {
    /// Operations awaiting their last frame: rows seen and their `seq` sum.
    pending: HashMap<u32, (Op, u32, u64)>,
    wrong: u64,
    failed: u64,
    last_version: u64,
}

impl ReplayCheck {
    fn expect(&mut self, qid: u32, op: Op) {
        self.pending.insert(qid, (op, 0, 0));
    }

    fn frame(&mut self, data: &Dataset, frame: &Frame) {
        let qid = match frame {
            Frame::RowsBegin { query_id, .. }
            | Frame::Row { query_id, .. }
            | Frame::RowsEnd { query_id, .. }
            | Frame::Done { query_id, .. }
            | Frame::Mutated { query_id, .. }
            | Frame::Refused { query_id, .. }
            | Frame::Error { query_id, .. } => *query_id,
            _ => return,
        };
        let Some(entry) = self.pending.get_mut(&qid) else {
            self.wrong += 1;
            return;
        };
        let (op, rows, seq_sum) = entry;
        let n = op.expected_rows();
        let mut finished = true;
        match frame {
            Frame::RowsBegin { .. } => finished = false,
            Frame::Row { seq, row, .. } => {
                finished = false;
                let id = if op.kind == OpKind::Range {
                    op.key + *seq as u64
                } else {
                    op.key
                };
                if *seq >= n || !row_matches(data, row.values(), id, op.version) {
                    self.wrong += 1;
                }
                *rows += 1;
                *seq_sum += *seq as u64;
            }
            Frame::RowsEnd { rows: count, .. } => {
                finished = false;
                if *count != n {
                    self.wrong += 1;
                }
            }
            Frame::Done { tuples, .. } => {
                let n = n as u64;
                if *tuples as u64 != n || *rows as u64 != n || *seq_sum != n * (n - 1) / 2 {
                    self.wrong += 1;
                }
            }
            Frame::Mutated {
                rows, data_version, ..
            } => {
                if *rows != 1 || *data_version <= self.last_version {
                    self.wrong += 1;
                }
                self.last_version = *data_version;
            }
            _ => self.failed += 1,
        }
        if finished {
            self.pending.remove(&qid);
        }
    }
}

/// Per-mode totals of the replay.
#[derive(Default, Clone, Copy)]
struct ModeTotals {
    ns: u64,
    ops: u64,
    rows: u64,
}

/// One batch of each mode, back to back. Comparisons between modes are
/// made within a round and summarized by their median over rounds, so a
/// burst of interference on the box lands in few rounds and moves no
/// median.
#[derive(Default, Clone, Copy)]
struct Round {
    /// Per-operation wall time of each mode's batch, ns.
    ns: [f64; 3],
    /// Per-operation summed duration of the traced batch's layer spans.
    layer_ns: f64,
}

struct Twin {
    front: FrontDoor,
    sink: Arc<MemSink>,
    session: SessionState,
    user: u64,
    /// Charged tuples, and those priced below the cap (recomposed modes).
    priced: u64,
    below_cap: u64,
}

impl Twin {
    fn new(db: Arc<GuardedDatabase>) -> Twin {
        let registry = Registry::new();
        let metrics = ServerMetrics::new(&registry);
        let clock = db.clock();
        let scheduler = DelayScheduler::manual(TICK, metrics.clone(), Arc::clone(&clock));
        let front = FrontDoor::new(
            GateConfig {
                gatekeeper: wide_open_gatekeeper(),
                stream_chunk_rows: CHUNK_ROWS,
                ..GateConfig::default()
            },
            db,
            scheduler,
            clock,
            metrics,
            registry,
        );
        let sink = Arc::new(MemSink::default());
        let session = SessionState::new();
        front.handle_frame(
            Frame::Register {
                claimed_ip: [0; 4],
                version: PROTOCOL_VERSION,
            },
            [127, 0, 0, 1],
            &session,
            &sink,
        );
        let user = match sink.take().as_slice() {
            [Frame::Registered { user, .. }] => *user,
            other => panic!("twin registration failed: {other:?}"),
        };
        Twin {
            front,
            sink,
            session,
            user,
            priced: 0,
            below_cap: 0,
        }
    }

    /// The real front door, then one wheel poll.
    fn gate(&self, qid: u32, op: &Op, sql: &str) {
        self.handle(qid, op, sql);
        self.front.scheduler().poll();
    }

    /// The real front door alone.
    fn handle(&self, qid: u32, op: &Op, sql: &str) {
        match op.kind {
            OpKind::Write => self.front.handle_mutation(
                MutationVerb::Update,
                qid,
                self.user,
                sql,
                &self.session,
                &self.sink,
            ),
            _ => self
                .front
                .handle_query(qid, self.user, sql, &self.session, &self.sink),
        }
    }

    /// The same pipeline recomposed from each layer's public functions,
    /// with a span around every call. Returns the rows it streamed.
    fn recomposed(&mut self, rec: &mut Recorder, qid: u32, op: &Op, sql: &str) -> u64 {
        let Twin {
            front,
            sink,
            user,
            priced,
            below_cap,
            ..
        } = self;
        let root = rec.begin("op", NONE, qid);
        let mut cur = rec.switch(NONE, "core.admit", root, qid);
        let now = front.now_secs();
        let admission = front.gatekeeper().lock().admit(UserId(*user), now);
        assert!(
            matches!(admission, Admission::Granted),
            "wide-open gatekeeper refused"
        );
        cur = rec.switch(cur, "query.parse", root, qid);
        let stmt = parse(sql).expect("generated SQL parses");
        let db = front.db();
        let scheduler = front.scheduler();
        let mut rows = 0u64;
        if op.kind == OpKind::Write {
            cur = rec.switch(cur, "core.mutate", root, qid);
            let applied = db
                .execute_stmt_streaming(&stmt, |q| match q {
                    StreamedQuery::Finished(resp) => {
                        let n = match &resp.output {
                            StatementOutput::Updated { rids } => rids.len() as u32,
                            _ => 0,
                        };
                        Some((n, resp.deadline_nanos()))
                    }
                    StreamedQuery::Rows(_) => None,
                })
                .expect("generated UPDATE applies");
            cur = rec.switch(cur, "server.schedule", root, qid);
            let (n, deadline) = applied.expect("UPDATE finishes without a row stream");
            let data_version = db.table_data_version("t").unwrap_or(0);
            let reply = Arc::clone(sink);
            scheduler.schedule(
                deadline,
                Box::new(move || {
                    reply.push_row(Frame::Mutated {
                        query_id: qid,
                        rows: n,
                        data_version,
                    })
                }),
            );
        } else {
            cur = rec.switch(cur, "query.open", root, qid);
            db.execute_stmt_streaming(&stmt, |q| {
                cur = rec.switch(cur, "query.exec", root, qid);
                let StreamedQuery::Rows(mut stream) = q else {
                    panic!("SELECT opened no row stream");
                };
                let mut seq = 0u32;
                // Per-statement scratch, as the front door allocates it.
                let mut buf = RowBuf::new();
                let mut charged = ChargedChunk::default();
                loop {
                    let n = stream
                        .next_chunk_into(CHUNK_ROWS, &mut buf)
                        .expect("executor chunk");
                    if n == 0 {
                        break;
                    }
                    sink.try_reserve_rows(n);
                    cur = rec.switch(cur, "core.price", root, qid);
                    stream.charge_into(buf.rows(), &mut charged);
                    cur = rec.switch(cur, "server.schedule", root, qid);
                    *priced += n as u64;
                    *below_cap += charged.delays.iter().filter(|&&d| d < CAP).count() as u64;
                    if seq == 0 {
                        sink.push_control(Frame::RowsBegin {
                            query_id: qid,
                            columns: stream.columns().to_vec(),
                            rows: delayguard_server::ROWS_UNKNOWN,
                        });
                    }
                    rows += n as u64;
                    seq = schedule_rows(
                        scheduler,
                        sink,
                        qid,
                        seq,
                        stream.issued_at_nanos(),
                        buf.rows(),
                        &charged.offsets,
                    );
                    cur = rec.switch(cur, "query.exec", root, qid);
                }
                cur = rec.switch(cur, "server.schedule", root, qid);
                let (delay_secs, done_at) = (stream.delay_secs(), stream.deadline_nanos());
                let end_sink = Arc::clone(sink);
                scheduler.schedule(
                    done_at,
                    Box::new(move || {
                        end_sink.push_control(Frame::RowsEnd {
                            query_id: qid,
                            rows: seq,
                        })
                    }),
                );
                let done_sink = Arc::clone(sink);
                scheduler.schedule(
                    done_at,
                    Box::new(move || {
                        done_sink.push_control(Frame::Done {
                            query_id: qid,
                            delay_secs,
                            tuples: seq,
                        })
                    }),
                );
                // What runs between the callback's return and the call's:
                // releasing the table. The opportunistic refresh there
                // never fires on a twin (see `run`).
                cur = rec.switch(cur, "core.release", root, qid);
            })
            .expect("generated SELECT runs");
        }
        cur = rec.switch(cur, "server.wheel_poll", root, qid);
        scheduler.poll();
        rec.end(cur);
        rec.end(root);
        rows
    }
}

/// Same-tick row coalescing onto the wheel, as the front door files a
/// chunk: one job per run of rows whose deadlines share a tick.
fn schedule_rows(
    scheduler: &DelayScheduler,
    sink: &Arc<MemSink>,
    query_id: u32,
    mut seq: u32,
    issued_at_nanos: u64,
    rows: &[(RowId, Row)],
    offsets: &[f64],
) -> u32 {
    let tick = scheduler.tick_nanos();
    let mut jobs: Vec<(u64, Job)> = Vec::new();
    let mut batch: Vec<Frame> = Vec::new();
    let mut batch_deadline = 0u64;
    let flush = |batch: &mut Vec<Frame>, deadline: u64, jobs: &mut Vec<(u64, Job)>| {
        if !batch.is_empty() {
            let job_sink = Arc::clone(sink);
            let mut frames = std::mem::take(batch);
            jobs.push((deadline, Box::new(move || job_sink.push_rows(&mut frames))));
        }
    };
    for ((_, row), &offset) in rows.iter().zip(offsets) {
        let deadline = issued_at_nanos.saturating_add(secs_to_nanos(offset));
        if !batch.is_empty() && deadline.div_ceil(tick) != batch_deadline.div_ceil(tick) {
            flush(&mut batch, batch_deadline, &mut jobs);
        }
        if batch.is_empty() {
            batch_deadline = deadline;
        }
        batch.push(Frame::Row {
            query_id,
            seq,
            row: row.clone(),
        });
        seq += 1;
    }
    flush(&mut batch, batch_deadline, &mut jobs);
    scheduler.schedule_batch(jobs);
    seq
}

/// The cost of one `Instant` pair, subtracted from per-call timings of
/// sub-microsecond work.
fn timer_floor_ns() -> f64 {
    let mut v: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            black_box(());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::percentile(&mut v, 0.5)
}

/// Per-row `charge_into` cost under `db`'s policy for each read in `ops`.
fn price_loop(db: &GuardedDatabase, sql: &str, floor_ns: f64, acc: &mut (f64, u64)) {
    let stmt = parse(sql).expect("generated SQL parses");
    let mut buf = RowBuf::new();
    let mut charged = ChargedChunk::default();
    db.execute_stmt_streaming(&stmt, |q| {
        if let StreamedQuery::Rows(mut stream) = q {
            loop {
                let n = stream.next_chunk_into(CHUNK_ROWS, &mut buf).expect("chunk");
                if n == 0 {
                    break;
                }
                let t = Instant::now();
                stream.charge_into(buf.rows(), &mut charged);
                acc.0 += (t.elapsed().as_nanos() as f64 - floor_ns).max(0.0);
                acc.1 += n as u64;
            }
        }
    })
    .expect("generated SELECT runs");
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let data = Arc::new(Dataset::new(seed));
    let pricing = Pricing::of(workload);
    let mut failures: Vec<&'static str> = Vec::new();

    // ---- 1. closed-loop slice through the real server -------------------
    let dep = Deployment::start(&data, workload);
    let mut client = Session::new(
        dep.stream.try_clone().expect("clone stream"),
        dep.user,
        Arc::clone(&data),
    );
    let mut gen = OpGen::new(seed);
    let before = ProcSample::now();
    let closed = client.closed(0, workload.window(), 0.5 * seconds, 0.1 * seconds, || {
        gen.next(workload, &data)
    });
    client.drain(Duration::from_secs_f64(CAP + 5.0));
    let counters = ProcSample::now().since(&before);
    let (checks, _) = client.finish();
    dep.stop();
    if checks.violations() > 0 {
        failures.push("closed-loop output checks failed");
    }
    let (qps, _) = closed.capacity();
    let per_op = |v: u64| v as f64 / closed.attempted.max(1) as f64;

    // ---- 2. replay on twins ---------------------------------------------
    // The twins refresh only when the replay refreshes them, on the
    // server refresher's cadence and timed as `core.refresh_us`. With the
    // default staleness bounds a whole snapshot rebuild would land inside
    // whichever operation tripped it, lumping tens of milliseconds into
    // one mode's batch. So `server.gate_us` leaves out the inline
    // rebuilds the real server's query threads pay under the default
    // policy; each rebuild's cost is `core.refresh_us`.
    let twin_config =
        |p: Pricing| guard_config(p).with_snapshot_policy(SnapshotPolicy::new(usize::MAX, 1e9));
    let main_db = seeded_db(&data, twin_config(pricing));
    let alt_db = seeded_db(&data, twin_config(pricing.other()));
    let mut twin = Twin::new(Arc::clone(&main_db));
    let base = Instant::now();
    let mut rec = Recorder::new(base);
    let mut check = ReplayCheck::default();
    let mut gen = OpGen::new(seed);
    let mut totals = [ModeTotals::default(); 3];
    // Allocations and copied bytes on this thread during gate batches.
    let (mut gate_allocs, mut gate_copied) = (0u64, 0u64);
    let (mut encode_ns, mut encoded) = (0u64, 0u64);
    let mut enc_buf: Vec<u8> = Vec::new();
    let (mut refresh_ns, mut refreshes, mut refresh_events) = (0u64, 0u64, 0u64);
    let mut last_refresh = Instant::now();
    let mut modes = [Mode::Gate, Mode::Traced, Mode::Untraced];
    let mut order = delayguard_workload::Rng::new(seed ^ 0x6d6f_6465);
    let replay_until = Instant::now() + Duration::from_secs_f64(0.35 * seconds);
    let mut qid = 0u32;
    let mut batch_no = 0usize;
    let mut drain_sink =
        |twin: &Twin, check: &mut ReplayCheck, encode_ns: &mut u64, encoded: &mut u64| {
            let frames = twin.sink.take();
            let t = Instant::now();
            for f in &frames {
                encode_frame_into(f, &mut enc_buf).expect("encode reply");
                if enc_buf.len() > 1 << 20 {
                    enc_buf.clear();
                }
            }
            *encode_ns += t.elapsed().as_nanos() as u64;
            *encoded += frames.len() as u64;
            enc_buf.clear();
            for f in &frames {
                check.frame(&data, f);
            }
        };
    let mut round = Round::default();
    let mut rounds: Vec<Round> = Vec::new();
    // Room for every span the traced batches can record, so the log never
    // reallocates mid-replay.
    rec.reserve(MAX_REPLAY_OPS as usize / 3 * 16);
    while Instant::now() < replay_until && (qid as u64) < MAX_REPLAY_OPS {
        // A seeded shuffle of the modes in each round of three batches,
        // so work outside the timed batches (refreshes, sink drains)
        // precedes each mode equally often.
        if batch_no.is_multiple_of(3) {
            for i in (1..3).rev() {
                modes.swap(i, order.below(i as u64 + 1) as usize);
            }
        }
        let mode = modes[batch_no % 3];
        batch_no += 1;
        let ops: Vec<(u32, Op, String)> = (0..BATCH)
            .map(|_| {
                let op = gen.next(workload, &data);
                qid += 1;
                check.expect(qid, op);
                (qid, op, op.sql(&data))
            })
            .collect();
        let totals = &mut totals[mode as usize];
        let allocs = alloc_count::count();
        let copied = copymeter::read();
        rec.set_enabled(mode == Mode::Traced);
        let first_span = rec.spans().len();
        let t = Instant::now();
        for (q, op, sql) in &ops {
            match mode {
                Mode::Gate => {
                    twin.gate(*q, op, sql);
                    totals.rows += op.expected_rows() as u64;
                }
                _ => totals.rows += twin.recomposed(&mut rec, *q, op, sql),
            }
        }
        let batch_ns = t.elapsed().as_nanos() as u64;
        totals.ns += batch_ns;
        totals.ops += ops.len() as u64;
        rec.set_enabled(false);
        round.ns[mode as usize] = batch_ns as f64 / ops.len() as f64;
        if mode == Mode::Traced {
            // The layers are the children of the `op` roots and tile them.
            let layer_ns: u64 = rec.spans()[first_span..]
                .iter()
                .filter(|s| s.parent != NONE)
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            round.layer_ns = layer_ns as f64 / ops.len() as f64;
        }
        if batch_no.is_multiple_of(3) {
            rounds.push(round);
        }
        if mode == Mode::Gate {
            gate_allocs += alloc_count::count() - allocs;
            gate_copied += copymeter::read() - copied;
        }
        drain_sink(&twin, &mut check, &mut encode_ns, &mut encoded);
        if last_refresh.elapsed() >= REFRESH_EVERY {
            let before = main_db.snapshot_stats().events_applied;
            let t = Instant::now();
            main_db.refresh();
            refresh_ns += t.elapsed().as_nanos() as u64;
            refresh_events += main_db.snapshot_stats().events_applied - before;
            refreshes += 1;
            last_refresh = Instant::now();
        }
    }
    let main_spans = rec.spans().len();

    // Wheel jobs one query files, read from `pending()` around the real
    // front door (outside the timed batches: `pending()` takes the lock).
    let scheduler = Arc::clone(twin.front.scheduler());
    let (mut wheel_jobs, mut wheel_queries) = (0u64, 0u64);
    while wheel_queries < 256 {
        // Reads only, continuing the replay's generator so expected
        // bodies follow every write replayed so far.
        let op = match workload {
            Workload::RangeScan => gen.next(workload, &data),
            _ => gen.point(&data),
        };
        qid += 1;
        check.expect(qid, op);
        let before = scheduler.pending();
        twin.handle(qid, &op, &op.sql(&data));
        wheel_jobs += scheduler.pending().saturating_sub(before) as u64;
        wheel_queries += 1;
    }

    // Probe writes for the read-only workloads, traced after everything
    // else so `core.mutate_us` is measured on every workload.
    let probe_ops = if workload.writes() {
        0
    } else {
        8 * BATCH as u32
    };
    rec.set_enabled(true);
    for _ in 0..probe_ops {
        let op = gen.write(&data);
        qid += 1;
        check.expect(qid, op);
        twin.recomposed(&mut rec, qid, &op, &op.sql(&data));
    }
    rec.set_enabled(false);
    scheduler.drain();
    drain_sink(&twin, &mut check, &mut encode_ns, &mut encoded);
    if check.wrong > 0 || check.failed > 0 || !check.pending.is_empty() {
        failures.push("replay output checks failed");
    }

    // ---- 3. focused loops on the same inputs ------------------------------
    let floor_ns = timer_floor_ns();
    let mut reads_gen = OpGen::new(seed);
    let reads: Vec<String> = std::iter::from_fn(|| Some(reads_gen.next(workload, &data)))
        .filter(|op| op.kind != OpKind::Write)
        .take(if workload == Workload::RangeScan {
            200
        } else {
            4000
        })
        .map(|op| op.sql(&data))
        .collect();
    let (mut main_acc, mut alt_acc) = ((0.0f64, 0u64), (0.0f64, 0u64));
    let (mut guarded_ns, mut base_ns) = (0u64, 0u64);
    for (i, sql) in reads.iter().enumerate() {
        if i % 2 == 0 {
            price_loop(&main_db, sql, floor_ns, &mut main_acc);
            price_loop(&alt_db, sql, floor_ns, &mut alt_acc);
        } else {
            price_loop(&alt_db, sql, floor_ns, &mut alt_acc);
            price_loop(&main_db, sql, floor_ns, &mut main_acc);
        }
        let guarded = |ns: &mut u64| {
            let t = Instant::now();
            black_box(main_db.execute_with_deadline(sql).expect("guarded read"));
            *ns += t.elapsed().as_nanos() as u64;
        };
        let plain = |ns: &mut u64| {
            let t = Instant::now();
            black_box(main_db.engine().execute(sql).expect("base read"));
            *ns += t.elapsed().as_nanos() as u64;
        };
        if i % 2 == 0 {
            guarded(&mut guarded_ns);
            plain(&mut base_ns);
        } else {
            plain(&mut base_ns);
            guarded(&mut guarded_ns);
        }
    }
    let (access_acc, hybrid_acc) = match pricing {
        Pricing::AccessRate => (main_acc, alt_acc),
        Pricing::Hybrid => (alt_acc, main_acc),
    };
    let mut requests = Vec::new();
    for (i, sql) in reads.iter().enumerate() {
        let frame = Frame::Query {
            query_id: i as u32,
            user: twin.user,
            sql: sql.clone(),
        };
        encode_frame_into(&frame, &mut requests).expect("encode request");
    }
    let (mut decode_ns, mut decoded) = (0u64, 0u64);
    let mut scratch = Vec::new();
    let decode_until = Instant::now() + Duration::from_millis(50);
    while Instant::now() < decode_until {
        let mut r = requests.as_slice();
        let t = Instant::now();
        while let Some(frame) = read_frame_buffered(&mut r, &mut scratch).expect("decode") {
            black_box(frame);
            decoded += 1;
        }
        decode_ns += t.elapsed().as_nanos() as u64;
    }

    // ---- the self-time table ------------------------------------------------
    let traced = totals[Mode::Traced as usize];
    let untraced = totals[Mode::Untraced as usize];
    let gate = totals[Mode::Gate as usize];
    let main_ops = traced.ops as f64;
    let median_over_rounds =
        |f: &dyn Fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let (g, t, u) = (
        Mode::Gate as usize,
        Mode::Traced as usize,
        Mode::Untraced as usize,
    );
    // Tracing overhead: traced minus untraced time of the same pipeline.
    let overhead_ns = median_over_rounds(&|r| r.ns[t] - r.ns[u]);
    let overhead_frac = median_over_rounds(&|r| r.ns[t] / r.ns[u] - 1.0);
    // Self times are reported net of tracing: scaled by untraced over
    // traced time.
    let untrace = median_over_rounds(&|r| r.ns[u] / r.ns[t]);
    // The layers' self times, net of tracing, against the real gate in
    // the same round.
    let self_sum_frac = median_over_rounds(&|r| r.layer_ns * r.ns[u] / r.ns[t] / r.ns[g]);
    let gate_us = median_over_rounds(&|r| r.ns[g]) / 1e3;
    // The probe writes ran traced after the main stream; the table and
    // its comparison with the gate cover the main stream's spans only.
    let spans = rec.spans();
    let main_table = self_times(spans, 0..main_spans, untrace);
    let probe_table = self_times(spans, main_spans..spans.len(), untrace);
    println!(
        "workload {}  seed {seed}  hw_threads {}  replay ops: gate {}  traced {}  untraced {}  probe writes {}",
        workload.name(),
        crate::hw_threads(),
        gate.ops,
        traced.ops,
        untraced.ops,
        probe_ops
    );
    println!(
        "{:<22} {:>9} {:>14} {:>12}",
        "layer", "spans", "self_us/op", "of gate"
    );
    for (name, st) in &main_table {
        let per_op_us = st.self_ns / main_ops / 1e3;
        println!(
            "{:<22} {:>9} {:>14.3} {:>11.1}%",
            name,
            st.count,
            per_op_us,
            100.0 * per_op_us / gate_us
        );
    }
    println!(
        "layer self times net of tracing: per round, median {:.1}% of server.gate_us {gate_us:.3} us \
         ({} rounds; recomposed untraced {:.3} us, traced {:.3} us per op)",
        100.0 * self_sum_frac,
        rounds.len(),
        median_over_rounds(&|r| r.ns[u]) / 1e3,
        median_over_rounds(&|r| r.ns[t]) / 1e3,
    );
    // The recomposed pipeline is this benchmark's copy of the gate, so a
    // mismatch says the table is out of date, not that the program's
    // output is wrong: it is reported, and `correct` is left alone.
    if (self_sum_frac - 1.0).abs() > SELF_SUM_TOLERANCE {
        println!(
            "WARNING: layer self times are not within 10% of server.gate_us: the layer table \
             no longer describes the gate"
        );
    }
    let span_path = PathBuf::from(format!(
        ".bench_out/spans-{}-seed{seed}.tsv",
        workload.name()
    ));
    match rec.write_tsv(&span_path) {
        Ok(()) => println!("spans written to {}", span_path.display()),
        Err(e) => println!("could not write spans to {}: {e}", span_path.display()),
    }

    let layer_mean = |name: &str| -> f64 {
        main_table
            .get(name)
            .or_else(|| probe_table.get(name))
            .map_or(f64::NAN, |st| st.self_ns / st.count.max(1) as f64)
    };
    let main_layer = |name: &str| -> f64 { main_table.get(name).map_or(0.0, |st| st.self_ns) };
    let metrics = vec![
        Metric::new("query.parse_us", layer_mean("query.parse") / 1e3, "us"),
        Metric::new("query.open_us", layer_mean("query.open") / 1e3, "us"),
        Metric::new(
            "query.exec_ns_per_row",
            main_layer("query.exec") / traced.rows as f64,
            "ns",
        ),
        Metric::new(
            "core.price_ns_per_row",
            main_layer("core.price") / traced.rows as f64,
            "ns",
        ),
        Metric::new(
            "core.price_access_ns_per_row",
            access_acc.0 / access_acc.1 as f64,
            "ns",
        ),
        Metric::new(
            "core.price_hybrid_ns_per_row",
            hybrid_acc.0 / hybrid_acc.1 as f64,
            "ns",
        ),
        Metric::new(
            "core.below_cap_frac",
            twin.below_cap as f64 / twin.priced.max(1) as f64,
            "share",
        ),
        Metric::new("core.admit_ns", layer_mean("core.admit"), "ns"),
        Metric::new(
            "core.release_us",
            main_layer("core.release") / main_ops / 1e3,
            "us",
        ),
        Metric::new(
            "core.refresh_us",
            refresh_ns as f64 / refreshes.max(1) as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "core.refresh_events",
            refresh_events as f64 / refreshes.max(1) as f64,
            "count",
        ),
        Metric::new("core.mutate_us", layer_mean("core.mutate") / 1e3, "us"),
        Metric::new(
            "core.overhead_frac",
            guarded_ns as f64 / base_ns as f64 - 1.0,
            "share",
        ),
        Metric::new("server.gate_us", gate_us, "us"),
        Metric::new(
            "server.schedule_us",
            main_layer("server.schedule") / main_ops / 1e3,
            "us",
        ),
        Metric::new(
            "server.encode_ns_per_frame",
            encode_ns as f64 / encoded.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "server.decode_ns_per_frame",
            decode_ns as f64 / decoded.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "server.wheel_jobs_per_query",
            wheel_jobs as f64 / wheel_queries.max(1) as f64,
            "count",
        ),
        Metric::new(
            "server.wheel_poll_us",
            layer_mean("server.wheel_poll") / 1e3,
            "us",
        ),
        Metric::new("server.transport_us", 1e6 / qps - gate_us, "us"),
        Metric::new("server.syscalls_per_op", per_op(counters.syscalls), "count"),
        Metric::new(
            "server.tcp_segments_per_op",
            per_op(counters.tcp_segments),
            "count",
        ),
        Metric::new(
            "server.ctx_switches_per_op",
            per_op(counters.ctx_switches),
            "count",
        ),
        Metric::new(
            "alloc.allocs_per_op",
            gate_allocs as f64 / gate.ops as f64,
            "count",
        ),
        Metric::new(
            "storage.bytes_copied_per_row",
            gate_copied as f64 / gate.rows.max(1) as f64,
            "B",
        ),
        Metric::new("trace.overhead_us", overhead_ns / 1e3, "us"),
        Metric::new("trace.overhead_frac", overhead_frac, "share"),
        Metric::new("trace.self_sum_frac", self_sum_frac, "share"),
        Metric::new("trace.spans", rec.spans().len() as f64, "count"),
    ];
    let mut out = Outcome::new(metrics);
    out.attempted = closed.attempted + qid as u64;
    out.failed = check.failed + check.pending.len() as u64;
    for f in failures {
        out.fail(f);
    }
    if workload.writes() && (twin.below_cap as f64) < 0.5 * twin.priced as f64 {
        out.reject("fewer than half of the reads priced below the cap");
    }
    out
}
