//! The wire side: booting fg-serve, and the three ways callers drive it —
//! a pipelined single-caller replay, a closed loop, and an open loop at a
//! fixed rate.

use crate::plan::SCRAPE_EVERY;
use crate::spans::{SpanLog, NO_PARENT};
use fg_serve::loadgen::read_response;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A reply that takes longer than this counts as a timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Readiness poll interval.
const READY_POLL: Duration = Duration::from_micros(100);
/// A boot that is not ready by then fails the run.
const BOOT_DEADLINE: Duration = Duration::from_secs(30);

/// A running `fg-serve` child process; killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Held open so the server never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// The child's process id, for `/proc` accounting.
    pub pid: u32,
    /// The address it bound.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `bin --config <config>` and waits for the first `200` from
    /// `/readyz`. Returns the server and the time from spawn to ready.
    pub fn boot(bin: &Path, config: &Path) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .arg("--config")
            .arg(config)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        // Owned by the guard from here on, so every early return kills it.
        let mut server = Server {
            pid: child.id(),
            stdout: BufReader::new(child.stdout.take().expect("stdout is piped")),
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server.addr = loop {
            line.clear();
            if !matches!(server.stdout.read_line(&mut line), Ok(n) if n > 0) {
                return Err(format!(
                    "fg-serve exited before listening: {:?}",
                    server.child.wait()
                ));
            }
            if let Some(addr) = line.trim().strip_prefix("fg-serve listening on ") {
                break addr
                    .parse()
                    .map_err(|e| format!("listen address {addr:?}: {e}"))?;
            }
        };
        loop {
            if matches!(get(server.addr, "/readyz"), Ok((200, _))) {
                return Ok((server, started.elapsed()));
            }
            if started.elapsed() > BOOT_DEADLINE {
                return Err("fg-serve never answered /readyz with 200".to_owned());
            }
            std::thread::sleep(READY_POLL);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with Nagle off and the reply timeout set.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one framed request and reads its reply.
    pub fn exchange(&mut self, frame: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.writer.write_all(frame)?;
        read_response(&mut self.reader)
    }
}

/// `GET path` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, Vec<u8>)> {
    Conn::open(addr)?.exchange(&crate::plan::get_frame(path, true))
}

/// A finished exchange. `status` 0 marks a transport error or timeout.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Stream index of the request.
    pub index: usize,
    /// What was sent.
    pub kind: Sent,
    /// Send to last reply byte (open loop: due time to last reply byte).
    pub latency_ns: u64,
    /// How late the open-loop generator sent it (0 in a closed loop).
    pub late_ns: u64,
    /// HTTP status, or 0 when no reply arrived.
    pub status: u16,
    /// The reply body (decisions only; empty otherwise).
    pub body: Vec<u8>,
}

/// Request classes a caller sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sent {
    /// `POST /v1/decide`.
    Decide,
    /// `POST /v1/report`.
    Report,
    /// `GET /metrics`.
    Metrics,
    /// `GET /debug/traces`.
    Traces,
    /// A decision frame sent to the control server.
    Control,
}

/// The traffic a caller sends for one stream index: the decision, then in
/// `ops` its outcome report and, every so often, a scrape pair.
pub struct Traffic<'a> {
    /// Framed decisions by stream index.
    pub decide: &'a [Vec<u8>],
    /// Framed reports by stream index (empty slice: none are sent).
    pub report: &'a [Option<Vec<u8>>],
    /// Framed scrapes sent after every [`SCRAPE_EVERY`] decisions from the
    /// phase start, on the caller's own connection (empty: none).
    pub scrapes: &'a [(Sent, Vec<u8>)],
    /// Open a connection per decision and let the server close it.
    pub connect_per_request: bool,
}

impl Traffic<'_> {
    /// The follow-up exchanges after decision `i` of a phase starting at
    /// `start`.
    fn follow_ups(&self, i: usize, start: usize) -> Vec<(Sent, &[u8])> {
        let mut out = Vec::new();
        if let Some(Some(frame)) = self.report.get(i) {
            out.push((Sent::Report, frame.as_slice()));
        }
        if (i - start) % SCRAPE_EVERY == SCRAPE_EVERY - 1 {
            out.extend(self.scrapes.iter().map(|(kind, f)| (*kind, f.as_slice())));
        }
        out
    }
}

fn elapsed_ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// Replays `range` in order on one keep-alive connection, pipelined: a
/// writer thread streams every frame while this thread reads the replies.
/// Order on the server is exactly stream order, which makes this the
/// single-caller pass that is compared reply by reply with the reference.
pub fn pipelined(
    addr: SocketAddr,
    traffic: &Traffic<'_>,
    range: std::ops::Range<usize>,
    mut on_reply: impl FnMut(&Reply),
) -> io::Result<()> {
    let conn = Conn::open(addr)?;
    let Conn { mut reader, writer } = conn;
    let mut expected: Vec<(usize, Sent)> = Vec::new();
    let mut frames: Vec<&[u8]> = Vec::new();
    for i in range.clone() {
        expected.push((i, Sent::Decide));
        frames.push(&traffic.decide[i]);
        for (sent, frame) in traffic.follow_ups(i, range.start) {
            expected.push((i, sent));
            frames.push(frame);
        }
    }
    std::thread::scope(|s| {
        let writer_thread = s.spawn(move || -> io::Result<()> {
            let mut out = BufWriter::with_capacity(64 * 1024, writer);
            for frame in &frames {
                out.write_all(frame)?;
            }
            out.flush()
        });
        let mut result = Ok(());
        for &(index, kind) in &expected {
            let (status, body) = match read_response(&mut reader) {
                Ok(reply) => reply,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            // Pipelined replies carry no latency: the pass is untimed.
            on_reply(&Reply {
                index,
                kind,
                latency_ns: 0,
                late_ns: 0,
                status,
                body: if kind == Sent::Decide {
                    body
                } else {
                    Vec::new()
                },
            });
        }
        // Closing our read half unblocks a writer stuck on a full socket.
        let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
        let written = writer_thread.join().expect("pipeline writer panicked");
        result.and(written)
    })
}

/// What a caller pool produced.
pub struct PhaseOutcome {
    /// Every exchange, in completion order per caller.
    pub replies: Vec<Reply>,
    /// Wall time of the whole phase.
    pub wall: Duration,
    /// Client spans (empty unless traced).
    pub spans: SpanLog,
}

/// One exchange with optional client spans around connect, send, wait and
/// read. The connection is (re)opened when `conn` is empty.
fn timed_exchange(
    addr: SocketAddr,
    conn: &mut Option<Conn>,
    frame: &[u8],
    spans: Option<(&mut SpanLog, u32)>,
) -> (u16, Vec<u8>) {
    let t0 = Instant::now();
    if conn.is_none() {
        *conn = Conn::open(addr).ok();
    }
    let Some(c) = conn.as_mut() else {
        return (0, Vec::new());
    };
    let result = match spans {
        None => c.exchange(frame),
        Some((log, req)) => {
            let t_connected = Instant::now();
            let sent = c.writer.write_all(frame);
            let t_sent = Instant::now();
            let first = sent.and_then(|()| c.reader.fill_buf().map(|b| b.len()));
            let t_first = Instant::now();
            let reply = first.and_then(|_| read_response(&mut c.reader));
            let t_done = Instant::now();
            let root = log.record("client.request", req, NO_PARENT, t0, t_done);
            if t_connected > t0 {
                log.record("client.connect", req, root, t0, t_connected);
            }
            log.record("client.send", req, root, t_connected, t_sent);
            log.record("client.wait", req, root, t_sent, t_first);
            log.record("client.read", req, root, t_first, t_done);
            reply
        }
    };
    match result {
        Ok(reply) => reply,
        Err(_) => {
            *conn = None;
            (0, Vec::new())
        }
    }
}

/// With a control server, each closed-loop caller sends it one request
/// per this many decisions.
pub const CONTROL_EVERY: usize = 4;
/// On `connect` those control requests go in back-to-back runs of this
/// many, so that the control's accept poll meets them in the same phase
/// as fg-serve's poll meets the decisions: right after the previous
/// accept. Keep-alive callers interleave them one at a time, which tracks
/// the host most closely.
pub const CONTROL_RUN_ON_CONNECT: usize = 10;

/// Closed loop: `callers` threads take stream indices in order from a
/// shared cursor; each sends its next request only after the previous
/// reply has arrived. With a `control` address, each caller also sends
/// one request there per [`CONTROL_EVERY`] decisions, over the same kind
/// of connection, re-sending the decision frame it just sent.
pub fn closed_loop(
    addr: SocketAddr,
    traffic: &Traffic<'_>,
    range: std::ops::Range<usize>,
    callers: usize,
    traced: bool,
    control: Option<SocketAddr>,
    origin: Instant,
) -> PhaseOutcome {
    let cursor = AtomicUsize::new(range.start);
    let started = Instant::now();
    let per_caller: Vec<(Vec<Reply>, SpanLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                let cursor = &cursor;
                let range = range.clone();
                s.spawn(move || {
                    let mut replies = Vec::new();
                    let mut log = SpanLog::new(origin);
                    let mut conn: Option<Conn> = None;
                    let mut control_conn: Option<Conn> = None;
                    let mut decided = 0usize;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= range.end {
                            break;
                        }
                        if traffic.connect_per_request {
                            conn = None;
                        }
                        let t0 = Instant::now();
                        let spans = traced.then_some((&mut log, i as u32));
                        let (status, body) =
                            timed_exchange(addr, &mut conn, &traffic.decide[i], spans);
                        replies.push(Reply {
                            index: i,
                            kind: Sent::Decide,
                            latency_ns: elapsed_ns(t0, Instant::now()),
                            late_ns: 0,
                            status,
                            body,
                        });
                        for (kind, frame) in traffic.follow_ups(i, range.start) {
                            let t0 = Instant::now();
                            let (status, _) = timed_exchange(addr, &mut conn, frame, None);
                            replies.push(Reply {
                                index: i,
                                kind,
                                latency_ns: elapsed_ns(t0, Instant::now()),
                                late_ns: 0,
                                status,
                                body: Vec::new(),
                            });
                        }
                        decided += 1;
                        let Some(control) = control else { continue };
                        let run = if traffic.connect_per_request {
                            CONTROL_RUN_ON_CONNECT
                        } else {
                            1
                        };
                        if !decided.is_multiple_of(CONTROL_EVERY * run) {
                            continue;
                        }
                        for _ in 0..run {
                            if traffic.connect_per_request {
                                control_conn = None;
                            }
                            let t0 = Instant::now();
                            let (status, _) = timed_exchange(
                                control,
                                &mut control_conn,
                                &traffic.decide[i],
                                None,
                            );
                            replies.push(Reply {
                                index: i,
                                kind: Sent::Control,
                                latency_ns: elapsed_ns(t0, Instant::now()),
                                late_ns: 0,
                                status,
                                body: Vec::new(),
                            });
                        }
                    }
                    (replies, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut spans = SpanLog::new(origin);
    let mut replies = Vec::new();
    for (r, log) in per_caller {
        replies.extend(r);
        spans.absorb(log);
    }
    PhaseOutcome {
        replies,
        wall,
        spans,
    }
}

/// Open loop: request `k` of `range` is due `k / rate` seconds after the
/// start, whether or not earlier replies have arrived. A pool of `conns`
/// senders stands in for independent users; latency counts from the due
/// time, so a stall charges every request queued behind it, and each
/// reply records how late the generator sent it.
pub fn open_loop(
    addr: SocketAddr,
    traffic: &Traffic<'_>,
    range: std::ops::Range<usize>,
    rate: f64,
    conns: usize,
    origin: Instant,
) -> PhaseOutcome {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_sender: Vec<Vec<Reply>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                let range = range.clone();
                s.spawn(move || {
                    let mut replies = Vec::new();
                    let mut conn: Option<Conn> = None;
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let i = range.start + k;
                        if i >= range.end {
                            break;
                        }
                        let due = started + Duration::from_secs_f64(k as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent_at = Instant::now();
                        if traffic.connect_per_request {
                            conn = None;
                        }
                        let (status, body) =
                            timed_exchange(addr, &mut conn, &traffic.decide[i], None);
                        replies.push(Reply {
                            index: i,
                            kind: Sent::Decide,
                            latency_ns: elapsed_ns(due, Instant::now()),
                            late_ns: elapsed_ns(due, sent_at),
                            status,
                            body,
                        });
                    }
                    replies
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender panicked"))
            .collect()
    });
    PhaseOutcome {
        replies: per_sender.into_iter().flatten().collect(),
        wall: started.elapsed(),
        spans: SpanLog::new(origin),
    }
}

/// Times `GET path` on a fresh connection; an answer other than `200` is
/// an error. Used for the run-end scrapes.
pub fn timed_get(addr: SocketAddr, path: &str) -> io::Result<(Duration, Vec<u8>)> {
    let t0 = Instant::now();
    let (status, body) = get(addr, path)?;
    if status != 200 {
        return Err(io::Error::other(format!("GET {path} answered {status}")));
    }
    Ok((t0.elapsed(), body))
}
